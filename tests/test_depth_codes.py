"""Depth-k codes written from the directed-entry memo.

``depth_classes``, the F-elements of ``color_graph``, ``truncate_measure`` and
``empirical_distribution(depth=k)`` write a tree-shaped ball's code from g
without building the ball, and build and canonicalize any other ball.  On
every family below, which holds balls of both kinds, the codes must equal
those of the per-ball path they replaced, byte for byte, and the measures
must keep their atoms, weights, atom order and representatives.
"""
import random
from fractions import Fraction

import pytest

from localgraphs.canonical import canonicalize, depth_class, depth_classes
from localgraphs.colored import _direction_element, color_graph
from localgraphs.graphs import DegreeSequence, MarkAlphabets, MarkedGraph, ball, build_graph
from localgraphs.measures import empirical_distribution, measure_from_pairs, truncate_measure
from localgraphs.surgery import modify_graph
from localgraphs.verify import random_bounded_tree, random_marked

from oracles import depth_classes_oracle, direction_element_oracle, truncate_measure_oracle

#: multi-character symbols, so a code that split or merged marks would show
WIDE = MarkAlphabets(("s1", "tt", "u"), ("ab", "c", "d2"))


def marked(rng: random.Random, n: int, edges) -> MarkedGraph:
    marks = {e: (rng.choice(WIDE.xi), rng.choice(WIDE.xi)) for e in edges}
    return build_graph(n, marks, tuple(rng.choice(WIDE.theta) for _ in range(n)), WIDE)


def cycle_with_tail(rng: random.Random, length: int, tail: int):
    """A cycle of the given length with a path of ``tail`` vertices hung on
    vertex 0, so balls near the tail's end are trees and balls on the cycle
    are not, once they reach around it."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(0 if j == 0 else length + j - 1, length + j) for j in range(tail)]
    return marked(rng, length + tail, edges)


def windmill(rng: random.Random, blades: int):
    """``blades`` triangles sharing vertex 0."""
    edges = [(0, 2 * i + 1) for i in range(blades)] + [(0, 2 * i + 2) for i in range(blades)]
    edges += [(2 * i + 1, 2 * i + 2) for i in range(blades)]
    return marked(rng, 2 * blades + 1, edges)


def k33(rng: random.Random):
    return marked(rng, 6, [(a, b) for a in range(3) for b in range(3, 6)])


def random_tree(rng: random.Random, n: int):
    return marked(rng, n, [(rng.randrange(v), v) for v in range(1, n)])


def families(k: int):
    rng = random.Random(1000 + k)
    # a simple graph has no cycle of length 2, so k = 1 starts at 2k + 1
    lengths = [n for n in (2 * k, 2 * k + 1, 2 * k + 2) if n >= 3]
    out = [(f"cycle{n}", cycle_with_tail(rng, n, k + 1)) for n in lengths]
    out += [("triangle", cycle_with_tail(rng, 3, 2)), ("k33", k33(rng))]
    out += [(f"windmill{b}", windmill(rng, b)) for b in (2, 3)] + [("tree", random_tree(rng, 30))]
    out += [(f"sparse{i}", random_marked(rng, 14, 0.15, WIDE)) for i in range(3)]
    # a surgery rebuild, whose girth exceeds 2k + 1
    tree = random_bounded_tree(random.Random(k), 40)
    rebuilt, _ = modify_graph(tree, DegreeSequence(tree.degrees()), k, random.Random(k))
    out.append(("rebuild", rebuilt))
    return out


CASES = [(k, name, g) for k in (1, 2, 3) for name, g in families(k)]


@pytest.mark.parametrize("k,name,g", CASES, ids=[f"k{k}-{name}" for k, name, _ in CASES])
def test_depth_codes_match_the_per_ball_path(k, name, g):
    assert depth_classes(g, k) == depth_classes_oracle(g, k)

    memo = {}
    directed = [(u, v) for e in sorted(g.edges) for (u, v) in (e, e[::-1])]
    elements = [direction_element_oracle(g, u, v, k) for u, v in directed]
    assert [_direction_element(g, u, v, k, memo) for u, v in directed] == elements
    assert color_graph(g, k)[1].f_elements == tuple(sorted(set(elements)))

    mu = empirical_distribution(g)
    new, old = truncate_measure(mu, k), truncate_measure_oracle(mu, k)
    assert list(new.atoms.items()) == list(old.atoms.items())
    assert [(a, new.rep(a)) for a in new.atoms] == [(a, old.rep(a)) for a in old.atoms]

    new = empirical_distribution(g, depth=k)
    old = measure_from_pairs((ball(g, v, k), Fraction(1, g.n)) for v in range(g.n))
    assert list(new.atoms.items()) == list(old.atoms.items())
    assert [(a, new.rep(a)) for a in new.atoms] == [(a, old.rep(a)) for a in old.atoms]
    assert all(canonicalize(new.rep(atom)) == atom for atom in new.atoms)


def written(g, parent, root, r):
    """depth_class of the ball, and whether it was written from the memo: a
    built ball leaves the memo empty."""
    memo = {}
    return depth_class(g, parent, root, r, memo), bool(memo)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_short_cycles_take_the_built_ball(k):
    """On a bare cycle of length L the depth-k ball of a vertex is a tree
    only when L >= 2k + 2: at 2k the walk meets the far vertex twice, and at
    2k + 1 the far edge joins two depth-k vertices."""
    rng = random.Random(k)
    for length, tree in ((2 * k, False), (2 * k + 1, False), (2 * k + 2, True)):
        if length < 3:
            continue
        g = cycle_with_tail(rng, length, 0)
        cls, from_memo = written(g, -1, 0, k)
        assert from_memo == tree, length
        assert cls == canonicalize(ball(g, 0, k))


def test_a_cycle_through_the_excluded_edge_takes_the_built_ball():
    """In a triangle uvw, v's depth-2 ball in g minus uv reaches u through w."""
    g = windmill(random.Random(3), 1)
    assert written(g, 0, 1, 1) == (canonicalize(ball(g, 1, 1, exclude_edge=(0, 1))), True)
    assert written(g, 0, 1, 2) == (canonicalize(ball(g, 1, 2, exclude_edge=(0, 1))), False)
    assert _direction_element(g, 0, 1, 3, {}) == direction_element_oracle(g, 0, 1, 3)


def test_a_deep_ball_of_a_dense_graph_stops_at_the_first_repeat():
    """The walk stops at the first vertex it meets twice, before any entry is
    written: the non-backtracking walks of K4 to depth 60 number 3 * 2^59."""
    g = marked(random.Random(4), 4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert written(g, -1, 0, 60) == (canonicalize(ball(g, 0, 60)), False)
    assert depth_classes(g, 60) == depth_classes_oracle(g, 60)


def test_the_entry_memo_is_not_kept_with_the_graph():
    rng = random.Random(7)
    for g in (random_tree(rng, 25), cycle_with_tail(rng, 5, 3)):
        mu = empirical_distribution(g)
        graphs = [g] + [mu.rep(atom).graph for atom in mu.atoms]
        for h in graphs:
            h.adjacency, h.is_connected()
        before = [set(vars(h)) for h in graphs]
        depth_classes(g, 2)
        color_graph(g, 2)
        truncate_measure(mu, 2)
        empirical_distribution(g, depth=2)
        assert [set(vars(h)) for h in graphs] == before
