"""Tree codes joined from shared subtree preorders, and the position table.

``rooted_classes`` on a tree orders each root's vertices by joining the
preorders of its neighbours' subtrees, which it keeps for every directed
edge, and ``_certificate`` writes each position from one module table of
position strings, ``_POSITIONS``.  Every code must be the one that a stack walk per root
and an int-formatting writer give, byte for byte.  Positions of three
digits sort as strings, not as numbers, and unmarked paths, stars and
binary trees tie many entries, so children with equal entries meet in
either order.
"""
import hashlib
import random
from itertools import product

import pytest

from localgraphs import canonical
from localgraphs.canonical import (
    CanonicalClass,
    _certificate,
    canonicalize,
    canonicalize_pair,
    rooted_classes,
)
from localgraphs.graphs import MarkAlphabets, RootedMarkedGraph, build_graph
from localgraphs.measures import empirical_distribution, write_measure
from localgraphs.verify import random_bounded_tree, random_marked

from oracles import certificate_oracle, ir_certificate_oracle, tree_orders_oracle
from test_ir_search import LONG_MARKS


def marked_tree(rng: random.Random, n: int, alphabets: MarkAlphabets = LONG_MARKS):
    xi = alphabets.xi
    marks = {(rng.randrange(v), v): (rng.choice(xi), rng.choice(xi)) for v in range(1, n)}
    return build_graph(n, marks, tuple(rng.choice(alphabets.theta) for _ in range(n)), alphabets)


def unmarked(n: int, edges):
    return build_graph(n, {e: ("-", "-") for e in edges})


def trees():
    rng = random.Random(20)
    out = [(f"marked{n}", marked_tree(rng, n)) for n in (100, 173, 300)]
    out.append(("bounded150", random_bounded_tree(random.Random(5), 150)))
    out.append(("path150", unmarked(150, [(i, i + 1) for i in range(149)])))
    out.append(("star120", unmarked(120, [(0, i) for i in range(1, 120)])))
    out.append(("binary127", unmarked(127, [((i - 1) // 2, i) for i in range(1, 127)])))
    # two-symbol marks on a binary tree, so some ties hold and some break
    tied = build_graph(
        127,
        {((i - 1) // 2, i): ("a", "b" if i % 3 else "a") for i in range(1, 127)},
        tuple("t" if i % 2 and i > 60 else "s" for i in range(127)),
        MarkAlphabets(("s", "t"), ("a", "b")),
    )
    out.append(("binary127-marked", tied))
    return out


TREES = trees()


@pytest.mark.parametrize("g", [g for _, g in TREES], ids=[name for name, _ in TREES])
def test_rooted_classes_match_the_stack_walk(g):
    walked = [
        CanonicalClass(certificate_oracle(g, (r,), order).encode())
        for r, order in enumerate(tree_orders_oracle(g))
    ]
    assert rooted_classes(g) == walked
    assert walked == [canonicalize(RootedMarkedGraph(g, r)) for r in range(g.n)]


def test_rooted_classes_ties_are_many_on_unmarked_trees():
    """The unmarked families tie entries, so joining in another order than
    the stack walk is exercised: a star has one class for its leaves."""
    star = dict(TREES)["star120"]
    assert len(set(rooted_classes(star))) == 2
    assert len(set(rooted_classes(dict(TREES)["path150"]))) == 75


def small_trees():
    rng = random.Random(21)
    out = [marked_tree(rng, n) for n in (2, 5, 9, 12, 14)]
    out.append(unmarked(6, [(0, i) for i in range(1, 6)]))
    out.append(unmarked(7, [(i, i + 1) for i in range(6)]))
    out.append(unmarked(7, [((i - 1) // 2, i) for i in range(1, 7)]))
    return out


@pytest.mark.parametrize("g", small_trees())
def test_pair_codes_on_trees_partition_as_the_ir_oracle(g):
    """Two root pairs of a tree share a code exactly when the full
    individualization-refinement search gives them one certificate."""
    pairs = list(product(range(g.n), repeat=2))
    codes = {pair: canonicalize_pair(g, *pair) for pair in pairs}
    certs = {pair: ir_certificate_oracle(g, pair) for pair in pairs}
    for a, b in product(pairs, repeat=2):
        assert (codes[a] == codes[b]) == (certs[a] == certs[b]), (a, b)


def test_certificate_matches_oracle_as_the_table_grows(monkeypatch):
    """A large graph, a small one, then a larger one: the position table
    grows twice, stays as long as the largest graph, and reads str(i)."""
    rng = random.Random(22)
    monkeypatch.setattr(canonical, "_POSITIONS", ([], []))
    for n in (130, 12, 170):
        g = random_marked(rng, n, 4 / n, LONG_MARKS)
        for _ in range(3):
            order = list(range(n))
            rng.shuffle(order)
            for roots in ((rng.randrange(n),), (rng.randrange(n), rng.randrange(n))):
                assert _certificate(g, roots, order) == certificate_oracle(g, roots, order)
        tree = marked_tree(rng, n)
        assert rooted_classes(tree)[0].code.decode() == certificate_oracle(
            tree, (0,), tree_orders_oracle(tree)[0]
        )
        num, dot = canonical._POSITIONS
        assert len(num) == len(dot) == max(130, n)
    assert num == [str(i) for i in range(170)]
    assert dot == [f"{i}." for i in range(170)]


def test_full_depth_measure_of_a_bounded_tree_is_pinned():
    text = write_measure(empirical_distribution(random_bounded_tree(random.Random(5), 150)))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "b9d6aa9bcd953c2e671eb858b5b04f9b51cd431ead94deb2252a05a9a8a0629f"
