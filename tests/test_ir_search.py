"""The automorphism-pruned individualization-refinement search on symmetric
families, where pruning skips most of the search tree, and on cones over
regular graphs, where one refinement cell holds vertices of several orbits.

Certificates must equal those of the full search (``ir_certificate_oracle``),
and codes must be invariant under relabelling and separate exactly the classes
that networkx's VF2 matcher separates.
"""
import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import categorical_edge_match, categorical_node_match

from localgraphs.canonical import (
    _ir_certificate,
    canonical_code,
    canonicalize,
    neighbour_keys,
    rooted_classes,
)
from localgraphs.graphs import MarkAlphabets, RootedMarkedGraph, ball, build_graph
from localgraphs.verify import random_sparse_graph

from oracles import ir_certificate_oracle

AB = MarkAlphabets(("s", "t"), ("a", "b"))


def unmarked(n, edges):
    return build_graph(n, {e: ("a", "a") for e in edges}, None, AB)


def windmill(k):
    """k triangles sharing vertex 0; blade i is (2i + 1, 2i + 2)."""
    edges = []
    for i in range(k):
        edges += [(0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2)]
    return unmarked(2 * k + 1, edges)


PETERSEN = unmarked(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def bowtie(rng):
    """Two triangles sharing vertex 0, with random vertex and edge marks."""
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    marks = {e: (rng.choice(AB.xi), rng.choice(AB.xi)) for e in edges}
    return build_graph(5, marks, tuple(rng.choice(AB.theta) for _ in range(5)), AB)


def cone(graph: nx.Graph, shift: int):
    """A new vertex 0 joined to every vertex of graph, whose vertex v becomes
    1 + (v + shift) % len(graph).

    Rooted at 0, a cone over a regular graph leaves one refinement cell of
    all the other vertices.  Over an asymmetric graph, such as Frucht's, each
    of them is its own orbit, so the search may prune none of them; over the
    shifts, each of them is the last of that cell in turn.
    """
    m = len(graph)
    edges = [(0, 1 + (v + shift) % m) for v in graph]
    edges += [(1 + (u + shift) % m, 1 + (v + shift) % m) for u, v in graph.edges()]
    return unmarked(m + 1, edges)


def sparse_cyclic_components(rng, count):
    """The first ``count`` components with a cycle of seeded random sparse graphs."""
    found = []
    while len(found) < count:
        g = random_sparse_graph(rng, rng.randint(10, 30))
        seen = set()
        for v in range(g.n):
            if v not in seen:
                comp = ball(g, v).graph
                seen.update(g.component(v))
                if len(comp.edges) >= comp.n and len(found) < count:
                    found.append(comp)
    return found


def cases():
    """(id, graph, single roots to test) for every symmetric family."""
    rng = random.Random(2024)
    out = [(f"windmill{k}", windmill(k), (0, 1)) for k in range(2, 7)]
    out += [(f"C{m}", unmarked(m, [(i, (i + 1) % m) for i in range(m)]), (0,)) for m in range(3, 13)]
    out += [
        (f"K{m},{m}", unmarked(2 * m, [(i, m + j) for i in range(m) for j in range(m)]), (0,))
        for m in range(1, 5)
    ]
    out.append(("petersen", PETERSEN, (0,)))
    out += [(f"bowtie{i}", bowtie(rng), (0, 1)) for i in range(8)]
    c3_c4 = nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(4))
    out += [(f"c3_c4_cone{i}", cone(c3_c4, i), (0,)) for i in range(7)]
    out += [(f"sparse{i}", g, (0, g.n - 1)) for i, g in enumerate(sparse_cyclic_components(rng, 8))]
    return out


CASES = cases()
# VF2 needs seconds per non-isomorphic pair of Frucht cones, so these only
# meet the full search
FRUCHT = [(f"frucht_cone{i}", cone(nx.frucht_graph(), i), (0,)) for i in range(12)]


def root_tuples(g, singles, rng):
    """Each single root, and each paired with a seeded random second root."""
    return [(r,) for r in singles] + [(r, rng.randrange(g.n)) for r in singles]


@pytest.mark.parametrize("name,g,singles", [pytest.param(*c, id=c[0]) for c in CASES + FRUCHT])
def test_pruned_search_matches_full_search(name, g, singles):
    rng = random.Random(name)
    keys = neighbour_keys(g)
    for roots in root_tuples(g, singles, rng):
        assert _ir_certificate(g, roots, keys)[0] == ir_certificate_oracle(g, roots), roots


def relabelled(g, perm):
    marks = {(perm[u], perm[v]): (g.xi[(u, v)], g.xi[(v, u)]) for (u, v) in g.edges}
    tau = [""] * g.n
    for v in range(g.n):
        tau[perm[v]] = g.tau[v]
    return build_graph(g.n, marks, tuple(tau), g.alphabets)


def as_digraph(g, roots):
    d = nx.DiGraph()
    for v in range(g.n):
        d.add_node(v, label=(g.tau[v], tuple(i for i, r in enumerate(roots) if r == v)))
    for (u, v), x in g.xi.items():
        d.add_edge(u, v, x=x)
    return d


def nx_isomorphic(g, roots, h, roots_h):
    return nx.is_isomorphic(
        as_digraph(g, roots),
        as_digraph(h, roots_h),
        node_match=categorical_node_match("label", None),
        edge_match=categorical_edge_match("x", None),
    )


@pytest.mark.parametrize("name,g,singles", [pytest.param(*c, id=c[0]) for c in CASES])
def test_codes_are_relabelling_invariant_and_match_networkx(name, g, singles):
    rng = random.Random(name)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabelled(g, perm)
    for roots in root_tuples(g, singles, rng):
        moved = tuple(perm[r] for r in roots)
        assert canonical_code(g, roots) == canonical_code(h, moved), roots
    # every rooting of g against every rooting of its relabelled copy
    mine = rooted_classes(g)
    theirs = rooted_classes(h)
    for v in range(g.n):
        assert mine[v] == canonicalize(RootedMarkedGraph(g, v))
        for w in range(g.n):
            same = mine[v] == theirs[w]
            assert same == nx_isomorphic(g, (v,), h, (w,)), (v, w)
