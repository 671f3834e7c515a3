"""Seeded input generators for the benchmark workloads.

The generators live here, not in ``localgraphs.verify``, so that refactoring
the verify suites cannot move the workloads.  Each takes an explicit
``random.Random`` and uses only the package's public constructors.
"""
from __future__ import annotations

import random

from localgraphs.colored import ColorSet, ColoredDegreeSequence
from localgraphs.graphs import MarkAlphabets, MarkedGraph, build_graph

#: Two vertex marks and two edge marks, as in the verify suites.
AB2 = MarkAlphabets(("s", "t"), ("a", "b"))


def random_bounded_tree(rng: random.Random, n: int, max_degree: int = 3) -> MarkedGraph:
    """Random recursive tree on n vertices with degrees at most max_degree."""
    marks = {}
    degree = [0] * n
    available = [0]
    for v in range(1, n):
        u = rng.choice(available)
        marks[(u, v)] = (rng.choice(AB2.xi), rng.choice(AB2.xi))
        degree[u] += 1
        degree[v] += 1
        if degree[u] >= max_degree:
            available.remove(u)
        available.append(v)
    tau = tuple(rng.choice(AB2.theta) for _ in range(n))
    return build_graph(n, marks, tau, AB2)


def random_cyclic_components(rng: random.Random, sizes: tuple[int, ...]) -> dict:
    """Edge marks of disjoint random connected components, one per size.

    Each is a random recursive tree plus one chord, so it holds exactly one
    cycle.  Fixed sizes keep the cost of an operation steady, which random
    sparse graphs with a giant component of random size do not.
    """
    marks = {}
    base = 0
    for size in sizes:
        edges = {(rng.randrange(v), v) for v in range(1, size)}
        chords = [(u, v) for u in range(size) for v in range(u + 1, size) if (u, v) not in edges]
        edges.add(rng.choice(chords))
        for (u, v) in sorted(edges):
            marks[(base + u, base + v)] = (rng.choice(AB2.xi), rng.choice(AB2.xi))
        base += size
    return marks


def alpha_profile(n: int) -> ColoredDegreeSequence:
    """Criterion-9 profile: even vertices carry a diagonal loop color of
    degree 2, odd vertices one half-edge of each conjugate off-diagonal color."""
    colors = ColorSet((("a", b"t0"), ("b", b"t1")))
    maps = []
    for v in range(n):
        if v % 2 == 0:
            maps.append({(0, 0): 2})
        else:
            maps.append({(0, 1): 1, (1, 0): 1})
    return ColoredDegreeSequence.from_maps(colors, maps)


# --- symmetric families, unmarked so that every automorphism survives -------


def cycle_edges(m: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % m) for i in range(m)]


def k33_edges() -> list[tuple[int, int]]:
    return [(i, j) for i in range(3) for j in range(3, 6)]


def windmill_edges(triangles: int) -> list[tuple[int, int]]:
    """Triangles sharing vertex 0: blades (2i+1, 2i+2) each joined to 0."""
    edges = []
    for i in range(triangles):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return edges


def disjoint_union(
    n: int, marks: dict, tau: tuple[str, ...], components: list[list[tuple[int, int]]]
) -> MarkedGraph:
    """Append each component (an edge list on 0..m-1) after the first n vertices.

    Appended components carry the first vertex and edge mark throughout.
    """
    marks = dict(marks)
    tau = list(tau)
    x, t = AB2.xi[0], AB2.theta[0]
    for edges in components:
        size = 1 + max(max(e) for e in edges)
        for (u, v) in edges:
            marks[(n + u, n + v)] = (x, x)
        tau += [t] * size
        n += size
    return build_graph(n, marks, tuple(tau), AB2)


def relabel(g: MarkedGraph, perm: list[int]) -> MarkedGraph:
    """The same marked graph with vertex v renamed perm[v]."""
    marks = {(perm[u], perm[v]): (g.xi[(u, v)], g.xi[(v, u)]) for (u, v) in g.edges}
    tau = [""] * g.n
    for v in range(g.n):
        tau[perm[v]] = g.tau[v]
    return build_graph(g.n, marks, tuple(tau), g.alphabets)
