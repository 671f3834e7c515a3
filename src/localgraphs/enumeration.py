"""Brute-force exact enumeration of graph classes at tiny n.

Ground truth for uniformity tests, the counting identity on marked graph
classes, and finite-n entropy estimates.  Everything here counts labeled
objects; enumeration order is deterministic (lexicographic over edge sets,
then mark assignments).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .errors import CapExceeded
from .graphs import DegreeSequence, MarkedGraph, build_graph
from .marks import CountVectors
from .measures import LocalMeasure, empirical_distribution

DEFAULT_VERTEX_CAP = 8


@dataclass
class EnumerationResult:
    """Exact count with a replayable member stream."""

    descriptor: str
    _factory: Callable[[], Iterator]
    _count: int | None = None

    def __iter__(self):
        return self._factory()

    @property
    def count(self) -> int:
        if self._count is None:
            self._count = sum(1 for _ in self._factory())
        return self._count


def multiset_permutations(items: list) -> Iterator[tuple]:
    """All distinct orderings of a multiset, in lexicographic order."""
    counts: dict = {}
    for it in items:
        counts[it] = counts.get(it, 0) + 1
    keys = sorted(counts)
    n = len(items)
    current: list = []

    def rec():
        if len(current) == n:
            yield tuple(current)
            return
        for k in keys:
            if counts[k] > 0:
                counts[k] -= 1
                current.append(k)
                yield from rec()
                current.pop()
                counts[k] += 1

    yield from rec()


def _edge_sets_with_degrees(ell: tuple[int, ...]) -> Iterator[frozenset[tuple[int, int]]]:
    """Backtracking over vertex pairs in lexicographic order."""
    n = len(ell)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    residual = list(ell)
    # remaining[k][v]: number of pairs with index >= k touching v
    remaining = [[0] * n for _ in range(len(pairs) + 1)]
    for k in range(len(pairs) - 1, -1, -1):
        i, j = pairs[k]
        for v in range(n):
            remaining[k][v] = remaining[k + 1][v] + (v == i) + (v == j)
    chosen: list[tuple[int, int]] = []

    def rec(k: int):
        if k == len(pairs):
            if all(r == 0 for r in residual):
                yield frozenset(chosen)
            return
        i, j = pairs[k]
        for v in range(n):
            if residual[v] > remaining[k][v]:
                return
        # include pair (i, j)
        if residual[i] > 0 and residual[j] > 0:
            residual[i] -= 1
            residual[j] -= 1
            chosen.append((i, j))
            yield from rec(k + 1)
            chosen.pop()
            residual[i] += 1
            residual[j] += 1
        yield from rec(k + 1)

    yield from rec(0)


def enumerate_graphs(ell: DegreeSequence, cap: int = DEFAULT_VERTEX_CAP) -> EnumerationResult:
    """All simple labeled graphs with the exact degree sequence."""
    if ell.n > cap:
        raise CapExceeded(f"n={ell.n} exceeds cap {cap}")

    def factory():
        for edges in _edge_sets_with_degrees(ell.ell):
            yield build_graph(ell.n, {e: ("-", "-") for e in edges})

    return EnumerationResult(f"G(ell={ell.ell})", factory)


def _edge_sets_with_count(n: int, m: int) -> Iterator[frozenset[tuple[int, int]]]:
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    from itertools import combinations

    for chosen in combinations(pairs, m):
        yield frozenset(chosen)


def _marked_variants(
    edges: frozenset[tuple[int, int]], cv: CountVectors
) -> Iterator[MarkedGraph]:
    """All mark assignments of a fixed edge set matching the count vectors."""
    ab = cv.alphabets
    n = cv.u_norm
    vertex_pool = [t for t in ab.theta for _ in range(cv.u[t] if t in cv.u else 0)]
    pair_pool = [p for p, c in sorted(cv.m_leq.items()) for _ in range(c)]
    edge_list = sorted(edges)

    def orientations(assignment: tuple[tuple[str, str], ...]) -> Iterator[dict]:
        def rec(idx: int, marks: dict):
            if idx == len(edge_list):
                yield dict(marks)
                return
            (u, v) = edge_list[idx]
            x, xp = assignment[idx]
            marks[(u, v)] = (x, xp)
            yield from rec(idx + 1, marks)
            if x != xp:
                marks[(u, v)] = (xp, x)
                yield from rec(idx + 1, marks)
            del marks[(u, v)]

        yield from rec(0, {})

    for tau in multiset_permutations(vertex_pool):
        for assignment in multiset_permutations(pair_pool):
            for marks in orientations(assignment):
                yield build_graph(n, marks, tau, ab)


def enumerate_marked(
    ell: DegreeSequence,
    cv: CountVectors,
    cap: int = DEFAULT_VERTEX_CAP,
) -> EnumerationResult:
    """All marked graphs with degrees ell and mark count vectors (m, u)."""
    if ell.n > cap:
        raise CapExceeded(f"n={ell.n} exceeds cap {cap}")
    if cv.u_norm != ell.n:
        return EnumerationResult("empty (||u|| != n)", lambda: iter(()))
    if cv.m_norm != ell.edge_count:
        return EnumerationResult("empty (||m|| != edge count)", lambda: iter(()))

    def factory():
        for edges in _edge_sets_with_degrees(ell.ell):
            yield from _marked_variants(edges, cv)

    return EnumerationResult(f"barG(ell={ell.ell})_(m,u)", factory)


def enumerate_marked_counts(
    n: int, cv: CountVectors, cap: int = DEFAULT_VERTEX_CAP
) -> EnumerationResult:
    """All marked graphs on [n] with the given count vectors (any degrees)."""
    if n > cap:
        raise CapExceeded(f"n={n} exceeds cap {cap}")
    if cv.u_norm != n:
        return EnumerationResult("empty (||u|| != n)", lambda: iter(()))

    def factory():
        for edges in _edge_sets_with_count(n, cv.m_norm):
            yield from _marked_variants(edges, cv)

    return EnumerationResult(f"barG_(m,u) on [{n}]", factory)


def type_class_size(counts: list[int]) -> int:
    """Multinomial coefficient (sum counts)! / prod counts!."""
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def marked_class_size_formula(ell: DegreeSequence, cv: CountVectors, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """|G(ell)| * |T(u)| * |T(m)| * 2^(off-diagonal edges), the product form."""
    g_count = enumerate_graphs(ell, cap).count
    t_u = type_class_size(sorted(cv.u.values()))
    t_m = type_class_size(sorted(cv.m_leq.values()))
    return g_count * t_u * t_m * 2 ** cv.off_diagonal_total


def degree_law_of(g: MarkedGraph) -> dict[int, Fraction]:
    law: dict[int, Fraction] = {}
    for v in range(g.n):
        d = g.degree(v)
        law[d] = law.get(d, Fraction(0)) + Fraction(1, g.n)
    return law


def count_ball_restricted(
    n: int,
    cv: CountVectors,
    mu: LocalMeasure,
    eps: Fraction,
    degree_law: dict[int, Fraction] | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> int:
    """Members of the (m, u) class with d_LP(U(G), mu) < eps, exactly.

    ``degree_law`` optionally restricts to graphs whose empirical degree
    distribution equals the given law.
    """
    from .lp_distance import levy_prokhorov

    total = 0
    for g in enumerate_marked_counts(n, cv, cap):
        if degree_law is not None and degree_law_of(g) != degree_law:
            continue
        if levy_prokhorov(empirical_distribution(g), mu) < eps:
            total += 1
    return total


def finite_entropy_estimate(
    n: int,
    cv: CountVectors,
    mu: LocalMeasure,
    eps: Fraction,
    degree_law: dict[int, Fraction] | None = None,
    cap: int = DEFAULT_VERTEX_CAP,
) -> float:
    """(log count - ||m|| log n) / n, the n-th term of the entropy limsup."""
    count = count_ball_restricted(n, cv, mu, eps, degree_law, cap)
    if count == 0:
        return float("-inf")
    return (math.log(count) - cv.m_norm * math.log(n)) / n


def count_Nk(gamma_ref: MarkedGraph, cv: CountVectors, k: int, cap: int = DEFAULT_VERTEX_CAP) -> int:
    """Members of the (m, u) class whose depth-k empirical law, read off
    depth-k balls, matches gamma_ref's."""
    ref = empirical_distribution(gamma_ref, depth=k)
    total = 0
    for g in enumerate_marked_counts(gamma_ref.n, cv, cap):
        if empirical_distribution(g, depth=k) == ref:
            total += 1
    return total
