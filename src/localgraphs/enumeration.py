"""Brute-force exact enumeration of graph classes at tiny n.

Ground truth for uniformity tests and the counting identity on marked graph
classes.  Everything here counts labeled objects; enumeration order is
deterministic (lexicographic over edge sets, then mark assignments).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import CapExceeded
from .graphs import DegreeSequence, MarkedGraph, build_graph
from .marks import CountVectors

DEFAULT_VERTEX_CAP = 8


@dataclass
class EnumerationResult:
    """Exact count with a replayable member stream."""

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

    return EnumerationResult(factory)


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
    vertex_pool = [t for t in ab.theta for _ in range(cv.u[t])]
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
    if cv.u_norm != ell.n or cv.m_norm != ell.edge_count:
        return EnumerationResult(lambda: iter(()))

    def factory():
        for edges in _edge_sets_with_degrees(ell.ell):
            yield from _marked_variants(edges, cv)

    return EnumerationResult(factory)


def enumerate_marked_counts(n: int, cv: CountVectors) -> EnumerationResult:
    """All marked graphs on [n] with the given count vectors (any degrees)."""
    if n > DEFAULT_VERTEX_CAP:
        raise CapExceeded(f"n={n} exceeds cap {DEFAULT_VERTEX_CAP}")
    if cv.u_norm != n:
        return EnumerationResult(lambda: iter(()))

    def factory():
        for edges in _edge_sets_with_count(n, cv.m_norm):
            yield from _marked_variants(edges, cv)

    return EnumerationResult(factory)


def type_class_size(counts: list[int]) -> int:
    """Multinomial coefficient (sum counts)! / prod counts!."""
    total = sum(counts)
    out = math.factorial(total)
    for c in counts:
        out //= math.factorial(c)
    return out


def marked_class_size_formula(ell: DegreeSequence, cv: CountVectors) -> int:
    """|G(ell)| * |T(u)| * |T(m)| * 2^(off-diagonal edges), the product form."""
    g_count = enumerate_graphs(ell).count
    t_u = type_class_size(sorted(cv.u.values()))
    t_m = type_class_size(sorted(cv.m_leq.values()))
    return g_count * t_u * t_m * 2 ** cv.off_diagonal_total
