"""Exact Levy-Prokhorov distance between finitely supported measures.

d_LP is the least eps at which the worst-case excess max_A [mu(A) - nu(A^eps)]
is at most eps.  In general that excess is one minus a maximum flow over the
atom pairs within eps.  But the local distance 1/(1 + j), with j the first
radius at which two rooted graphs differ, is an ultrametric: if a, b agree to
radius r and b, c agree to radius r, then a, c agree to radius r.  So the pairs
within 1/(2 + r) are exactly those with equal depth-r classes, the admissible
graph is a disjoint union of complete blocks, one per depth-r class C, and
1 - maxflow = sum over C of (mu(C) - nu(C))^+ = e_r, the d_TV between the
depth-r truncations.  Threshold 0 gives d_TV, which is at most 1, and a
threshold that no pair realizes never lowers the minimum, since the excess is
constant between realized distances.  Hence d_LP = min(d_TV, min over r of
max(1/(2 + r), e_r)), with r below the largest eccentricity among the atoms.

Depth-(r + 1) classes refine depth-r classes, so e_r never decreases as r
grows, while 1/(2 + r) falls.  ``levy_prokhorov`` therefore scans r = 0, 1,
2, ... upward from best = d_TV.  It stops at the first r with
e_r >= 1/(2 + r): every larger r' has max(1/(2 + r'), e_r') >= e_r', which
is at least e_r = max(1/(2 + r), e_r).  It skips any r with 1/(2 + r) >= best,
whose term cannot lower best; should such an r already have met the stop
rule, every later term is at least e_r >= 1/(2 + r) >= best, and the first
later r that is summed stops the scan.  All arithmetic is exact: the mass
sums run on integer numerators over the common denominator of both
measures' weights, and each distance is divided into a ``Fraction`` once.
"""
from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction

from .canonical import CanonicalClass, EntryMemo, depth_class
from .graphs import MarkedGraph
from .measures import LocalMeasure, integer_weights


def max_flow(n: int, capacity: dict[tuple[int, int], Fraction], s: int, t: int) -> Fraction:
    """Edmonds-Karp with exact rational capacities on a small dense network;
    the general solver that the tests check ``levy_prokhorov`` against."""
    residual: dict[tuple[int, int], Fraction] = dict(capacity)
    adj: list[set[int]] = [set() for _ in range(n)]
    for (u, v) in capacity:
        adj[u].add(v)
        adj[v].add(u)
        residual.setdefault((v, u), Fraction(0))
    flow = Fraction(0)
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and residual.get((u, v), Fraction(0)) > 0:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        path = []
        v = t
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[e] for e in path)
        for (u, v) in path:
            residual[(u, v)] -= bottleneck
            residual[(v, u)] += bottleneck
        flow += bottleneck


def _half_l1(x: dict[CanonicalClass, int], y: dict[CanonicalClass, int], den: int) -> Fraction:
    """Half the L1 distance between two weight vectors of numerators over den."""
    return Fraction(sum([abs(x.get(k, 0) - y.get(k, 0)) for k in x.keys() | y.keys()]), 2 * den)


def total_variation(mu: LocalMeasure, nu: LocalMeasure) -> Fraction:
    """Exact d_TV = half the L1 distance between atom weight vectors."""
    den, (x, y) = integer_weights(mu.atoms, nu.atoms)
    return _half_l1(x, y, den)


def levy_prokhorov(mu: LocalMeasure, nu: LocalMeasure) -> Fraction:
    """Exact d_LP(mu, nu) for finitely supported measures on canonical classes,
    by the upward scan over r of the module docstring.

    Each atom is read where it lives: at its source (g, v, k) in a depth-k
    measure, or else at its rep's graph and root.  Its depth-r class is
    ``depth_class`` of v in g, over one entry memo per graph shared across
    atoms and radii, below the atom's eccentricity and the atom itself from
    there on, where truncation gives it back.  No rep is built.
    """
    den, (x, y) = integer_weights(mu.atoms, nu.atoms)
    best = _half_l1(x, y, den)
    # graph, root and eccentricity of each atom of either measure
    where: dict[CanonicalClass, tuple[MarkedGraph, int, int]] = {}
    for m in (mu, nu):
        for a in m.atoms:
            if a not in where:
                g, v, k = m.sources.get(a) or (m.rep(a).graph, m.rep(a).root, None)
                where[a] = (g, v, max(g.bfs_layers(v, k).values()))
    # the caller holds every graph for the whole call, so id(g) names one graph
    memos: dict[int, EntryMemo] = {}
    for r in range(max(ecc for _, _, ecc in where.values())):
        eps = Fraction(1, 2 + r)
        if eps >= best:
            continue
        cls = {
            a: a if r >= ecc else depth_class(g, -1, v, r, memos.setdefault(id(g), {}))
            for a, (g, v, ecc) in where.items()
        }
        masses = []
        for m in (x, y):
            out: dict[CanonicalClass, int] = defaultdict(int)
            for a, w in m.items():
                out[cls[a]] += w
            masses.append(out)
        excess = _half_l1(*masses, den)
        best = min(best, max(eps, excess))
        if excess >= eps:
            break
    return best
