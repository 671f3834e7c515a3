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
All arithmetic is rational.
"""
from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction

from .canonical import CanonicalClass, radius_profile
from .measures import LocalMeasure


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


def _half_l1(x: dict[CanonicalClass, Fraction], y: dict[CanonicalClass, Fraction]) -> Fraction:
    keys = set(x) | set(y)
    return sum((abs(x.get(k, 0) - y.get(k, 0)) for k in keys), Fraction(0)) / 2


def total_variation(mu: LocalMeasure, nu: LocalMeasure) -> Fraction:
    """Exact d_TV = half the L1 distance between atom weight vectors."""
    return _half_l1(mu.atoms, nu.atoms)


def levy_prokhorov(mu: LocalMeasure, nu: LocalMeasure) -> Fraction:
    """Exact d_LP(mu, nu) for finitely supported measures on canonical classes."""
    # one radius profile per atom; entry min(r, len - 1) is the depth-r class
    profile = {a: radius_profile(mu.rep(a), a) for a in mu.support()}
    profile.update((b, radius_profile(nu.rep(b), b)) for b in nu.support() if b not in profile)

    def at_depth(m: LocalMeasure, r: int) -> dict[CanonicalClass, Fraction]:
        out: dict[CanonicalClass, Fraction] = defaultdict(Fraction)
        for a, w in m.atoms.items():
            out[profile[a][min(r, len(profile[a]) - 1)]] += w
        return out

    best = total_variation(mu, nu)
    for r in range(max(len(p) for p in profile.values()) - 1):
        eps, excess = Fraction(1, 2 + r), _half_l1(at_depth(mu, r), at_depth(nu, r))
        best = min(best, max(eps, excess))
        if excess >= eps:
            # e_r only grows with r while 1/(2 + r) shrinks
            break
    return best
