"""Exact Levy-Prokhorov distance between finitely supported measures.

For finite supports the two-sided inequality over all Borel sets reduces to a
finite feasibility problem.  The worst-case excess max_A [mu(A) - nu(A^eps)]
equals one minus a maximum flow on the bipartite atom graph whose admissible
edges are the pairs within distance eps, and the excess is piecewise constant
between consecutive pairwise-distance values, so the infimum is found by an
exact scan over those intervals.  All arithmetic is rational.
"""
from __future__ import annotations

from collections import deque
from fractions import Fraction

from .canonical import profile_distance, radius_profile
from .measures import LocalMeasure


def max_flow(n: int, capacity: dict[tuple[int, int], Fraction], s: int, t: int) -> Fraction:
    """Edmonds-Karp with exact rational capacities on a small dense network."""
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


def _excess(
    mu_w: list[Fraction],
    nu_w: list[Fraction],
    dist: list[list[Fraction]],
    threshold: Fraction,
) -> Fraction:
    """max over sets A of mu(A) - nu(A-enlarged), pairs admissible at d <= threshold.

    Symmetric in the two measures because the admissible relation is.
    """
    p, q = len(mu_w), len(nu_w)
    s, t = p + q, p + q + 1
    cap: dict[tuple[int, int], Fraction] = {}
    big = Fraction(2)  # exceeds total mass, acts as infinity
    for i in range(p):
        cap[(s, i)] = mu_w[i]
        for j in range(q):
            if dist[i][j] <= threshold:
                cap[(i, p + j)] = big
    for j in range(q):
        cap[(p + j, t)] = nu_w[j]
    return Fraction(1) - max_flow(p + q + 2, cap, s, t)


def total_variation(mu: LocalMeasure, nu: LocalMeasure) -> Fraction:
    """Exact d_TV = half the L1 distance between atom weight vectors."""
    keys = set(mu.atoms) | set(nu.atoms)
    return sum(
        (abs(mu.atoms.get(k, Fraction(0)) - nu.atoms.get(k, Fraction(0))) for k in keys),
        Fraction(0),
    ) / 2


def levy_prokhorov(mu: LocalMeasure, nu: LocalMeasure) -> Fraction:
    """Exact d_LP(mu, nu) for finitely supported measures on canonical classes."""
    mu_atoms = mu.support()
    nu_atoms = nu.support()
    mu_w = [mu.atoms[a] for a in mu_atoms]
    nu_w = [nu.atoms[a] for a in nu_atoms]
    # one radius profile per atom: p + q profiles rather than p * q distances
    profile = {a: radius_profile(mu.rep(a), a) for a in mu_atoms}
    profile.update((b, radius_profile(nu.rep(b), b)) for b in nu_atoms if b not in profile)
    dist = [[profile_distance(profile[a], profile[b]) for b in nu_atoms] for a in mu_atoms]
    values = sorted({Fraction(0)} | {d for row in dist for d in row})
    # excess is constant on each interval (values[i], values[i+1]]; the
    # feasible infimum on that interval is max(values[i], excess there).
    # Distances never exceed 1, so threshold 1 admits every pair and d_LP <= 1.
    best = Fraction(1)
    for v in values:
        e = _excess(mu_w, nu_w, dist, v)
        best = min(best, max(v, e))
        if e <= v:
            # larger thresholds only admit more pairs; no better candidate exists
            break
    return best
