"""The three benchmark workloads.

Each workload draws operation i from its own ``random.Random`` seeded by
(workload, seed, i), so operations come in seed order, none is filtered or
re-seeded, and the traced second run of an operation repeats its work exactly.
Operation sizes follow a fixed cycle; only the graphs and the random draws
depend on the seed, which keeps the work per run steady across seeds.

Package functions are always looked up through their module at call time
(``measures.empirical_distribution``), so the traced run's wrappers see them.

Checks run outside the timed region and never compare against seeded
outputs: the samplers may consume random numbers differently in a later
version and still be correct.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from localgraphs import canonical, colored, graphs, lp_distance, measures, samplers, surgery
from localgraphs.errors import AttemptsExhausted

from inputs import (
    alpha_profile,
    cycle_edges,
    disjoint_union,
    k33_edges,
    random_bounded_tree,
    random_cyclic_components,
    relabel,
    windmill_edges,
    AB2,
)


class CheckFailed(Exception):
    """An operation's output violates a property the package guarantees."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def op_rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def spread_order(values) -> tuple:
    """The sorted values reordered so that every prefix of the cycle spreads
    over their whole range: position m takes the rank of the base-2 radical
    inverse of m.  A run ends part-way through a cycle, and how far it gets
    depends on the machine's speed; with sizes in rising order a slow run
    would also be a run of smaller operations."""
    def radical_inverse(m: int) -> float:
        r, f = 0.0, 0.5
        while m:
            r, m, f = r + f * (m & 1), m >> 1, f / 2
        return r

    ordered = sorted(values)
    by_key = sorted(range(len(ordered)), key=radical_inverse)
    out = [None] * len(ordered)
    for rank, m in enumerate(by_key):
        out[m] = ordered[rank]
    return tuple(out)


# --- surgery ----------------------------------------------------------------

#: Attempt cap passed to modify_graph.  An operation rebuilds a tree on its
#: own degree sequence, which the tree itself realizes with no cycle at all,
#: so every operation can succeed; accepted draws here need at most about 30
#: attempts (k = 1) or 2 (k = 2).
SURGERY_MAX_ATTEMPTS = 2000
#: Tree sizes cycled through at each depth; k=1 and k=2 operations alternate.
#: Sizes step finely so that latency percentiles do not sit in a gap between
#: a few size classes.
SURGERY_SIZES = {1: spread_order(range(40, 101, 5)), 2: spread_order(range(60, 101, 5))}
#: Raising one leaf of a depth-2 tree to degree 3 (criterion 8's target)
#: exhausts any cap on some trees: transport leaves a colored sequence whose
#: forced pairings close a cycle of length at most 5.  Such an operation would
#: fail at a random point of a timed run, so it is not an operation here; the
#: traced run counts these exhaustions on a fixed probe of PROBE_SIZE trees.
PROBE_SIZE = 16
PROBE_MAX_ATTEMPTS = 50


@dataclass(frozen=True)
class SurgeryOp:
    k: int
    gamma: graphs.MarkedGraph
    ell: graphs.DegreeSequence
    rng_seed: int


def surgery_op(seed: int, i: int) -> SurgeryOp:
    """Depth-k reconstruction: modify_graph onto the tree's own degrees."""
    rng = op_rng("surgery", seed, i)
    k = 1 + i % 2
    sizes = SURGERY_SIZES[k]
    n = sizes[(i // 2) % len(sizes)]
    gamma = random_bounded_tree(rng, n)
    return SurgeryOp(k, gamma, graphs.DegreeSequence(gamma.degrees()), rng.getrandbits(64))


def raise_leaf_op(seed: int, j: int) -> SurgeryOp:
    rng = op_rng("surgery-probe", seed, j)
    sizes = SURGERY_SIZES[2]
    n = sizes[j % len(sizes)]
    gamma = random_bounded_tree(rng, n)
    ell = list(gamma.degrees())
    leaf = rng.choice([v for v in range(n) if ell[v] == 1])
    ell[leaf] = 3  # one leaf raised to degree 3; the total stays even
    return SurgeryOp(2, gamma, graphs.DegreeSequence(tuple(ell)), rng.getrandbits(64))


def raise_leaf_probe(seed: int) -> int:
    """How many of the seed's PROBE_SIZE leaf-raising surgeries exhaust
    PROBE_MAX_ATTEMPTS; the others must meet surgery's guarantees."""
    exhausted = 0
    for j in range(PROBE_SIZE):
        op = raise_leaf_op(seed, j)
        try:
            rebuilt, report = surgery.modify_graph(
                op.gamma, op.ell, op.k, random.Random(op.rng_seed), max_attempts=PROBE_MAX_ATTEMPTS
            )
        except AttemptsExhausted:
            exhausted += 1
            continue
        require(
            report.degree_exact and rebuilt.degrees() == op.ell.ell,
            "surgery probe: rebuilt degrees differ from target",
        )
        require(
            report.modified_vertices <= report.propagated_bound,
            f"surgery probe: {report.modified_vertices} modified > bound {report.propagated_bound}",
        )
    return exhausted


def surgery_run(op: SurgeryOp):
    """The CLI surgery job plus its displacement readout.  The target is the
    tree's own degree sequence, so the checks below demand an exact
    reconstruction: no modified vertex and d_TV = 0."""
    rng = random.Random(op.rng_seed)
    rebuilt, report = surgery.modify_graph(
        op.gamma, op.ell, op.k, rng, max_attempts=SURGERY_MAX_ATTEMPTS
    )
    before = measures.truncate_measure(measures.empirical_distribution(op.gamma), op.k)
    after = measures.truncate_measure(measures.empirical_distribution(rebuilt), op.k)
    return rebuilt, report, lp_distance.total_variation(after, before)


def surgery_check(op: SurgeryOp, out) -> tuple:
    rebuilt, report, tv = out
    n = op.gamma.n
    require(report.degree_exact, "surgery: report says degrees are not exact")
    require(rebuilt.degrees() == op.ell.ell, "surgery: rebuilt degrees differ from target")
    require(
        report.modified_vertices <= report.propagated_bound,
        f"surgery: {report.modified_vertices} modified > bound {report.propagated_bound}",
    )
    require(
        tv <= Fraction(report.modified_vertices, n),
        f"surgery: d_TV {tv} > modified/n = {report.modified_vertices}/{n}",
    )
    return (report.modified_vertices, report.attempts, tv)


# --- local-stats ------------------------------------------------------------

#: Vertex counts of the sparse marked part, cycled through; it is split into
#: unicyclic components of 7 to 10 vertices.
SPARSE_SIZES = spread_order(range(20, 31))
#: Triangles per windmill, cycled through; the windmill's centre is where the
#: individualization-refinement search branches most.
WINDMILL_SIZES = (2, 3)


@dataclass(frozen=True)
class LocalStatsOp:
    a: graphs.MarkedGraph
    b: graphs.MarkedGraph
    depth: int
    perm: tuple[int, ...]  # random relabelling of a's vertices
    probes: tuple[int, ...]  # vertices of a whose classes must survive it
    #: LP(mu, mu) = 0 costs as much as the operation's own LP distance, so it
    #: is checked on every eighth operation only.
    check_self_distance: bool


def _mixed_graph(
    rng: random.Random, blocks: tuple[int, ...], components: list
) -> tuple[graphs.MarkedGraph, int]:
    """Random marked unicyclic components of the given sizes plus the given
    unmarked components; also returns the first unmarked vertex."""
    n = sum(blocks)
    marks = random_cyclic_components(rng, blocks)
    tau = tuple(rng.choice(AB2.theta) for _ in range(n))
    return disjoint_union(n, marks, tau, components), n


def local_stats_op(seed: int, i: int) -> LocalStatsOp:
    rng = op_rng("local-stats", seed, i)
    windmill = WINDMILL_SIZES[i % 2]
    depth = 1 + (i // 2) % 2
    n = SPARSE_SIZES[(i // 4) % len(SPARSE_SIZES)]
    parts = n // 7
    blocks = tuple(n // parts + (j < n % parts) for j in range(parts))
    a, centre = _mixed_graph(rng, blocks, [windmill_edges(windmill), cycle_edges(rng.randint(3, 8))])
    b, _ = _mixed_graph(rng, blocks, [k33_edges(), cycle_edges(rng.randint(3, 8))])
    perm = list(range(a.n))
    rng.shuffle(perm)
    probes = (centre, rng.randrange(centre))
    return LocalStatsOp(a, b, depth, tuple(perm), probes, i % 8 == 7)


def local_stats_run(op: LocalStatsOp):
    mu = measures.empirical_distribution(op.a)
    nu = measures.empirical_distribution(op.b)
    unimodular = measures.check_unimodular(mu).holds
    mu_k = measures.truncate_measure(mu, op.depth)
    nu_k = measures.truncate_measure(nu, op.depth)
    lp = lp_distance.levy_prokhorov(mu_k, nu_k)
    tv = lp_distance.total_variation(mu_k, nu_k)
    return unimodular, mu_k, lp, tv


def local_stats_check(op: LocalStatsOp, out) -> tuple:
    unimodular, mu_k, lp, tv = out
    require(unimodular, "local-stats: U(G) failed the mass-transport check")
    require(lp <= tv, f"local-stats: d_LP {lp} > d_TV {tv}")
    if op.check_self_distance:
        require(lp_distance.levy_prokhorov(mu_k, mu_k) == 0, "local-stats: d_LP(mu, mu) != 0")
    moved = relabel(op.a, list(op.perm))
    for v in op.probes:
        before = canonical.canonicalize(graphs.rooted_component(op.a, v))
        after = canonical.canonicalize(graphs.rooted_component(moved, op.perm[v]))
        require(before == after, f"local-stats: class of vertex {v} changed under relabelling")
    return (len(mu_k.atoms), lp, tv)


# --- sampling ---------------------------------------------------------------

#: Girth-filter trials per estimate_alpha_h batch.
ALPHA_TRIALS = 200
#: (n, h) of the criterion-9 profile batches, cycled through.  Sizes step
#: finely so that latency percentiles do not sit in a gap between a few
#: size classes.
ALPHA_CASES = spread_order((n, h) for n in range(200, 801, 100) for h in (3, 5))
#: Vertex counts of the 3-regular pairing-sampler calls, cycled through.
PAIRING_SIZES = spread_order(range(1000, 2001, 200))
#: Wilson intervals for the cross-n overlap check are at z = 3.29, so that the
#: 42 interval pairs of a run overlap by chance with probability above 0.999.
WILSON_Z = 3.29


@dataclass(frozen=True)
class AlphaOp:
    n: int
    h: int
    profile: colored.ColoredDegreeSequence
    rng_seed: int


@dataclass(frozen=True)
class PairingOp:
    ell: graphs.DegreeSequence
    rng_seed: int


def sampling_op(seed: int, i: int):
    """Even operations are alpha batches, odd ones pairing-sampler calls."""
    rng = op_rng("sampling", seed, i)
    if i % 2 == 0:
        n, h = ALPHA_CASES[(i // 2) % len(ALPHA_CASES)]
        return AlphaOp(n, h, alpha_profile(n), rng.getrandbits(64))
    n = PAIRING_SIZES[(i // 2) % len(PAIRING_SIZES)]
    return PairingOp(graphs.DegreeSequence((3,) * n), rng.getrandbits(64))


def sampling_run(op):
    rng = random.Random(op.rng_seed)
    if isinstance(op, AlphaOp):
        return colored.estimate_alpha_h(op.profile, op.h, ALPHA_TRIALS, rng)
    return samplers.sample_uniform_graph(op.ell, rng)


def sampling_check(op, out) -> tuple:
    if isinstance(op, AlphaOp):
        require(
            out.trials == ALPHA_TRIALS and 0 <= out.successes <= out.trials,
            f"sampling: bad alpha batch {out}",
        )
        return ("alpha", op.n, op.h, out.successes, out.trials)
    g = out
    require(g.n == op.ell.n, "sampling: wrong vertex count")
    require(all(u < v for (u, v) in g.edges), "sampling: loop or unordered edge")
    require(len(g.edges) == op.ell.edge_count, "sampling: wrong edge count")
    require(g.degrees() == op.ell.ell, "sampling: degrees differ from the request")
    return ("pairing", g.n)


def wilson(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return centre - half, centre + half


def sampling_check_run(summaries: list[tuple]):
    """For each h, the pooled alpha intervals overlap across n."""
    pooled: dict[tuple[int, int], list[int]] = {}
    for s in summaries:
        if s[0] == "alpha":
            _, n, h, successes, trials = s
            acc = pooled.setdefault((h, n), [0, 0])
            acc[0] += successes
            acc[1] += trials
    for h in sorted({h for h, _ in pooled}):
        intervals = {n: wilson(*pooled[(hh, n)]) for hh, n in pooled if hh == h}
        for (n1, a), (n2, b) in combinations(sorted(intervals.items()), 2):
            require(
                max(a[0], b[0]) <= min(a[1], b[1]),
                f"sampling: alpha_{h} intervals at n={n1} {a} and n={n2} {b} are disjoint",
            )


@dataclass(frozen=True)
class Workload:
    make_op: object
    run: object
    check: object
    check_run: object = None
    #: seed -> count of probe instances that exhaust; traced runs only
    probe: object = None


WORKLOADS = {
    "surgery": Workload(surgery_op, surgery_run, surgery_check, probe=raise_leaf_probe),
    "local-stats": Workload(local_stats_op, local_stats_run, local_stats_check),
    "sampling": Workload(sampling_op, sampling_run, sampling_check, sampling_check_run),
}
