"""End-to-end verification suites.

Each suite exercises one of the headline finite identities or property
batteries and returns (passed, short detail string); ``run_suites`` times
them.  The suites are deterministic: every randomized batch runs from a
fixed seed.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .canonical import local_distance
from .colored import ColorSet, ColoredDegreeSequence, estimate_alpha_h
from .enumeration import enumerate_marked, enumerate_marked_counts, marked_class_size_formula
from .errors import CountMismatch
from .graphs import (
    DegreeSequence,
    MarkAlphabets,
    MarkedGraph,
    RootedMarkedGraph,
    build_graph,
    rooted_component,
)
from .lp_distance import levy_prokhorov
from .marks import CountVectors, ModelParams
from .measures import (
    LocalMeasure,
    empirical_distribution,
    check_unimodular,
    measure_from_pairs,
    project_unmarked,
    truncate_measure,
)
from .rates import (
    AverageDegreeVector,
    TaggedValue,
    measure_degree_stats,
    rate_I_PdQ,
    rate_lambda,
    s_value,
    s_vector,
    shannon_entropy,
)
from .samplers import (
    mixture_identity_check,
    sample_uniform_graph,
    sample_uniform_marked,
)
from .surgery import modify_graph
from .transport import (
    DegreeMatrix,
    TargetDegrees,
    change_bound,
    changed_columns,
    column_degrees,
    transport_general,
)

AB2 = MarkAlphabets(("s", "t"), ("a", "b"))
#: Suite sizes; with the fixed seeds they make each criterion's batch the same
#: on every run, so a criterion's detail string is reproducible.
UNIFORMITY_TRIALS = 100_000
LP_ORACLE_PAIRS = 200
UNIMODULARITY_GRAPHS = 500
RECONSTRUCTION_PAIRS = 50
TRANSPORT_INSTANCES = 1000
SURGERY_N = 200
ALPHA_TRIALS = 10_000


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


# --- 1: counting identity ---------------------------------------------------


def _counting_grid():
    """Instances (ell, cv) with n <= 6, degrees <= 3, tiny alphabets."""
    ab1 = MarkAlphabets(("s",), ("a",))
    grid = []

    def add(ell, theta_split, m_split, ab):
        ds = DegreeSequence(ell)
        n, e = ds.n, ds.edge_count
        if sum(theta_split) != n or sum(m_split) != e:
            raise CountMismatch(f"grid entry {ell}: mark splits do not match n and e")
        if len(ab.theta) == 1:
            u = {"s": n}
        else:
            u = {"s": theta_split[0], "t": theta_split[1]}
        grid.append((ds, CountVectors(ab, u, dict(zip(ab.xi_leq_pairs(), m_split)))))

    add((1, 1), (2,), (1,), ab1)
    add((1, 1), (1, 1), (1, 0, 0), AB2)
    add((1, 1), (1, 1), (0, 1, 0), AB2)
    add((1, 1), (2, 0), (0, 0, 1), AB2)
    add((2, 2, 2), (3,), (3,), ab1)
    add((2, 2, 2), (2, 1), (1, 1, 1), AB2)
    add((2, 2, 2), (0, 3), (0, 3, 0), AB2)
    add((1, 1, 1, 1), (4,), (2,), ab1)
    add((1, 1, 1, 1), (2, 2), (1, 1, 0), AB2)
    add((1, 1, 1, 1), (3, 1), (0, 2, 0), AB2)
    add((1, 1, 1, 1), (1, 3), (2, 0, 0), AB2)
    add((2, 1, 1), (2, 1), (1, 1, 0), AB2)
    add((2, 2, 1, 1), (2, 2), (1, 1, 1), AB2)
    add((2, 2, 1, 1), (4, 0), (3, 0, 0), AB2)
    add((3, 1, 1, 1), (2, 2), (1, 2, 0), AB2)
    add((3, 3, 2, 2), (2, 2), (2, 2, 1), AB2)
    add((2, 2, 2, 2), (2, 2), (2, 1, 1), AB2)
    add((2, 2, 2, 2, 2), (3, 2), (2, 2, 1), AB2)
    add((1, 1, 1, 1, 1, 1), (3, 3), (1, 1, 1), AB2)
    add((2, 2, 1, 1, 1, 1), (4, 2), (2, 1, 1), AB2)
    add((2, 2, 2, 2, 1, 1), (3, 3), (2, 2, 1), AB2)
    add((3, 2, 2, 2, 2, 1), (5, 1), (4, 1, 1), AB2)
    return grid


def suite_counting() -> tuple[bool, str]:
    grid = _counting_grid()
    failures = []
    for ell, cv in grid:
        enumerated = enumerate_marked(ell, cv).count
        formula = marked_class_size_formula(ell, cv)
        if enumerated != formula:
            failures.append((ell.ell, enumerated, formula))
    detail = f"{len(grid)} instances"
    if failures:
        detail += f"; first failure {failures[0]}"
    return not failures, detail


# --- 2: mixture identity ----------------------------------------------------


def suite_mixture() -> tuple[bool, str]:
    params2 = ModelParams(
        AB2,
        {"s": Fraction(1, 3), "t": Fraction(2, 3)},
        {"a": Fraction(1, 4), "b": Fraction(3, 4)},
    )
    r2 = mixture_identity_check(DegreeSequence((1, 1)), params2)
    params4 = ModelParams(
        AB2,
        {"s": Fraction(1, 2), "t": Fraction(1, 2)},
        {"a": Fraction(2, 5), "b": Fraction(3, 5)},
    )
    r4 = mixture_identity_check(DegreeSequence((1, 1, 1, 1)), params4)
    return r2.holds and r4.holds, (
        f"n=2: {r2.outcomes} outcomes, total {r2.total_probability}; "
        f"n=4: {r4.outcomes} outcomes, total {r4.total_probability}"
    )


# --- 3: sampler uniformity --------------------------------------------------


def _within_four_se(counts: dict, trials: int, k: int) -> tuple[bool, float]:
    p = 1 / k
    se = math.sqrt(p * (1 - p) / trials)
    worst = max(abs(c / trials - p) for c in counts.values())
    return len(counts) == k and worst < 4 * se, worst / se


def suite_uniformity() -> tuple[bool, str]:
    rng = random.Random(20240)
    ell = DegreeSequence((1, 1, 1, 1))
    counts: dict = {}
    for _ in range(UNIFORMITY_TRIALS):
        g = sample_uniform_graph(ell, rng)
        key = tuple(sorted(g.edges))
        counts[key] = counts.get(key, 0) + 1
    ok1, dev1 = _within_four_se(counts, UNIFORMITY_TRIALS, 3)

    cv = CountVectors(AB2, {"s": 1, "t": 1}, {("a", "b"): 1})
    ell2 = DegreeSequence((1, 1))
    marked_counts: dict = {}
    for _ in range(UNIFORMITY_TRIALS):
        g = sample_uniform_marked(ell2, cv, rng)
        key = (g.tau, tuple(sorted(g.xi.items())))
        marked_counts[key] = marked_counts.get(key, 0) + 1
    ok2, dev2 = _within_four_se(marked_counts, UNIFORMITY_TRIALS, 4)
    return ok1 and ok2, (
        f"plain: {len(counts)} outcomes, worst {dev1:.2f} se; "
        f"marked: {len(marked_counts)} outcomes, worst {dev2:.2f} se"
    )


# --- 4: LP metric against the subset oracle ---------------------------------


def lp_subset_oracle(mu: LocalMeasure, nu: LocalMeasure) -> Fraction:
    """d_LP by exhaustive subset enumeration; exponential, oracle use only."""
    mu_atoms = mu.support()
    nu_atoms = nu.support()
    dist = [
        [
            Fraction(0) if a == b else local_distance(mu.rep(a), nu.rep(b))
            for b in nu_atoms
        ]
        for a in mu_atoms
    ]
    values = sorted({Fraction(0)} | {d for row in dist for d in row})

    def worst_excess(threshold: Fraction) -> Fraction:
        worst = Fraction(0)
        p, q = len(mu_atoms), len(nu_atoms)
        for r in range(1, p + 1):
            for subset in combinations(range(p), r):
                mass = sum(mu.atoms[mu_atoms[i]] for i in subset)
                enlarged = Fraction(0)
                for j in range(q):
                    if any(dist[i][j] <= threshold for i in subset):
                        enlarged += nu.atoms[nu_atoms[j]]
                worst = max(worst, mass - enlarged)
        for r in range(1, q + 1):
            for subset in combinations(range(q), r):
                mass = sum(nu.atoms[nu_atoms[j]] for j in subset)
                enlarged = Fraction(0)
                for i in range(p):
                    if any(dist[i][j] <= threshold for j in subset):
                        enlarged += mu.atoms[mu_atoms[i]]
                worst = max(worst, mass - enlarged)
        return worst

    best = Fraction(1)  # distances never exceed 1, so threshold 1 admits every pair
    for v in values:
        e = worst_excess(v)
        best = min(best, max(v, e))
        if e <= v:
            break
    return best


def random_marked(
    rng: random.Random, n: int, p: float, alphabets: MarkAlphabets
) -> MarkedGraph:
    """G(n, p) with uniform marks: each pair u < v in turn is an edge with
    probability p and draws its two edge marks, then each vertex its mark."""
    marks = {}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                marks[(u, v)] = (rng.choice(alphabets.xi), rng.choice(alphabets.xi))
    tau = tuple(rng.choice(alphabets.theta) for _ in range(n))
    return build_graph(n, marks, tau, alphabets)


def random_rooted(rng: random.Random) -> RootedMarkedGraph:
    n = rng.randint(1, 5)
    return rooted_component(random_marked(rng, n, 0.5, AB2), rng.randrange(n))


def random_measure(rng: random.Random) -> LocalMeasure:
    size = rng.randint(1, 4)
    pairs = []
    weights = [Fraction(rng.randint(1, 9)) for _ in range(size)]
    total = sum(weights)
    for w in weights:
        pairs.append((random_rooted(rng), w / total))
    return measure_from_pairs(pairs)


def suite_lp_oracle() -> tuple[bool, str]:
    rng = random.Random(411)
    mismatches = 0
    for _ in range(LP_ORACLE_PAIRS):
        mu = random_measure(rng)
        nu = random_measure(rng)
        if levy_prokhorov(mu, nu) != lp_subset_oracle(mu, nu):
            mismatches += 1
    return mismatches == 0, f"{LP_ORACLE_PAIRS} pairs, {mismatches} mismatches"


# --- 5: unimodularity of empirical measures ---------------------------------


def random_sparse_graph(rng: random.Random, n: int) -> MarkedGraph:
    # sparse: expected degree about 1.4 keeps components small
    return random_marked(rng, n, 1.4 / max(1, n - 1), AB2)


def suite_unimodularity() -> tuple[bool, str]:
    rng = random.Random(977)
    bad = 0
    for _ in range(UNIMODULARITY_GRAPHS):
        g = random_sparse_graph(rng, rng.randint(2, 30))
        if not check_unimodular(empirical_distribution(g)).holds:
            bad += 1
    # point mass on a path rooted at a leaf: mass flows toward the leaf only
    path = build_graph(3, {(0, 1): ("-", "-"), (1, 2): ("-", "-")})
    point = measure_from_pairs([(RootedMarkedGraph(path, 0), Fraction(1))])
    report = check_unimodular(point)
    crafted_ok = (not report.holds) and report.witness is not None
    return bad == 0 and crafted_ok, (
        f"{UNIMODULARITY_GRAPHS} random graphs, {bad} failures; "
        f"crafted witness found: {crafted_ok}"
    )


# --- 6: reconstruction from colored samples ---------------------------------


def random_bounded_tree(rng: random.Random, n: int) -> MarkedGraph:
    """Random tree on n vertices, marked over AB2, with degrees at most 3."""
    marks = {}
    degree = [0] * n
    available = [0]
    for v in range(1, n):
        u = rng.choice(available)
        marks[(u, v)] = (rng.choice(AB2.xi), rng.choice(AB2.xi))
        degree[u] += 1
        degree[v] += 1
        if degree[u] >= 3:
            available.remove(u)
        available.append(v)
    tau = tuple(rng.choice(AB2.theta) for _ in range(n))
    return build_graph(n, marks, tau, AB2)


def suite_reconstruction() -> tuple[bool, str]:
    """Surgery onto the tree's own degrees must give back every depth-k class."""
    rng = random.Random(6021)
    failures = 0
    for trial in range(RECONSTRUCTION_PAIRS):
        k = 1 + trial % 2
        n = rng.randint(40, 120) if k == 2 else rng.randint(60, 300)
        g = random_bounded_tree(rng, n)
        _, report = modify_graph(g, DegreeSequence(g.degrees()), k, rng, 20_000)
        failures += report.modified_vertices != 0
    return failures == 0, f"{RECONSTRUCTION_PAIRS} pairs, {failures} failures"


# --- 7: transport postconditions --------------------------------------------


def _check_transport(A: DegreeMatrix, beta: TargetDegrees) -> bool:
    out = transport_general(A, beta)
    if column_degrees(out) != beta.beta:
        return False
    if out.max_entry() > max(beta.bound, A.max_entry()):
        return False
    return changed_columns(A, out) <= change_bound(A, beta)


def _random_even_row(rng: random.Random, n: int, L: int) -> list[int]:
    row = [rng.randint(0, L) for _ in range(n)]
    if sum(row) % 2:
        j = next((j for j in range(n) if row[j] > 0), 0)
        if row[j] > 0:
            row[j] -= 1
        else:
            row[j] += 1
    return row


def _random_pair_rows(rng: random.Random, n: int, L: int) -> list[list[int]]:
    r1 = [rng.randint(0, L) for _ in range(n)]
    r2 = [rng.randint(0, L) for _ in range(n)]
    # equalize the two row sums by trimming the heavier row
    while sum(r1) != sum(r2):
        hi = r1 if sum(r1) > sum(r2) else r2
        j = rng.randrange(n)
        if hi[j] > 0:
            hi[j] -= 1
    return [r1, r2]


def _perturb_target(rng: random.Random, deg: tuple[int, ...], s: int, M: int) -> TargetDegrees:
    beta = list(deg)
    n = len(beta)
    cols = rng.sample(range(1, n), min(s, n - 1))  # keep column 0 as an anchor
    for j in cols:
        beta[j] = rng.randint(0, M)
    if sum(beta) % 2:
        j = cols[0]
        beta[j] = beta[j] + 1 if beta[j] < M else beta[j] - 1
    return TargetDegrees(tuple(beta), max(max(beta), M))


def transport_instance(rng: random.Random, i: int) -> tuple[DegreeMatrix, TargetDegrees]:
    """Criterion 7's i-th instance: one diagonal row, one pair, or up to two
    of each, with a target that moves one to three columns off column 0."""
    n = rng.randint(6, 30)
    L = rng.randint(1, 4)
    if i % 3 == 0:
        A = DegreeMatrix(1, 0, (tuple(_random_even_row(rng, n, L)),))
    elif i % 3 == 1:
        A = DegreeMatrix(0, 1, tuple(map(tuple, _random_pair_rows(rng, n, L))))
    else:
        p, m = rng.randint(0, 2), rng.randint(0, 2)
        if p + m == 0:
            p = 1
        rows = [tuple(_random_even_row(rng, n, L)) for _ in range(p)]
        for _ in range(m):
            rows.extend(map(tuple, _random_pair_rows(rng, n, L)))
        A = DegreeMatrix(p, m, tuple(rows))
    return A, _perturb_target(rng, column_degrees(A), rng.randint(1, 3), L + 2)


def suite_transport() -> tuple[bool, str]:
    rng = random.Random(7301)
    failures = 0
    for i in range(TRANSPORT_INSTANCES):
        A, beta = transport_instance(rng, i)
        if not _check_transport(A, beta):
            failures += 1
    # worked 2x2 example: both row sums move from 2 to 3
    A = DegreeMatrix(0, 1, ((1, 1), (1, 1)))
    beta = TargetDegrees((2, 4), 4)
    out = transport_general(A, beta)
    example_ok = (
        column_degrees(out) == (2, 4)
        and sum(out.a[0]) == sum(out.a[1])
        and out.max_entry() <= 4
    )
    return failures == 0 and example_ok, (
        f"{TRANSPORT_INSTANCES} instances, {failures} failures; "
        f"worked example ok: {example_ok}"
    )


# --- 8: surgery pipeline ----------------------------------------------------


def suite_surgery() -> tuple[bool, str]:
    rng = random.Random(88)
    gamma = random_bounded_tree(rng, SURGERY_N)
    ell = list(gamma.degrees())
    leaf = next(v for v in range(SURGERY_N) if ell[v] == 1)
    ell[leaf] = 3  # raise one leaf's target degree; total stays even
    rebuilt, report = modify_graph(gamma, DegreeSequence(tuple(ell)), 1, rng)
    lp = levy_prokhorov(
        empirical_distribution(rebuilt, depth=1),
        empirical_distribution(gamma, depth=1),
    )
    displacement_ok = lp <= Fraction(report.modified_vertices, SURGERY_N)
    within_bound = report.modified_vertices <= report.propagated_bound
    return report.degree_exact and displacement_ok and within_bound, (
        f"modified {report.modified_vertices}/{SURGERY_N} (bound {report.propagated_bound}), "
        f"transport changed {report.transport_changed}, d_LP {lp}, "
        f"attempts {report.attempts}"
    )


# --- 9: girth-filter acceptance stays positive ------------------------------


def _alpha_profile(n: int) -> ColoredDegreeSequence:
    colors = ColorSet((("a", b"t0"), ("b", b"t1")))
    maps = []
    for v in range(n):
        if v % 2 == 0:
            maps.append({(0, 0): 2})
        else:
            maps.append({(0, 1): 1, (1, 0): 1})
    return ColoredDegreeSequence.from_maps(colors, maps)


def suite_alpha() -> tuple[bool, str]:
    rng = random.Random(933)
    estimates = []
    for n in (200, 400, 800):
        estimates.append(estimate_alpha_h(_alpha_profile(n), 3, ALPHA_TRIALS, rng))
    positive = all(e.estimate > 0 for e in estimates)
    overlap = all(
        max(a.low, b.low) <= min(a.high, b.high)
        for a, b in combinations(estimates, 2)
    )
    return positive and overlap, "; ".join(
        f"n={n}: {e.estimate:.4f} [{e.low:.4f}, {e.high:.4f}]"
        for n, e in zip((200, 400, 800), estimates)
    )


# --- 10: rate-function algebra ----------------------------------------------


def suite_rates() -> tuple[bool, str]:
    checks = []
    checks.append(abs(s_value(math.e)) < 1e-12)
    checks.append(abs(s_value(1) - 0.5) < 1e-12)
    checks.append(abs(shannon_entropy([0.5, 0.5]) - math.log(2)) < 1e-12)

    # a 4-cycle with constant marks: mean degree 2, mark laws forced
    ab1 = MarkAlphabets(("s",), ("a",))
    cycle = build_graph(
        4,
        {(0, 1): ("a", "a"), (1, 2): ("a", "a"), (2, 3): ("a", "a"), (0, 3): ("a", "a")},
        ("s",) * 4,
        ab1,
    )
    stats = measure_degree_stats(empirical_distribution(cycle))
    dvec = AverageDegreeVector({("a", "a"): Fraction(2)})
    sigma = TaggedValue(-1.0, "supplied")
    j1 = TaggedValue(0.25, "supplied")
    P = {2: Fraction(1)}
    vartheta = {"s": Fraction(1)}
    chi = {"a": Fraction(1)}
    lam = rate_lambda(P, vartheta, chi, dvec, sigma, j1, stats)
    base = rate_I_PdQ(
        j1,
        sigma,
        AverageDegreeVector(dict(stats.dvec)),
        stats.pi,
        project_unmarked(truncate_measure(stats.mu, 1)),
        P,
    )
    checks.append(abs(lam - base) < 1e-12)

    wrong_d = AverageDegreeVector({("a", "a"): Fraction(3)})
    checks.append(rate_lambda(P, vartheta, chi, wrong_d, sigma, j1, stats) == float("inf"))

    # class-size growth probe: normalized gap to H(Q) + s(d) shrinks with n
    ab = ab1
    target = shannon_entropy({"s": 1.0}) + s_vector(dvec)
    gaps = []
    for n in (4, 6, 8):
        count = math.comb(n * (n - 1) // 2, n)
        if n == 4:
            cv = CountVectors(ab, {"s": 4}, {("a", "a"): 4})
            checks.append(enumerate_marked_counts(4, cv).count == count)
        gaps.append(abs((math.log(count) - n * math.log(n)) / n - target))
    checks.append(gaps[0] >= gaps[1] >= gaps[2])

    return all(checks), (
        f"{sum(checks)}/{len(checks)} checks; gap sequence {[f'{g:.3f}' for g in gaps]}"
    )


#: criterion number -> (short name for ``--suite``, long name, suite)
SUITES = {
    1: ("counting", "counting identity", suite_counting),
    2: ("mixture", "mixture identity", suite_mixture),
    3: ("uniformity", "sampler uniformity", suite_uniformity),
    4: ("lp-oracle", "LP metric equals subset oracle", suite_lp_oracle),
    5: ("unimodularity", "unimodularity of U(G)", suite_unimodularity),
    6: ("reconstruction", "depth-k class reconstruction", suite_reconstruction),
    7: ("transport", "transport postconditions", suite_transport),
    8: ("surgery", "surgery pipeline", suite_surgery),
    9: ("alpha", "girth filter acceptance positive", suite_alpha),
    10: ("rates", "rate-function algebra", suite_rates),
}


def run_suites(numbers=None) -> list[CriterionResult]:
    """Run the numbered suites (all by default) in order, timing each."""
    results = []
    for i in sorted(SUITES) if numbers is None else sorted(numbers):
        _, name, suite = SUITES[i]
        t0 = time.monotonic()
        passed, detail = suite()
        results.append(CriterionResult(i, name, passed, detail, time.monotonic() - t0))
    return results


def format_result(r: CriterionResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"[{status}] criterion {r.number} ({r.name}): {r.detail} ({r.seconds:.1f}s)"
