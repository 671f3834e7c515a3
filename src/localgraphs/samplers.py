"""Random generation of graphs with a prescribed degree sequence.

Uniformity over simple graphs is obtained by configuration-model pairing
rejected until simple: every simple graph with the given degrees corresponds
to exactly prod_i ell_i! half-edge pairings, so conditioning on simplicity
preserves uniformity.  Failures are surfaced, never silently degraded.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .colored import filtered_pairings
from .enumeration import enumerate_graphs, type_class_size
from .errors import AttemptsExhausted, CountMismatch
from .graphs import DegreeSequence, MarkAlphabets, MarkedGraph, build_graph
from .marks import CountVectors, ModelParams, chi2_leq, count_vectors_of

DEFAULT_MAX_ATTEMPTS = 10**6


def sample_uniform_graph(
    ell: DegreeSequence,
    rng: random.Random,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> MarkedGraph:
    """Uniform simple graph with deg(i) = ell_i, unmarked: the stub list is
    one diagonal color of the configuration model, filtered at girth > 2."""
    ell.require_graphical()
    stubs = [v for v, d in enumerate(ell.ell) for _ in range(d)]
    for _, _, edges in filtered_pairings({(0, 0): stubs}, ell.n, 2, rng, max_attempts):
        return build_graph(ell.n, dict.fromkeys(edges, ("-", "-")))
    raise AttemptsExhausted(max_attempts)


def _weighted_choice(rng: random.Random, dist: dict[str, Fraction]) -> str:
    r = Fraction(rng.random()).limit_denominator(2**53)
    acc = Fraction(0)
    symbols = sorted(dist)
    for s in symbols:
        acc += dist[s]
        if r < acc:
            return s
    return symbols[-1]


def sample_iid_marked(
    ell: DegreeSequence,
    params: ModelParams,
    rng: random.Random,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> MarkedGraph:
    """Uniform graph with independent vertex and oriented-edge marks."""
    base = sample_uniform_graph(ell, rng, max_attempts)
    ab = params.alphabets
    tau = tuple(_weighted_choice(rng, params.vartheta) for _ in range(ell.n))
    marks = {}
    for (u, v) in sorted(base.edges):
        marks[(u, v)] = (
            _weighted_choice(rng, params.chi),
            _weighted_choice(rng, params.chi),
        )
    return build_graph(ell.n, marks, tau, ab)


def sample_uniform_marked(
    ell: DegreeSequence,
    cv: CountVectors,
    rng: random.Random,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> MarkedGraph:
    """Uniform element of the marked class with degrees ell and counts (m, u).

    Uniform graph x uniform permutation of the vertex-mark multiset x uniform
    assignment of the unordered edge-mark multiset x fair orientation flip for
    each off-diagonal pair.
    """
    if cv.u_norm != ell.n:
        raise CountMismatch(f"||u|| = {cv.u_norm} but n = {ell.n}")
    if cv.m_norm != ell.edge_count:
        raise CountMismatch(f"||m|| = {cv.m_norm} but edge count = {ell.edge_count}")
    base = sample_uniform_graph(ell, rng, max_attempts)
    ab = cv.alphabets
    tau = [t for t in ab.theta for _ in range(cv.u.get(t, 0))]
    rng.shuffle(tau)
    pairs = [p for p, c in sorted(cv.m_leq.items()) for _ in range(c)]
    rng.shuffle(pairs)
    marks = {}
    for e, (x, xp) in zip(sorted(base.edges), pairs):
        if x != xp and rng.random() < 0.5:
            x, xp = xp, x
        marks[e] = (x, xp)
    return build_graph(ell.n, marks, tuple(tau), ab)


# --- sampler config files ---------------------------------------------------
#
#   key=value lines; keys: degrees (comma-separated or @path to a file with
#   one integer per line), theta, xi, vartheta, chi (symbol:weight lists),
#   seed, trials.


@dataclass(frozen=True)
class SamplerConfig:
    ell: DegreeSequence
    params: ModelParams
    seed: int
    trials: int


def read_sampler_config(text: str) -> SamplerConfig:
    raw = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    missing = [k for k in ("degrees", "theta", "xi", "vartheta", "chi", "seed") if k not in raw]
    if missing:
        raise ValueError(f"missing keys: {', '.join(missing)}")
    deg_spec = raw["degrees"]
    if deg_spec.startswith("@"):
        with open(deg_spec[1:]) as fh:
            ell = DegreeSequence(tuple(int(ln) for ln in fh if ln.strip()))
    else:
        ell = DegreeSequence(tuple(int(x) for x in deg_spec.split(",")))
    ab = MarkAlphabets(tuple(raw["theta"].split(",")), tuple(raw["xi"].split(",")))

    def law(text: str) -> dict[str, Fraction]:
        out = {}
        for item in text.split(","):
            k, _, v = item.partition(":")
            out[k.strip()] = Fraction(v.strip())
        return out

    params = ModelParams(ab, law(raw["vartheta"]), law(raw["chi"]))
    return SamplerConfig(ell, params, int(raw["seed"]), int(raw.get("trials", "1")))


# --- exact mixture identity -------------------------------------------------


@dataclass(frozen=True)
class MixtureReport:
    holds: bool
    outcomes: int
    total_probability: Fraction
    violation: MarkedGraph | None


def _multinomial_prob(counts: dict, dist: dict) -> Fraction:
    """P(empirical measure of iid draws equals counts / total)."""
    keys = sorted(counts)
    p = Fraction(type_class_size([counts[k] for k in keys]))
    for k in keys:
        p *= dist[k] ** counts[k]
    return p


def model_probability(g: MarkedGraph, params: ModelParams, num_graphs: int) -> Fraction:
    """P(G_n = g) under the uniform-graph, i.i.d.-marks model."""
    p = Fraction(1, num_graphs)
    for t in g.tau:
        p *= params.vartheta[t]
    for mark in g.xi.values():
        p *= params.chi[mark]
    return p


def mixture_identity_check(
    ell: DegreeSequence,
    params: ModelParams,
    cap: int = 8,
) -> MixtureReport:
    """Exact mixture decomposition check over every marked outcome.

    For each marked graph G in the enumerated space, the model probability
    must equal the product of the conditional-uniform factor
    1 / |class(ell)_(m_G, u_G)| with the exact multinomial probabilities of
    hitting the edge-mark and vertex-mark empirical measures of G.
    """
    ab = params.alphabets
    graphs = list(enumerate_graphs(ell, cap))
    num_graphs = len(graphs)
    chi2 = chi2_leq(params.chi, ab.xi)
    total = Fraction(0)
    outcomes = 0
    class_sizes: dict[tuple, int] = {}

    from itertools import product

    for base in graphs:
        edge_list = sorted(base.edges)
        for tau in product(ab.theta, repeat=ell.n):
            for orient in product(product(ab.xi, repeat=2), repeat=len(edge_list)):
                marks = {e: pair for e, pair in zip(edge_list, orient)}
                g = build_graph(ell.n, marks, tau, ab)
                cv = count_vectors_of(g)
                lhs = model_probability(g, params, num_graphs)
                total += lhs
                key = (
                    tuple(sorted(cv.u.items())),
                    tuple(sorted(cv.m_leq.items())),
                )
                if key not in class_sizes:
                    t_u = type_class_size(sorted(cv.u.values()))
                    t_m = type_class_size(sorted(cv.m_leq.values()))
                    class_sizes[key] = (
                        num_graphs * t_u * t_m * 2 ** cv.off_diagonal_total
                    )
                rhs = (
                    Fraction(1, class_sizes[key])
                    * _multinomial_prob(cv.m_leq, chi2)
                    * _multinomial_prob(cv.u, params.vartheta)
                )
                outcomes += 1
                if lhs != rhs:
                    return MixtureReport(False, outcomes, total, g)
    return MixtureReport(total == 1, outcomes, total, None)
