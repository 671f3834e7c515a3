"""Closed-form rate-function ingredients.

Entropy-like quantities are real-valued (natural log throughout); measure
statistics stay exact rationals until a log is taken.  The two limit
quantities that have no closed form, the neighborhood-entropy value Sigma and
the degree-law correction J1, enter only as tagged inputs: either supplied
externally or estimated at finite n by the enumeration module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TextIO

from .errors import InvalidSequence, RangeViolation
from .marks import chi2_leq, fold_leq, parse_law, read_key_values
from .measures import LocalMeasure, project_unmarked, truncate_measure

INF = float("inf")
#: Largest final-term deviation ``check_adapted`` accepts for a limit condition.
ADAPTED_TOL = 1e-3


def shannon_entropy(q) -> float:
    """-sum q log q with 0 log 0 = 0; accepts a dict or an iterable."""
    values = q.values() if hasattr(q, "values") else q
    total = 0.0
    for p in values:
        p = float(p)
        if p < 0:
            raise ValueError("negative probability")
        if p > 0:
            total -= p * math.log(p)
    return total


def s_value(d) -> float:
    d = float(d)
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d == 0:
        return 0.0
    return d / 2 - (d / 2) * math.log(d)


def relative_entropy(a: dict, b: dict) -> float:
    """H(a|b); +inf when a is not absolutely continuous w.r.t. b."""
    total = 0.0
    for key, pa in a.items():
        pa = float(pa)
        if pa == 0:
            continue
        pb = float(b.get(key, 0))
        if pb == 0:
            return INF
        total += pa * math.log(pa / pb)
    return total


def alpha_plus(alpha: dict) -> dict:
    """Spread a law on nondecreasing pairs onto both orientations."""
    out: dict = {}
    for (x, y), p in alpha.items():
        if x == y:
            out[(x, x)] = out.get((x, x), 0) + p
        else:
            half = p / 2
            out[(x, y)] = out.get((x, y), 0) + half
            out[(y, x)] = out.get((y, x), 0) + half
    return out


@dataclass(frozen=True)
class AverageDegreeVector:
    """Symmetric per-mark-pair mean degrees with positive total."""

    d: dict

    def __post_init__(self):
        for (x, xp), v in self.d.items():
            if float(v) < 0:
                raise InvalidSequence("negative mean degree")
            if self.d.get((xp, x), None) != v:
                raise InvalidSequence("mean-degree vector must be symmetric")
        if float(self.total) <= 0:
            raise InvalidSequence("total mean degree must be positive")

    @property
    def total(self):
        return sum(self.d.values())

    def leq_view(self, order: Sequence[str]) -> dict:
        """Mean degrees on pairs x <= x' by position in ``order`` (the xi
        alphabet); off the diagonal both orientations add up."""
        return fold_leq(self.d, order)


def s_vector(dvec: AverageDegreeVector) -> float:
    return sum(s_value(v) for v in dvec.d.values())


def sanov_rate(alpha: dict, beta: dict, d, chi: dict, vartheta: dict) -> float:
    """(d/2) H(alpha | chi2_leq) + H(beta | vartheta)."""
    if float(d) <= 0:
        raise ValueError("d must be positive")
    return float(d) / 2 * relative_entropy(alpha, chi2_leq(chi)) + relative_entropy(
        beta, vartheta
    )


# --- measure statistics -----------------------------------------------------


@dataclass(frozen=True)
class MeasureStats:
    mu: LocalMeasure
    dvec: dict  # ordered (x, x') -> Fraction mean counts at the root
    deg: Fraction
    pi: dict  # vertex mark -> Fraction


def measure_degree_stats(mu: LocalMeasure) -> MeasureStats:
    dvec: dict = {}
    pi: dict = {}
    for atom, w in mu.atoms.items():
        rep = mu.rep(atom)
        g, root = rep.graph, rep.root
        pi[g.tau[root]] = pi.get(g.tau[root], Fraction(0)) + w
        for v in g.adjacency[root]:
            key = (g.xi[(root, v)], g.xi[(v, root)])
            dvec[key] = dvec.get(key, Fraction(0)) + w
    deg = sum(dvec.values(), Fraction(0))
    return MeasureStats(mu, dvec, deg, pi)


def degree_projection(mu: LocalMeasure) -> dict:
    """Law of the root degree under mu."""
    out: dict = {}
    for atom, w in mu.atoms.items():
        rep = mu.rep(atom)
        d = rep.graph.degree(rep.root)
        out[d] = out.get(d, Fraction(0)) + w
    return out


# --- assembled rate functions -----------------------------------------------


@dataclass(frozen=True)
class TaggedValue:
    """A real value together with where it came from."""

    value: float
    provenance: str  # "supplied" or "finite-n estimate"

    def __post_init__(self):
        if self.provenance not in ("supplied", "finite-n estimate"):
            raise ValueError("provenance must be 'supplied' or 'finite-n estimate'")


def rate_I_dQ(sigma: TaggedValue, dvec: AverageDegreeVector, Q: dict) -> float:
    """H(Q) + s(d) - Sigma, infinite when Sigma is."""
    bound = shannon_entropy(Q) + s_vector(dvec)
    if sigma.value > bound + 1e-9:
        raise RangeViolation(
            f"Sigma = {sigma.value} exceeds its upper bound {bound}"
        )
    if sigma.value == -INF:
        return INF
    return bound - sigma.value


def rate_I_PdQ(
    j1: TaggedValue,
    sigma: TaggedValue,
    dvec: AverageDegreeVector,
    Q: dict,
    rho1_unmarked: LocalMeasure,
    P: dict,
) -> float:
    """Degree-conditioned rate: finite only when the root-degree law is P."""
    proj = degree_projection(rho1_unmarked)
    target = {k: Fraction(v) for k, v in P.items() if Fraction(v) != 0}
    if proj != target:
        return INF
    return j1.value + rate_I_dQ(sigma, dvec, Q)


def rate_lambda(
    P: dict,
    vartheta: dict,
    chi: dict,
    dvec: AverageDegreeVector,
    sigma: TaggedValue,
    j1: TaggedValue,
    stats: MeasureStats,
) -> float:
    """Full rate at mu: infinite unless mu's mean degree matches dvec's total."""
    d = stats.deg
    target_total = dvec.total
    if isinstance(target_total, Fraction) or isinstance(target_total, int):
        if Fraction(d) != Fraction(target_total):
            return INF
    elif abs(float(d) - float(target_total)) > 1e-9:
        return INF
    if d == 0:
        return INF
    mu_dvec = AverageDegreeVector(dict(stats.dvec))
    rho1 = project_unmarked(truncate_measure(stats.mu, 1))
    base = rate_I_PdQ(j1, sigma, mu_dvec, stats.pi, rho1, P)
    if base == INF:
        return INF
    # alpha and chi2_leq(chi) both order the pairs by chi's keys
    alpha = {k: Fraction(v, d) for k, v in fold_leq(stats.dvec, chi).items()}
    return (
        base
        + float(d) / 2 * relative_entropy(alpha, chi2_leq(chi))
        + relative_entropy(stats.pi, vartheta)
    )


# --- adaptedness diagnostics ------------------------------------------------


@dataclass(frozen=True)
class AdaptedReport:
    conditions: dict  # condition number -> bool
    deviations: dict  # condition number -> worst final-term deviation

    @property
    def all_pass(self) -> bool:
        return all(self.conditions.values())


def check_adapted(sequence: list, dvec: AverageDegreeVector, Q: dict) -> AdaptedReport:
    """Diagnose a finite prefix of (n, count-vector) pairs against (d, Q).

    Conditions on counts hold exactly for every term; the limit conditions are
    checked as final-term deviations within ADAPTED_TOL.
    """
    if not sequence:
        raise ValueError("empty sequence")
    conditions = {i: True for i in range(1, 7)}
    deviations = {i: 0.0 for i in range(1, 7)}
    for n, cv in sequence:
        if cv.u_norm != n or cv.m_norm > n * (n - 1) // 2:
            conditions[1] = False
        for (x, xp), c in cv.m_leq.items():
            dval = float(dvec.d.get((x, xp), 0))
            if dval == 0 and c != 0:
                conditions[5] = False
        for t, c in cv.u.items():
            if float(Q.get(t, 0)) == 0 and c != 0:
                conditions[6] = False
    n, cv = sequence[-1]
    for (x, xp) in cv.m_leq:
        # the nondecreasing-pair count aggregates both orientations off diagonal
        target = float(dvec.d.get((x, xp), 0)) / 2 if x == xp else float(
            dvec.d.get((x, xp), 0)
        )
        dev = abs(cv.m_leq[(x, xp)] / n - target)
        idx = 2 if x == xp else 3
        deviations[idx] = max(deviations[idx], dev)
    for t in set(cv.u) | set(Q):
        dev = abs(cv.u.get(t, 0) / n - float(Q.get(t, 0)))
        deviations[4] = max(deviations[4], dev)
    for idx in (2, 3, 4):
        if deviations[idx] > ADAPTED_TOL:
            conditions[idx] = False
    return AdaptedReport(conditions, deviations)


# --- rate-inputs file format ------------------------------------------------


def _format_law(law: dict) -> str:
    return ",".join(f"{k}:{law[k]}" for k in sorted(law))


def write_rate_inputs(
    fh: TextIO,
    P: dict,
    Q: dict,
    vartheta: dict,
    chi: dict,
    dvec: AverageDegreeVector,
    sigma: TaggedValue,
    j1: TaggedValue,
):
    fh.write(f"P={_format_law(P)}\n")
    fh.write(f"Q={_format_law(Q)}\n")
    fh.write(f"vartheta={_format_law(vartheta)}\n")
    fh.write(f"chi={_format_law(chi)}\n")
    fh.write(
        "d=" + ",".join(f"{x}.{xp}:{v}" for (x, xp), v in sorted(dvec.d.items())) + "\n"
    )
    fh.write(f"Sigma={sigma.value}\n")
    fh.write(f"Sigma.provenance={sigma.provenance}\n")
    fh.write(f"J1={j1.value}\n")
    fh.write(f"J1.provenance={j1.provenance}\n")


def read_rate_inputs(fh: TextIO) -> dict:
    required = ["P", "Q", "vartheta", "chi", "d", "Sigma", "Sigma.provenance", "J1", "J1.provenance"]
    raw = read_key_values(fh, required, InvalidSequence)
    dmap = {}
    for piece in raw["d"].split(","):
        k, _, v = piece.partition(":")
        x, _, xp = k.strip().partition(".")
        dmap[(x, xp)] = Fraction(v.strip())
    return {
        "P": {int(k): w for k, w in parse_law(raw["P"]).items()},
        "Q": parse_law(raw["Q"]),
        "vartheta": parse_law(raw["vartheta"]),
        "chi": parse_law(raw["chi"]),
        "dvec": AverageDegreeVector(dmap),
        "sigma": TaggedValue(float(raw["Sigma"]), raw["Sigma.provenance"]),
        "j1": TaggedValue(float(raw["J1"]), raw["J1.provenance"]),
    }
