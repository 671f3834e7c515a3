"""Closed-form rate-function ingredients.

Entropy-like quantities are real-valued (natural log throughout); measure
statistics stay exact rationals until a log is taken.  The two limit
quantities that have no closed form, the neighborhood-entropy value Sigma and
the degree-law correction J1, enter only as tagged inputs: either supplied
externally or estimated at finite n by exhaustive counting.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TextIO

from .errors import InvalidSequence, RangeViolation
from .marks import chi2_leq, fold_leq, parse_law, read_key_values
from .measures import LocalMeasure

INF = float("inf")


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
    mu: LocalMeasure,
    P: dict,
) -> float:
    """Degree-conditioned rate: finite only when the root-degree law is P.

    ``mu`` is a measure whose root-degree law is compared with P; truncating
    it at depth >= 1 or dropping its marks first leaves that law unchanged."""
    proj = degree_projection(mu)
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
    base = rate_I_PdQ(j1, sigma, mu_dvec, stats.pi, stats.mu, P)
    if base == INF:
        return INF
    # alpha and chi2_leq(chi) both order the pairs by chi's keys
    alpha = {k: Fraction(v, d) for k, v in fold_leq(stats.dvec, chi).items()}
    return base + sanov_rate(alpha, stats.pi, d, chi, vartheta)


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
