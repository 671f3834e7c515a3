"""Mark count vectors, i.i.d. mark distributions, and the ``key=value`` reader
of the config files that give them."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graphs import MarkAlphabets, MarkedGraph


@dataclass(frozen=True)
class CountVectors:
    """Vertex-mark counts u and edge-mark counts m_leq over the <=-view.

    m_leq(x, x') counts edges whose unordered mark pair is {x, x'}, keyed by
    the pairs of ``MarkAlphabets.xi_leq_pairs``; its entries sum to the edge
    count.  Both maps are stored over every symbol or pair, with zeros filled
    in, so equal counts compare equal.
    """

    alphabets: MarkAlphabets
    u: dict[str, int]
    m_leq: dict[tuple[str, str], int]

    def __post_init__(self):
        theta, pairs = self.alphabets.theta, self.alphabets.xi_leq_pairs()
        bad_u = [t for t in self.u if t not in theta]
        if bad_u:
            raise ValueError(f"vertex marks outside theta: {', '.join(bad_u)}")
        bad_m = [p for p in self.m_leq if p not in pairs]
        if bad_m:
            raise ValueError(
                f"edge-mark pairs outside xi's <= pairs: {', '.join('.'.join(p) for p in bad_m)}"
            )
        if any(c < 0 for c in self.u.values()) or any(c < 0 for c in self.m_leq.values()):
            raise ValueError("counts must be nonnegative")
        object.__setattr__(self, "u", {t: self.u.get(t, 0) for t in theta})
        object.__setattr__(self, "m_leq", {p: self.m_leq.get(p, 0) for p in pairs})

    @property
    def u_norm(self) -> int:
        return sum(self.u.values())

    @property
    def m_norm(self) -> int:
        """Number of edges."""
        return sum(self.m_leq.values())

    @property
    def off_diagonal_total(self) -> int:
        return sum(c for (x, xp), c in self.m_leq.items() if x != xp)


def count_vectors_of(g: MarkedGraph) -> CountVectors:
    pairs = Counter((g.xi[(a, b)], g.xi[(b, a)]) for (a, b) in g.edges)
    return CountVectors(g.alphabets, Counter(g.tau), fold_leq(pairs, g.alphabets.xi))


@dataclass(frozen=True)
class ModelParams:
    """I.i.d. mark distributions: vartheta on Theta, chi on Xi."""

    alphabets: MarkAlphabets
    vartheta: dict[str, Fraction]
    chi: dict[str, Fraction]

    def __post_init__(self):
        if sum(self.vartheta.values(), Fraction(0)) != 1:
            raise ValueError("vartheta must sum to one")
        if sum(self.chi.values(), Fraction(0)) != 1:
            raise ValueError("chi must sum to one")


def chi2_leq(chi: Mapping, order: Sequence[str] | None = None) -> dict:
    """Law of the nondecreasing pair of two independent draws from chi.

    A symbol is <= another when it comes earlier in ``order``, an alphabet's
    xi; the default is the order of chi's keys, which ``ModelParams`` lists
    in alphabet order.
    """
    symbols = list(chi if order is None else order)
    out = {}
    for i, x in enumerate(symbols):
        out[(x, x)] = chi[x] * chi[x]
        for xp in symbols[i + 1 :]:
            out[(x, xp)] = 2 * chi[x] * chi[xp]
    return out


def fold_leq(law: Mapping, order: Sequence[str]) -> dict:
    """Fold a mapping on ordered mark pairs (x, x') onto the pairs with
    x <= x', where <= is position in ``order`` as in ``chi2_leq`` and
    ``MarkAlphabets.xi_leq_pairs``: the two orientations of a pair add up.
    Symbols missing from ``order`` come after it, in string order."""
    pos = {x: i for i, x in enumerate(order)}

    def rank(x):
        return (pos.get(x, len(pos)), x)

    out: dict = {}
    for (x, xp), v in law.items():
        key = (x, xp) if rank(x) <= rank(xp) else (xp, x)
        out[key] = out.get(key, 0) + v
    return out


# --- key=value config files -------------------------------------------------


def read_key_values(
    lines: Iterable[str], required: Sequence[str], error: type[Exception]
) -> dict[str, str]:
    """The ``key=value`` lines of a config file, past blank lines and ``#``
    comments; raises ``error`` naming the required keys that are missing."""
    raw = {}
    for line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()
    missing = [k for k in required if k not in raw]
    if missing:
        raise error(f"missing keys: {', '.join(missing)}")
    return raw


def parse_law(text: str) -> dict[str, Fraction]:
    """A ``symbol:weight,...`` law with exact weights; blank text is empty."""
    out = {}
    for item in text.split(",") if text.strip() else ():
        k, _, v = item.partition(":")
        out[k.strip()] = Fraction(v.strip())
    return out
