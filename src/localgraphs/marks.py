"""Mark count vectors, i.i.d. mark distributions, and the ``key=value`` reader
of the config files that give them."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .graphs import MarkAlphabets, MarkedGraph


@dataclass(frozen=True)
class CountVectors:
    """Vertex-mark counts u and symmetric edge-mark counts m.

    m(x, x') counts edges whose unordered mark pair is {x, x'}; the sum of the
    <=-view entries equals the edge count.
    """

    alphabets: MarkAlphabets
    u: dict[str, int]
    m: dict[tuple[str, str], int]

    def __post_init__(self):
        for x in self.alphabets.xi:
            for xp in self.alphabets.xi:
                if self.m.get((x, xp), 0) != self.m.get((xp, x), 0):
                    raise ValueError("edge-mark counts must be symmetric")
        if any(c < 0 for c in self.u.values()) or any(c < 0 for c in self.m.values()):
            raise ValueError("counts must be nonnegative")

    @property
    def u_norm(self) -> int:
        return sum(self.u.values())

    @property
    def m_norm(self) -> int:
        """Number of edges: the sum over the <=-ordered view."""
        return sum(self.m_leq.values())

    @property
    def m_leq(self) -> dict[tuple[str, str], int]:
        return {
            (x, xp): self.m.get((x, xp), 0)
            for (x, xp) in self.alphabets.xi_leq_pairs()
        }

    @property
    def off_diagonal_total(self) -> int:
        return sum(c for (x, xp), c in self.m_leq.items() if x != xp)


def count_vectors_of(g: MarkedGraph) -> CountVectors:
    u = {t: 0 for t in g.alphabets.theta}
    for t in g.tau:
        u[t] += 1
    m: dict[tuple[str, str], int] = {}
    for (a, b) in g.edges:
        x, xp = g.xi[(a, b)], g.xi[(b, a)]
        if x == xp:
            m[(x, x)] = m.get((x, x), 0) + 1
        else:
            m[(x, xp)] = m.get((x, xp), 0) + 1
            m[(xp, x)] = m.get((xp, x), 0) + 1
    return CountVectors(g.alphabets, u, m)


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

    @classmethod
    def uniform(cls, alphabets: MarkAlphabets) -> "ModelParams":
        return cls(
            alphabets,
            {t: Fraction(1, len(alphabets.theta)) for t in alphabets.theta},
            {x: Fraction(1, len(alphabets.xi)) for x in alphabets.xi},
        )


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
