"""Finitely supported measures on canonical classes and operations on them.

Weights are exact rationals throughout, so mass conservation and measure
equality are tested with ``==`` rather than tolerances.  Sums of weights run
on integer numerators over one common denominator (``integer_weights``), and
each result is divided into a ``Fraction`` once.  A measure keeps a
representative rooted graph per atom; representatives are reconstructed from
the self-describing canonical codes when a measure is read back from a file.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .canonical import (
    CanonicalClass,
    EntryMemo,
    _parse_code,
    canonicalize,
    canonicalize_pair,
    code_alphabets,
    decode_rooted,
    rooted_classes,
    tree_depth_class,
)
from .graphs import MarkedGraph, RootedMarkedGraph, ball


def integer_weights(*weights: Mapping[object, int | Fraction]) -> tuple[int, list[dict]]:
    """One common denominator of every given weight, the lcm of theirs, and
    each map's weights as integer numerators over it."""
    den = math.lcm(*(w.denominator for m in weights for w in m.values()))
    return den, [{k: w.numerator * (den // w.denominator) for k, w in m.items()} for m in weights]


@dataclass(frozen=True)
class LocalMeasure:
    """Probability measure with finite support on canonical classes.

    Each weight is an ``int`` or a ``Fraction``, positive, and the weights
    sum to one exactly; the sum is taken over integer numerators.
    """

    atoms: dict[CanonicalClass, int | Fraction]
    reps: dict[CanonicalClass, RootedMarkedGraph] = field(default_factory=dict)

    def __post_init__(self):
        for atom, w in self.atoms.items():
            if not isinstance(w, (int, Fraction)):
                raise ValueError(f"atom {atom.hex()} has weight {w!r}, not an int or a Fraction")
            if w.numerator <= 0:
                raise ValueError("weights must be positive")
        den, (num,) = integer_weights(self.atoms)
        if sum(num.values()) != den:
            raise ValueError("weights must sum to one")

    def __eq__(self, other):
        if not isinstance(other, LocalMeasure):
            return NotImplemented
        return self.atoms == other.atoms

    def rep(self, atom: CanonicalClass) -> RootedMarkedGraph:
        if atom not in self.reps:
            # codes are self-describing, so the missing representatives can be
            # rebuilt, all over one alphabet pair so that their mark orders agree
            alphabets = code_alphabets(a.code for a in self.atoms)
            missing = (a for a in self.atoms if a not in self.reps)
            decoded = {a: decode_rooted(a.code, alphabets) for a in missing}
            object.__setattr__(self, "reps", {**self.reps, **decoded})
        return self.reps[atom]

    def support(self) -> list[CanonicalClass]:
        return sorted(self.atoms)


def measure_from_pairs(pairs: Iterable[tuple[RootedMarkedGraph, Fraction]]) -> LocalMeasure:
    """Build a measure from weighted rooted graphs, canonicalizing atoms."""
    atoms: dict[CanonicalClass, Fraction] = {}
    reps: dict[CanonicalClass, RootedMarkedGraph] = {}
    for g, w in pairs:
        cls = canonicalize(g)
        atoms[cls] = atoms.get(cls, Fraction(0)) + w
        reps.setdefault(cls, g)
    return LocalMeasure(atoms, reps)


def empirical_distribution(g: MarkedGraph, depth: int | None = None) -> LocalMeasure:
    """U(G): uniform mixture over vertices of the rooted component classes,
    or of the rooted depth-``depth`` ball classes when a depth is given.

    With a depth, each vertex's ball class is read off once, a tree-shaped
    ball from the directed-entry memo without building the ball: O(n * ball),
    and no full-depth code is built.  At full depth each component is
    extracted once and every vertex is rooted in that one subgraph, which
    the representatives share.  A tree component of m vertices costs
    O(m^2): one rerooting pass that keeps the preorder of every directed
    edge's subtree, then per root an order joined from its neighbours'
    preorders, list by list, and an O(m) certificate whose positions are
    read from a table, not formatted.  A cyclic component costs one
    individualization-refinement search for its automorphisms, then one
    search per orbit of roots; each search prunes the branches that
    automorphisms map onto explored ones.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if depth is not None:
        counts, reps = _ball_classes(((g, v, 1, None) for v in range(g.n)), depth)
        return LocalMeasure({cls: Fraction(c, g.n) for cls, c in counts.items()}, reps)
    rooted: dict[int, tuple[MarkedGraph, int, CanonicalClass]] = {}
    counts: dict[CanonicalClass, int] = {}
    reps: dict[CanonicalClass, RootedMarkedGraph] = {}
    for v in range(g.n):
        if v not in rooted:
            comp = ball(g, v).graph
            # ball keeps the component's vertices in ascending order
            for i, (u, cls) in enumerate(zip(sorted(g.component(v)), rooted_classes(comp))):
                rooted[u] = (comp, i, cls)
        comp, i, cls = rooted[v]
        counts[cls] = counts.get(cls, 0) + 1
        if cls not in reps:
            reps[cls] = RootedMarkedGraph(comp, i)
    return LocalMeasure({cls: Fraction(c, g.n) for cls, c in counts.items()}, reps)


def _ball_classes(roots: Iterable[tuple[MarkedGraph, int, int, CanonicalClass | None]], k: int):
    """The summed integer weight and the rep of each depth-k class of the
    weighted roots (graph, vertex, weight, class of the rooted graph or
    None), in order of first root.  Each graph has one entry memo for the
    call, which writes every tree-shaped ball's class, and such a ball is
    built only as the rep of a new class.  Any other ball is built once, to
    be canonicalized (unless it holds the whole rooted graph, whose class is
    given) and to be the rep if its class is new.  A ball that is the whole
    rooted graph has that graph as its rep.  So classes, order and reps are
    those of building every ball, and no ball is built twice."""
    # the caller holds every graph for the whole call, so id(g) names one graph
    memos: dict[int, EntryMemo] = {}
    weights: dict[CanonicalClass, int] = {}
    reps: dict[CanonicalClass, RootedMarkedGraph] = {}
    for g, v, w, whole in roots:
        cls = tree_depth_class(g, -1, v, k, memos.setdefault(id(g), {}))
        built = None
        if cls is None:
            built = ball(g, v, k)
            cls = whole if whole is not None and built.n == g.n else canonicalize(built)
        if cls in reps:
            weights[cls] += w
        else:
            weights[cls] = w
            reps[cls] = RootedMarkedGraph(g, v) if cls == whole else built or ball(g, v, k)
    return weights, reps


def truncate_measure(mu: LocalMeasure, k: int) -> LocalMeasure:
    """Pushforward of mu under depth-k truncation, recanonicalized.

    Atoms on one rep graph share its entry memo (see ``canonical.tree_depth_class``),
    and a ball with a cycle that holds the whole rep graph is the atom itself,
    so it is not searched again and keeps the atom's rep.  Weights are summed
    as integer numerators over the common denominator of mu's weights.
    """
    den, (num,) = integer_weights(mu.atoms)
    roots = ((mu.rep(atom).graph, mu.rep(atom).root, w, atom) for atom, w in num.items())
    weights, reps = _ball_classes(roots, k)
    return LocalMeasure({cls: Fraction(w, den) for cls, w in weights.items()}, reps)


def project_unmarked(mu: LocalMeasure) -> LocalMeasure:
    """Pushforward under forgetting all marks."""
    def forget(rg: RootedMarkedGraph) -> RootedMarkedGraph:
        return RootedMarkedGraph(rg.graph.unmarked(), rg.root)

    return pushforward(mu, forget)


def pushforward(mu: LocalMeasure, f: Callable[[RootedMarkedGraph], RootedMarkedGraph]) -> LocalMeasure:
    return measure_from_pairs((f(mu.rep(atom)), w) for atom, w in mu.atoms.items())


@dataclass(frozen=True)
class UnimodularityReport:
    holds: bool
    #: the first unbalanced doubly-rooted class in sorted order; it roots the
    #: two ends of an edge, since only adjacent pairs are balanced
    witness: CanonicalClass | None
    imbalance: Fraction


def check_unimodular(mu: LocalMeasure) -> UnimodularityReport:
    """Mass-transport balance check for a finitely supported measure.

    A measure is unimodular if and only if it is involution invariant (Aldous
    & Lyons, Processes on unimodular random networks, EJP 2007, Prop. 2.2):
    the mass-transport principle need only hold for test functions supported
    on adjacent pairs.  Finite support reduces that quantifier to a finite
    system: for each doubly-rooted class of an edge (o, v), the mass
    aggregated from (o, v) orderings must equal the mass aggregated from
    (v, o) orderings.  Each atom costs 2 deg(o) pair searches, not
    2 |component|.
    """
    den, (num,) = integer_weights(mu.atoms)
    # forward minus backward mass, as numerators over den
    balance: dict[CanonicalClass, int] = {}
    # atoms of U(G) on one component share its graph, so the backward class of
    # (o, v) is often another atom's forward class; mu holds every rep graph
    # for the whole call, so id(g) names one graph throughout
    memo: dict[tuple[int, int, int], CanonicalClass] = {}

    def pair_class(g: MarkedGraph, o: int, v: int) -> CanonicalClass:
        if (id(g), o, v) not in memo:
            memo[(id(g), o, v)] = canonicalize_pair(g, o, v)
        return memo[(id(g), o, v)]

    for atom, w in num.items():
        rg = mu.rep(atom)
        for v in rg.graph.adjacency[rg.root]:
            c1 = pair_class(rg.graph, rg.root, v)
            c2 = pair_class(rg.graph, v, rg.root)
            balance[c1] = balance.get(c1, 0) + w
            balance[c2] = balance.get(c2, 0) - w
    for cls in sorted(balance):
        if balance[cls]:
            return UnimodularityReport(False, cls, Fraction(balance[cls], den))
    return UnimodularityReport(True, None, Fraction(0))


# --- measure text format ----------------------------------------------------
#
#   measure <atom-count>
#   atom <num>/<den> <canonical-code-hex>
#
# atoms ordered deterministically by code; <den> is positive.

_WEIGHT = re.compile(r"[+-]?[0-9]+/[0-9]*[1-9][0-9]*")
_COUNT = re.compile(r"[0-9]+")


def write_measure(mu: LocalMeasure) -> str:
    lines = [f"measure {len(mu.atoms)}"]
    for atom in mu.support():
        w = mu.atoms[atom]
        lines.append(f"atom {w.numerator}/{w.denominator} {atom.hex()}")
    return "\n".join(lines) + "\n"


def read_measure(text: str) -> LocalMeasure:
    """Read a measure file.  A malformed header, weight or code, or a code
    given twice, is a ``ValueError`` that names its line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "measure":
        raise ValueError("missing 'measure <atom-count>' header")
    if not _COUNT.fullmatch(header[1]):
        raise ValueError(f"atom count is not a nonnegative int: {lines[0]!r}")
    atoms: dict[CanonicalClass, Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != "atom" or len(parts) != 3:
            raise ValueError(f"unrecognized line: {ln!r}")
        if not _WEIGHT.fullmatch(parts[1]):
            raise ValueError(f"weight is not <int>/<positive int>: {ln!r}")
        try:
            atom = CanonicalClass.from_hex(parts[2])
            _parse_code(atom.code)
        except (ValueError, KeyError):
            raise ValueError(f"code is not a canonical code in hex: {ln!r}") from None
        if atom in atoms:
            raise ValueError(f"code given twice: {ln!r}")
        num, den = parts[1].split("/")
        atoms[atom] = Fraction(int(num), int(den))
    if len(atoms) != int(header[1]):
        raise ValueError("atom count mismatch")
    return LocalMeasure(atoms)
