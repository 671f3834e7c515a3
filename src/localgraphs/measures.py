"""Finitely supported measures on canonical classes and operations on them.

Weights are exact rationals throughout, so mass conservation and measure
equality are tested with ``==`` rather than tolerances.  Sums of weights run
on integer numerators over one common denominator (``integer_weights``), and
each result is divided into a ``Fraction`` once.  A measure keeps a
representative rooted graph per atom.  A depth-k measure (``truncate_measure``,
``empirical_distribution(depth=k)``) also remembers where each atom lives: its
source, a (graph, root, k) whose depth-k ball is the atom.  The rep of a
tree-shaped class is built from its source on first read (``LocalMeasure.rep``)
and kept, and ``lp_distance`` reads depth classes from the sources without
building reps.  A measure read back from a file has neither: its reps are
reconstructed from the self-describing canonical codes.
Unimodularity is balanced on a key per directed edge of a rep graph
(``canonical.dart_keys``), not on edge-rooted pair classes, so checking U(G)
runs no search.
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
    canonicalize,
    canonicalize_pair,
    code_alphabets,
    dart_keys,
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
    #: (graph, root, k) per atom whose depth-k ball of root in graph is the atom
    sources: dict[CanonicalClass, tuple[MarkedGraph, int, int]] = field(default_factory=dict)

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
        """The representative rooted graph of an atom.

        An atom with a source (g, v, k) and no rep yet, a tree-shaped depth-k
        class, gets the depth-k ball of v in g, built on this first read and
        kept, so each such ball is built at most once and only if read.  An
        atom with neither, as in a measure read back from a file, is rebuilt
        from its code.
        """
        if atom not in self.reps and atom in self.sources:
            g, v, k = self.sources[atom]
            self.reps[atom] = ball(g, v, k)
        elif atom not in self.reps:
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
    and no full-depth code is built.  Each atom's source is (g, vertex,
    depth), in g itself.  At full depth each component is
    extracted once, and ``rooted_classes`` roots every vertex in that one
    subgraph, which the representatives share, with the component's
    unrooted search (for ``check_unimodular``).
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if depth is not None:
        counts, reps, sources = _ball_classes((g, v, depth, 1, None) for v in range(g.n))
        return LocalMeasure({cls: Fraction(c, g.n) for cls, c in counts.items()}, reps, sources)
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


def _ball_classes(roots: Iterable[tuple[MarkedGraph, int, int, int, CanonicalClass | None]]):
    """The summed integer weight, the rep and the source (graph, vertex, k)
    of each depth-k class of the weighted roots (graph, vertex, k, weight,
    class of the rooted graph or None), in order of first root.  Each graph
    has one entry memo for the call, which writes every tree-shaped ball's
    class without building the ball; such a class gets no rep here, since
    ``LocalMeasure.rep`` builds it from the source on first read.  Any other
    ball is built once, to be canonicalized (unless it holds the whole rooted
    graph, whose class is given) and to be the rep if its class is new.  A
    ball that is the whole rooted graph has that graph as its rep.  So
    classes, order and reps read are those of building every ball, and no
    ball is built twice."""
    # the caller holds every graph for the whole call, so id(g) names one graph
    memos: dict[int, EntryMemo] = {}
    weights: dict[CanonicalClass, int] = {}
    reps: dict[CanonicalClass, RootedMarkedGraph] = {}
    sources: dict[CanonicalClass, tuple[MarkedGraph, int, int]] = {}
    for g, v, k, w, whole in roots:
        cls = tree_depth_class(g, -1, v, k, memos.setdefault(id(g), {}))
        built = None
        if cls is None:
            built = ball(g, v, k)
            cls = whole if whole is not None and built.n == g.n else canonicalize(built)
        if cls in sources:
            weights[cls] += w
            continue
        weights[cls] = w
        sources[cls] = (g, v, k)
        if cls == whole:
            reps[cls] = RootedMarkedGraph(g, v)
        elif built is not None:
            reps[cls] = built
    return weights, reps, sources


def truncate_measure(mu: LocalMeasure, k: int) -> LocalMeasure:
    """Pushforward of mu under depth-k truncation, recanonicalized.

    An atom with a source (g, v, j) and no rep is read at its source: its
    depth-k ball is the depth-min(j, k) ball of v in g, so no rep is built.
    Any other atom is read on its rep graph.  Atoms on one graph share its
    entry memo (see ``canonical.tree_depth_class``), and a ball with a cycle
    that holds the whole rep graph is the atom itself, so it is not searched
    again and keeps the atom's rep.  Each new atom's source is (graph, root,
    depth) of the first atom of mu it comes from.  Weights are summed as
    integer numerators over the common denominator of mu's weights.
    """
    den, (num,) = integer_weights(mu.atoms)

    def root(atom: CanonicalClass, w: int):
        if atom not in mu.reps and atom in mu.sources:
            g, v, j = mu.sources[atom]
            return g, v, min(j, k), w, None
        rep = mu.rep(atom)
        return rep.graph, rep.root, k, w, atom

    weights, reps, sources = _ball_classes(root(atom, w) for atom, w in num.items())
    return LocalMeasure({cls: Fraction(w, den) for cls, w in weights.items()}, reps, sources)


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
    (v, o) orderings.  That balance is taken on ``canonical.dart_keys``,
    which are in bijection with the classes: a cyclic graph's key is its
    unrooted certificate with the edge's least positions over its orbit under
    the found automorphisms, and the search prunes only subtrees that found
    automorphisms map onto explored ones, so every automorphism is a product
    of found ones.  Only an unbalanced key pays a ``canonicalize_pair``, to
    name its class; the witness is the least of those classes.
    """
    den, (num,) = integer_weights(mu.atoms)
    # forward minus backward mass, as numerators over den, and one edge per key
    balance: dict[tuple, int] = {}
    edge: dict[tuple, tuple[MarkedGraph, int, int]] = {}
    # atoms of U(G) on one component share its graph; mu holds every rep graph
    # for the whole call, so id(g) names one graph throughout
    keys: dict[int, dict[tuple[int, int], tuple]] = {}
    for atom, w in num.items():
        g, o = mu.rep(atom).graph, mu.rep(atom).root
        if id(g) not in keys:
            keys[id(g)] = dart_keys(g)
        for v in g.adjacency[o]:
            for a, b, sign in ((o, v, w), (v, o, -w)):
                key = keys[id(g)][(a, b)]
                balance[key] = balance.get(key, 0) + sign
                edge.setdefault(key, (g, a, b))
    unbalanced = [(canonicalize_pair(*edge[key]), m) for key, m in balance.items() if m]
    if unbalanced:
        cls, m = min(unbalanced, key=lambda item: item[0])
        return UnimodularityReport(False, cls, Fraction(m, den))
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
    """Read a measure file.  A malformed header or weight, a code that does
    not decode to a rooted graph, or a code given twice, is a ``ValueError``
    that names its line."""
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
            decode_rooted(atom.code)
        except (ValueError, KeyError, IndexError):
            raise ValueError(f"code is not a canonical code in hex: {ln!r}") from None
        if atom in atoms:
            raise ValueError(f"code given twice: {ln!r}")
        num, den = parts[1].split("/")
        atoms[atom] = Fraction(int(num), int(den))
    if len(atoms) != int(header[1]):
        raise ValueError("atom count mismatch")
    return LocalMeasure(atoms)
