"""Finitely supported measures on canonical classes and operations on them.

Weights are exact rationals throughout, so mass conservation and measure
equality are tested with ``==`` rather than tolerances.  A measure keeps a
representative rooted graph per atom; representatives are reconstructed from
the self-describing canonical codes when a measure is read back from a file.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from .canonical import (
    CanonicalClass,
    canonicalize,
    canonicalize_pair,
    code_alphabets,
    decode_rooted,
    profile_distance,
    radius_profile,
    rooted_classes,
)
from .graphs import MarkedGraph, RootedMarkedGraph, ball, truncate


@dataclass(frozen=True)
class LocalMeasure:
    """Probability measure with finite support on canonical classes."""

    atoms: dict[CanonicalClass, Fraction]
    reps: dict[CanonicalClass, RootedMarkedGraph] = field(default_factory=dict)

    def __post_init__(self):
        if any(w <= 0 for w in self.atoms.values()):
            raise ValueError("weights must be positive")
        if sum(self.atoms.values(), Fraction(0)) != 1:
            raise ValueError("weights must sum to one")

    def __eq__(self, other):
        if not isinstance(other, LocalMeasure):
            return NotImplemented
        return self.atoms == other.atoms

    def total_mass(self) -> Fraction:
        return sum(self.atoms.values(), Fraction(0))

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

    With a depth, each vertex's ball is canonicalized once and kept as its
    atom's representative: O(n * ball), and no full-depth code is built.  At
    full depth each component is extracted once and every vertex is rooted in
    that one subgraph, which the representatives share.  A tree component of
    m vertices costs O(m^2): one rerooting pass, then an O(m) order and
    certificate per root.  A cyclic component costs one individualization-
    refinement search for its automorphisms, then one search per orbit of
    roots; each search prunes the branches that automorphisms map onto
    explored ones.
    """
    if g.n < 1:
        raise ValueError("graph must have at least one vertex")
    if depth is not None:
        return measure_from_pairs((ball(g, v, depth), Fraction(1, g.n)) for v in range(g.n))
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


def truncate_measure(mu: LocalMeasure, k: int) -> LocalMeasure:
    """Pushforward of mu under depth-k truncation, recanonicalized."""
    return pushforward(mu, lambda rg: truncate(rg, k))


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
    balance: dict[CanonicalClass, Fraction] = {}  # forward minus backward mass
    # atoms of U(G) on one component share its graph, so the backward class of
    # (o, v) is often another atom's forward class; mu holds every rep graph
    # for the whole call, so id(g) names one graph throughout
    memo: dict[tuple[int, int, int], CanonicalClass] = {}

    def pair_class(g: MarkedGraph, o: int, v: int) -> CanonicalClass:
        if (id(g), o, v) not in memo:
            memo[(id(g), o, v)] = canonicalize_pair(g, o, v)
        return memo[(id(g), o, v)]

    for atom, w in mu.atoms.items():
        rg = mu.rep(atom)
        for v in rg.graph.adjacency[rg.root]:
            c1 = pair_class(rg.graph, rg.root, v)
            c2 = pair_class(rg.graph, v, rg.root)
            balance[c1] = balance.get(c1, Fraction(0)) + w
            balance[c2] = balance.get(c2, Fraction(0)) - w
    for cls in sorted(balance):
        if balance[cls]:
            return UnimodularityReport(False, cls, balance[cls])
    return UnimodularityReport(True, None, Fraction(0))


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: Fraction
    violation: tuple[int, int] | None  # indices of the offending corpus pair


def pushforward_lipschitz_check(
    f: Callable[[RootedMarkedGraph], RootedMarkedGraph],
    alpha: Fraction,
    corpus: list[LocalMeasure],
) -> LipschitzReport:
    """Assert d_LP(mu o f^-1, nu o f^-1) <= alpha * d_LP(mu, nu) pairwise.

    First verifies that f itself is alpha-Lipschitz on the corpus atoms; a
    violating measure pair signals an implementation bug, not a math failure.
    """
    from .lp_distance import levy_prokhorov

    # one radius profile per corpus atom and one per its image under f
    base: list[tuple[CanonicalClass, ...]] = []
    image: list[tuple[CanonicalClass, ...]] = []
    for mu in corpus:
        for a in mu.support():
            base.append(radius_profile(mu.rep(a), a))
            image.append(radius_profile(f(mu.rep(a))))
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            da = profile_distance(base[i], base[j])
            db = profile_distance(image[i], image[j])
            if db > alpha * da:
                raise ValueError(
                    f"f is not {alpha}-Lipschitz on the corpus atoms "
                    f"({db} > {alpha} * {da})"
                )
    images = [pushforward(mu, f) for mu in corpus]
    max_ratio = Fraction(0)
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            base = levy_prokhorov(corpus[i], corpus[j])
            img = levy_prokhorov(images[i], images[j])
            if img > alpha * base:
                return LipschitzReport(Fraction(-1), (i, j))
            if base > 0:
                max_ratio = max(max_ratio, img / base)
    return LipschitzReport(max_ratio, None)


# --- measure text format ----------------------------------------------------
#
#   measure <atom-count>
#   atom <num>/<den> <canonical-code-hex>
#
# atoms ordered deterministically by code.


def write_measure(mu: LocalMeasure) -> str:
    lines = [f"measure {len(mu.atoms)}"]
    for atom in mu.support():
        w = mu.atoms[atom]
        lines.append(f"atom {w.numerator}/{w.denominator} {atom.hex()}")
    return "\n".join(lines) + "\n"


def read_measure(text: str) -> LocalMeasure:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "measure":
        raise ValueError("missing 'measure <atom-count>' header")
    count = int(header[1])
    atoms: dict[CanonicalClass, Fraction] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] != "atom" or len(parts) != 3:
            raise ValueError(f"unrecognized line: {ln!r}")
        num, den = parts[1].split("/")
        atoms[CanonicalClass.from_hex(parts[2])] = Fraction(int(num), int(den))
    if len(atoms) != count:
        raise ValueError("atom count mismatch")
    return LocalMeasure(atoms)
