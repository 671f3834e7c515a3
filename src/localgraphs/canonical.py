"""Canonical forms for rooted marked graphs and the local metric built on them.

The canonical code of a (possibly multiply) rooted marked graph is a byte
string that two graphs share iff they are isomorphic by a root-, edge- and
mark-preserving bijection.  Codes are self-describing: ``decode_code`` rebuilds
a representative graph, which lets measure files round-trip through codes
alone.

Trees are encoded with the classic bottom-up subtree-sorting scheme; a graph
with a cycle goes through individualization-refinement with a
minimal-certificate search.  Refinement sorts integer keys whose order is that
of the (mark, mark, colour) triples, and the search skips any branch that an
automorphism found so far maps onto an explored one, so it visits about one
branch per orbit: a windmill of k triangles rooted at its centre costs
milliseconds, where the full search tree has 2^k k! leaves.  Neither change
moves a code: every certificate is the minimum over the full tree.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .graphs import MarkAlphabets, MarkedGraph, RootedMarkedGraph, ball, build_graph, truncate


@dataclass(frozen=True, order=True)
class CanonicalClass:
    """Canonical encoding of an isomorphism class of a rooted marked graph."""

    code: bytes

    def hex(self) -> str:
        return self.code.hex()

    @classmethod
    def from_hex(cls, s: str) -> "CanonicalClass":
        return cls(bytes.fromhex(s))


def _certificate(g: MarkedGraph, roots: tuple[int, ...], order: list[int]) -> str:
    """Serialize g under the vertex ordering ``order`` (new id = position)."""
    pos = {v: i for i, v in enumerate(order)}
    tau = ",".join(g.tau[v] for v in order)
    edges = []
    for (u, v) in g.edges:
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        edges.append(f"{a}.{b}.{g.xi[(order[a], order[b])]}.{g.xi[(order[b], order[a])]}")
    edges.sort()
    rts = ",".join(str(pos[r]) for r in roots)
    return f"n={g.n};r={rts};t={tau};e={'|'.join(edges)}"


def _is_tree(g: MarkedGraph) -> bool:
    return len(g.edges) == g.n - 1


def _root_marks(roots: tuple[int, ...]) -> dict[int, tuple[int, ...]]:
    """Positions in ``roots`` of each root vertex; every other vertex has ()."""
    return {r: tuple(i for i, x in enumerate(roots) if x == r) for r in roots}


def _entry(g: MarkedGraph, v: int, c: int, below: list[str], mark=()) -> str:
    """Entry of the tree neighbour c of v: the marks of edge vc, then the code
    of c's subtree away from v, built from c's own entries ``below``."""
    return f"[{g.xi[(v, c)]}.{g.xi[(c, v)]}({g.tau[c]}.{mark}|{''.join(sorted(below))})]"


def _down_entries(g: MarkedGraph, root: int, marks: dict[int, tuple[int, ...]]):
    """BFS order and parents of the tree g from root, and the entry of every
    vertex seen from its parent, keyed by the directed edge (parent, vertex)."""
    parent = {root: -1}
    order = [root]
    for v in order:
        for w in g.adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    entry: dict[tuple[int, int], str] = {}
    for v in reversed(order[1:]):
        p = parent[v]
        below = [entry[(v, c)] for c in g.adjacency[v] if c != p]
        entry[(p, v)] = _entry(g, p, v, below, marks.get(v, ()))
    return order, parent, entry


def _preorder(
    g: MarkedGraph, roots: Iterable[int], entry: dict[tuple[int, int], str]
) -> Iterator[list[int]]:
    """Preorder DFS of the tree g from each root in turn, each vertex visiting
    its neighbours, its parent excepted, in ascending entry order."""
    # descending, so the stack pops the least entry first
    kids = [
        sorted(a, key=lambda c: entry.get((v, c), ""), reverse=True)
        for v, a in enumerate(g.adjacency)
    ]
    for root in roots:
        order: list[int] = []
        stack = [(root, -1)]
        while stack:
            v, p = stack.pop()
            order.append(v)
            stack.extend((c, v) for c in kids[v] if c != p)
        yield order


def _tree_order(g: MarkedGraph, roots: tuple[int, ...]) -> list[int]:
    """Canonical order of a tree from roots[0]: children sorted by entry."""
    _, _, entry = _down_entries(g, roots[0], _root_marks(roots))
    return next(_preorder(g, roots[:1], entry))


def _tree_orders(g: MarkedGraph) -> Iterator[list[int]]:
    """Canonical order of the tree g rooted at each vertex in turn.

    The subtree of c away from v does not depend on where the tree is rooted,
    so one down pass from vertex 0 and one up pass (rerooting) give the entry
    of every directed edge; then each order is one DFS.
    """
    order, parent, entry = _down_entries(g, 0, {})
    for v in order[1:]:
        p = parent[v]
        entry[(v, p)] = _entry(g, v, p, [entry[(p, c)] for c in g.adjacency[p] if c != v])
    return _preorder(g, range(g.n), entry)


#: Per vertex, (neighbour, sort key of the edge's mark pair); see neighbour_keys.
NeighbourKeys = list[list[tuple[int, int]]]


def neighbour_keys(g: MarkedGraph) -> NeighbourKeys:
    """For each vertex v, its neighbours u with the sort key of the mark pair
    (xi(v, u), xi(u, v)): its rank among g's distinct pairs times n + 1.

    A colour is at most n, so key + colour sorts as (xi(v, u), xi(u, v),
    colour) does, and refinement sorts ints instead of string triples.
    """
    pairs = {(v, u): (x, g.xi[(u, v)]) for (v, u), x in g.xi.items()}
    rank = {p: i * (g.n + 1) for i, p in enumerate(sorted(set(pairs.values())))}
    return [[(u, rank[pairs[(v, u)]]) for u in a] for v, a in enumerate(g.adjacency)]


def _refine(keys: NeighbourKeys, colors: list[int]) -> list[int]:
    """Stable color refinement; new color ids are assigned by signature order."""
    while True:
        sigs = [
            (colors[v], tuple(sorted([k + colors[u] for u, k in row])))
            for v, row in enumerate(keys)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ranking[s] for s in sigs]
        if new == colors:
            return new
        colors = new


def _orbits(autos: Iterable[list[int]], cell: list[int]) -> dict[int, int]:
    """Orbit representative of each vertex of cell under the group generated
    by the automorphisms, each of which maps cell onto itself."""
    orbit = {v: v for v in cell}

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    for gamma in autos:
        for x in cell:
            orbit[find(x)] = find(gamma[x])
    return {v: find(v) for v in cell}


def _ir_certificate(
    g: MarkedGraph, roots: tuple[int, ...], keys: NeighbourKeys
) -> tuple[str, list[list[int]]]:
    """Minimal certificate over refinement-consistent orderings, and the
    automorphisms of (g, roots) the search found, as vertex maps.

    Two leaves with one certificate give an automorphism.  At a node with
    individualized path P, a target vertex in the orbit of one already
    explored, under the automorphisms found so far that fix P pointwise, roots
    an image of an explored subtree, so it is skipped: the minimum certificate
    cannot move (McKay & Piperno 2014).
    """
    marks = _root_marks(roots)
    init_labels = [(marks.get(v, ()), g.tau[v]) for v in range(g.n)]
    ranking = {s: i for i, s in enumerate(sorted(set(init_labels)))}
    leaves: dict[str, list[int]] = {}  # first leaf order with each certificate
    autos: list[list[int]] = []

    def search(colors: list[int], path: tuple[int, ...]) -> str:
        colors = _refine(keys, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = next((cells[c] for c in sorted(cells) if len(cells[c]) > 1), None)
        if target is None:
            order = sorted(range(g.n), key=colors.__getitem__)
            cert = _certificate(g, roots, order)
            first = leaves.setdefault(cert, order)
            if first is not order:
                gamma = list(range(g.n))
                for a, b in zip(first, order):
                    gamma[a] = b
                autos.append(gamma)
            return cert
        best = None
        explored: list[int] = []
        known = -1
        # individualize each vertex of the first non-singleton cell in turn,
        # skipping orbits already explored; automorphisms fixing P keep the cell
        for v in target:
            if explored:
                if known != len(autos):
                    known = len(autos)
                    rep = _orbits((a for a in autos if all(a[p] == p for p in path)), target)
                if any(rep[v] == rep[w] for w in explored):
                    continue
            explored.append(v)
            cert = search(colors[:v] + [g.n] + colors[v + 1:], path + (v,))
            if best is None or cert < best:
                best = cert
        return best

    return search([ranking[s] for s in init_labels], ()), autos


def canonical_code(
    g: MarkedGraph, roots: tuple[int, ...], keys: NeighbourKeys | None = None
) -> bytes:
    """Canonical code of the connected graph g with an ordered root tuple.

    Callers that code one graph under many root tuples pass
    ``keys=neighbour_keys(g)``, computed once for all of them.
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if _is_tree(g):
        cert = _certificate(g, roots, _tree_order(g, roots))
    else:
        cert = _ir_certificate(g, roots, neighbour_keys(g) if keys is None else keys)[0]
    return cert.encode()


def rooted_classes(g: MarkedGraph) -> list[CanonicalClass]:
    """Class of the connected graph g rooted at each vertex, in vertex order.

    Entry v equals ``canonicalize(RootedMarkedGraph(g, v))``; a tree shares
    one rerooting pass between its roots.  A cyclic graph runs one unrooted
    individualization-refinement search for automorphisms, then one search per
    orbit of roots, all sharing ``neighbour_keys(g)``.
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if _is_tree(g):
        certs = (_certificate(g, (r,), order) for r, order in enumerate(_tree_orders(g)))
    else:
        keys = neighbour_keys(g)
        # roots in one orbit of g's automorphisms share a class
        rep = _orbits(_ir_certificate(g, (), keys)[1], list(range(g.n)))
        by_rep = {r: _ir_certificate(g, (r,), keys)[0] for r in set(rep.values())}
        certs = (by_rep[rep[r]] for r in range(g.n))
    return [CanonicalClass(cert.encode()) for cert in certs]


def canonicalize(g: RootedMarkedGraph) -> CanonicalClass:
    """Canonical class of a rooted marked graph."""
    return CanonicalClass(canonical_code(g.graph, (g.root,)))


def depth_classes(g: MarkedGraph, k: int) -> list[CanonicalClass]:
    """Depth-k class of every vertex of g, in vertex order."""
    return [canonicalize(ball(g, v, k)) for v in range(g.n)]


def canonicalize_pair(
    g: MarkedGraph, o: int, v: int, keys: NeighbourKeys | None = None
) -> CanonicalClass:
    """Canonical class of a connected graph with the ordered root pair (o, v);
    ``keys`` as for ``canonical_code``."""
    return CanonicalClass(canonical_code(g, (o, v), keys))


def _parse_code(code: bytes):
    """Vertex count, roots, vertex marks and edge marks written in a code."""
    fields = dict(part.split("=", 1) for part in code.decode().split(";"))
    n = int(fields["n"])
    roots = tuple(int(r) for r in fields["r"].split(",") if r != "")
    tau = tuple(fields["t"].split(",")) if n else ()
    edge_marks = {}
    if fields["e"]:
        for item in fields["e"].split("|"):
            u, v, xuv, xvu = item.split(".")
            edge_marks[(int(u), int(v))] = (xuv, xvu)
    return n, roots, tau, edge_marks


def code_alphabets(codes: Iterable[bytes]) -> MarkAlphabets:
    """The mark symbols used by the codes, each alphabet in sorted order;
    the unmarked symbol stands in for an alphabet that no code uses."""
    parsed = [_parse_code(code) for code in codes]
    theta = sorted({t for _, _, tau, _ in parsed for t in tau})
    xi = sorted({x for _, _, _, marks in parsed for pair in marks.values() for x in pair})
    return MarkAlphabets(tuple(theta) or ("*",), tuple(xi) or ("-",))


def decode_code(code: bytes, alphabets: MarkAlphabets | None = None):
    """Rebuild a representative (MarkedGraph, roots) from a canonical code,
    over ``code_alphabets([code])`` when no alphabets are given."""
    n, roots, tau, edge_marks = _parse_code(code)
    g = build_graph(n, edge_marks, tau, alphabets or code_alphabets([code]))
    return g, roots


def decode_rooted(code: bytes, alphabets: MarkAlphabets | None = None) -> RootedMarkedGraph:
    g, roots = decode_code(code, alphabets)
    return RootedMarkedGraph(g, roots[0])


def is_isomorphic(a: RootedMarkedGraph, b: RootedMarkedGraph) -> bool:
    return canonicalize(a) == canonicalize(b)


def radius_profile(
    g: RootedMarkedGraph, cls: CanonicalClass | None = None
) -> tuple[CanonicalClass, ...]:
    """Classes of the depth-r truncations of g for r = 0 .. eccentricity - 1,
    followed by the class of g itself (``cls`` when the caller knows it).

    Entry r is the class of ``truncate(g, r)``, and for r past the end it is
    the last entry, since truncating beyond the eccentricity gives back g.
    """
    full = canonicalize(g) if cls is None else cls
    return tuple(canonicalize(truncate(g, r)) for r in range(g.eccentricity())) + (full,)


def profile_distance(p: tuple[CanonicalClass, ...], q: tuple[CanonicalClass, ...]) -> Fraction:
    """1/(1 + j) where j is the first radius at which two radius profiles
    differ, and 0 when their classes agree.

    Agreement at radius r implies agreement at every smaller radius, so the
    first disagreement is the radius the local distance is defined by.
    """
    if p[-1] == q[-1]:
        return Fraction(0)
    j = 0
    # stops by j = max(len(p), len(q)) - 1, where both read their last entry
    while p[min(j, len(p) - 1)] == q[min(j, len(q) - 1)]:
        j += 1
    return Fraction(1, 1 + j)


def local_distance(a: RootedMarkedGraph, b: RootedMarkedGraph) -> Fraction:
    """1/(1 + j) where j is the first radius at which the truncations differ.

    Returns 0 when the graphs are isomorphic at every radius; disagreement of
    the radius-0 balls (root marks) gives distance 1.
    """
    return profile_distance(radius_profile(a), radius_profile(b))
