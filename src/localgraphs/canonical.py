"""Canonical forms for rooted marked graphs and the local metric built on them.

The canonical code of a (possibly multiply) rooted marked graph is a byte
string that two graphs share iff they are isomorphic by a root-, edge- and
mark-preserving bijection.  Codes are self-describing: ``decode_code`` rebuilds
a representative graph, which lets measure files round-trip through codes
alone.

Trees are encoded with the classic bottom-up subtree-sorting scheme, every
root of a tree ordered by joining subtree preorders that all roots share; a
graph with a cycle goes through individualization-refinement with a
minimal-certificate search.  Refinement sorts integer keys whose order is that
of the (mark, mark, colour) triples and re-signs only the cells that can
split, and the search skips any branch that an automorphism found so far maps
onto an explored one, so it visits about one branch per orbit: a windmill of
k triangles rooted at its centre costs milliseconds, where the full search
tree has 2^k k! leaves.  None of this moves a code: every certificate is the
minimum over the full tree.

Depth-k codes (``depth_class``, ``depth_classes``) are read off g itself: the
entry of v seen from its parent p with r levels left depends on (p, v, r)
alone, so one memo over g's directed edges serves every ball (the AHU tree
code of Aho, Hopcroft & Ullman, as a directed-type recursion), and a
tree-shaped ball's certificate is written from it without building the ball.
Any other ball is built and canonicalized.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .graphs import MarkAlphabets, MarkedGraph, RootedMarkedGraph, ball, build_graph


@dataclass(frozen=True, order=True)
class CanonicalClass:
    """Canonical encoding of an isomorphism class of a rooted marked graph."""

    code: bytes

    def hex(self) -> str:
        return self.code.hex()

    @classmethod
    def from_hex(cls, s: str) -> "CanonicalClass":
        return cls(bytes.fromhex(s))


def _edge_marks(g: MarkedGraph) -> list[tuple[int, int, str, str]]:
    """Each edge (u, v) of g with its marks written for either end first:
    (u, v, ".xi(u, v).xi(v, u)", ".xi(v, u).xi(u, v)").  Computed once per
    graph object and kept with it, as ``neighbour_keys`` is."""
    if "_edge_marks" not in vars(g):
        xi = g.xi
        table = [
            (u, v, f".{xi[(u, v)]}.{xi[(v, u)]}", f".{xi[(v, u)]}.{xi[(u, v)]}")
            for (u, v) in g.edges
        ]
        object.__setattr__(g, "_edge_marks", table)
    return vars(g)["_edge_marks"]


#: (num, dot) with num[i] = str(i) and dot[i] = f"{i}." for every position
#: below the largest vertex count certified so far, so no certificate formats
#: an int.  It grows by replacement, never in place, so a caller in another
#: thread always holds a pair of full, correct tables.
_POSITIONS: tuple[list[str], list[str]] = ([], [])


def _certificate(g: MarkedGraph, roots: tuple[int, ...], order: list[int]) -> str:
    """Serialize g under the vertex ordering ``order`` (new id = position).

    Every tree certificate and every search leaf is written here, with the
    positions read from ``_POSITIONS``, grown to g.n on first need.
    """
    global _POSITIONS
    num, dot = _POSITIONS
    if len(num) < g.n:
        num = num + [str(i) for i in range(len(num), g.n)]
        dot = dot + [f"{i}." for i in range(len(dot), g.n)]
        _POSITIONS = num, dot
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    tau = ",".join([g.tau[v] for v in order])
    # each edge is written from its lower position, with that end's mark first
    edges = [
        dot[a] + num[b] + fw if (a := pos[u]) < (b := pos[v]) else dot[b] + num[a] + bw
        for u, v, fw, bw in _edge_marks(g)
    ]
    edges.sort()
    rts = ",".join([num[pos[r]] for r in roots])
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
    """BFS order and parents of the tree g from root (whose parent is -1),
    and the entry of every vertex seen from its parent, keyed by the
    directed edge (parent, vertex)."""
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


def _joined(head: int, parts: Iterable[list[int]]) -> list[int]:
    """[head] followed by the parts, each appended as one list copy."""
    out = [head]
    for part in parts:
        out += part
    return out


def _down_preorders(
    g: MarkedGraph, bfs: list[int], parent: dict[int, int], entry: dict[tuple[int, int], str],
    keep: bool,
):
    """Each vertex's neighbours in ascending entry order (a neighbour with no
    entry first), and the preorder of every down edge (p, v) of the tree in
    ``bfs``, the root's from p = -1: v, then the preorders of its children
    in that order.  Filled bottom-up, each list joined from its children's,
    which are dropped once joined unless ``keep``."""
    kids = [sorted(a, key=lambda c: entry.get((v, c), "")) for v, a in enumerate(g.adjacency)]
    sub: dict[tuple[int, int], list[int]] = {}
    take = sub.get if keep else sub.pop
    for v in reversed(bfs):
        p = parent[v]
        sub[(p, v)] = _joined(v, [take((v, c)) for c in kids[v] if c != p])
    return kids, sub


def _tree_order(g: MarkedGraph, roots: tuple[int, ...]) -> list[int]:
    """Canonical order of a tree from roots[0]: children sorted by entry."""
    bfs, parent, entry = _down_entries(g, roots[0], _root_marks(roots))
    return _down_preorders(g, bfs, parent, entry, keep=False)[1][(-1, roots[0])]


def _tree_orders(g: MarkedGraph) -> Iterator[list[int]]:
    """Canonical order of the tree g rooted at each vertex in turn.

    The subtree of c away from v does not depend on where the tree is rooted,
    so one down pass from vertex 0 and one up pass (rerooting) give the entry
    of every directed edge, and so its preorder: c, then the preorders of c's
    children in ascending entry order.  Down edges are filled bottom-up and
    up edges top-down, and each root's order is the root followed by its
    neighbours' preorders, all joined as whole lists.  Children with equal
    entries may be joined in either order: their subtrees are isomorphic, so
    the certificate is the same.
    """
    bfs, parent, entry = _down_entries(g, 0, {})
    for v in bfs[1:]:
        p = parent[v]
        entry[(v, p)] = _entry(g, v, p, [entry[(p, c)] for c in g.adjacency[p] if c != v])
    kids, sub = _down_preorders(g, bfs, parent, entry, keep=True)
    for v in bfs[1:]:
        p = parent[v]
        sub[(v, p)] = _joined(p, [sub[(p, c)] for c in kids[p] if c != v])
    return (_joined(r, [sub[(r, c)] for c in kids[r]]) for r in range(g.n))


#: Per vertex, (neighbour, sort key of the edge's mark pair); see neighbour_keys.
NeighbourKeys = list[list[tuple[int, int]]]


def neighbour_keys(g: MarkedGraph) -> NeighbourKeys:
    """For each vertex v, its neighbours u with the sort key of the mark pair
    (xi(v, u), xi(u, v)): its rank among g's distinct pairs times n + 1.

    A colour is at most n, so key + colour sorts as (xi(v, u), xi(u, v),
    colour) does, and refinement sorts ints instead of string triples.
    Computed once per graph object and kept with it, as ``g.adjacency`` is.
    """
    if "_neighbour_keys" not in vars(g):
        pairs = {(v, u): (x, g.xi[(u, v)]) for (v, u), x in g.xi.items()}
        rank = {p: i * (g.n + 1) for i, p in enumerate(sorted(set(pairs.values())))}
        keys = [[(u, rank[pairs[(v, u)]]) for u in a] for v, a in enumerate(g.adjacency)]
        # g is frozen: store the keys the way functools.cached_property does
        object.__setattr__(g, "_neighbour_keys", keys)
    return vars(g)["_neighbour_keys"]


def _refine(keys: NeighbourKeys, colors: list[int]) -> tuple[list[int], list[list[int]]]:
    """Stable colour refinement: the colours, and the cells in colour order,
    each in ascending vertex order.

    Each round splits each cell by its members' sorted neighbour keys, parts
    in key order, and refinement stops after a round that splits nothing.  A
    cell's colour while refining is the number of vertices before it, so a
    cell that does not split keeps its colour, and a round re-signs only the
    cells next to a vertex whose colour the last round changed.
    """
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, []).append(v)
    col = [0] * len(colors)
    cell_at: dict[int, list[int]] = {}  # each cell under its colour
    start = 0
    for c in sorted(groups):
        cell_at[start] = cell = groups[c]
        for v in cell:
            col[v] = start
        start += len(cell)
    # every cell of two or more may split in the first round
    check = [cell for cell in cell_at.values() if len(cell) > 1]
    while check:
        splits = []
        for cell in check:
            sigs = [tuple(sorted([k + col[u] for u, k in keys[v]])) for v in cell]
            distinct = sorted(set(sigs))
            if len(distinct) > 1:
                rank = {s: i for i, s in enumerate(distinct)}
                parts: list[list[int]] = [[] for _ in distinct]
                for v, s in zip(cell, sigs):
                    parts[rank[s]].append(v)
                splits.append(parts)
        # colours are read above and written only here, so rounds stay synchronous
        moved = []
        for parts in splits:
            start = col[parts[0][0]]
            for part in parts:
                cell_at[start] = part
                for v in part:
                    col[v] = start
                start += len(part)
            # the first part keeps the cell's colour
            moved += [v for part in parts[1:] for v in part]
        touched = {col[u] for v in moved for u, _ in keys[v]}
        check = [cell for c in touched if len(cell := cell_at[c]) > 1]
    cells = [cell_at[c] for c in sorted(cell_at)]
    for i, cell in enumerate(cells):
        for v in cell:
            col[v] = i
    return col, cells


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


def _ir_certificate(g: MarkedGraph, roots: tuple[int, ...]) -> tuple[str, list[list[int]]]:
    """Minimal certificate over refinement-consistent orderings, and the
    automorphisms of (g, roots) the search found, as vertex maps.

    Two leaves with one certificate give an automorphism.  At a node with
    individualized path P, a target vertex in the orbit of one already
    explored, under the automorphisms found so far that fix P pointwise, roots
    an image of an explored subtree, so it is skipped: the minimum certificate
    cannot move (McKay & Piperno 2014).
    """
    keys = neighbour_keys(g)
    marks = _root_marks(roots)
    init_labels = [(marks.get(v, ()), g.tau[v]) for v in range(g.n)]
    ranking = {s: i for i, s in enumerate(sorted(set(init_labels)))}
    leaves: dict[str, list[int]] = {}  # first leaf order with each certificate
    autos: list[list[int]] = []

    def search(colors: list[int], path: tuple[int, ...]) -> str:
        colors, cells = _refine(keys, colors)
        target = next((cell for cell in cells if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cells]
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


def canonical_code(g: MarkedGraph, roots: tuple[int, ...]) -> bytes:
    """Canonical code of the connected graph g with an ordered root tuple."""
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if _is_tree(g):
        cert = _certificate(g, roots, _tree_order(g, roots))
    else:
        cert = _ir_certificate(g, roots)[0]
    return cert.encode()


def rooted_classes(g: MarkedGraph) -> list[CanonicalClass]:
    """Class of the connected graph g rooted at each vertex, in vertex order.

    Entry v equals ``canonicalize(RootedMarkedGraph(g, v))``.  A tree shares
    one rerooting pass and the preorder of every directed edge's subtree
    between its roots, so each root's order is joined from its neighbours'
    preorders, list by list (``_tree_orders``), and only its certificate is
    written per root.  A cyclic graph runs one unrooted
    individualization-refinement search for automorphisms, then one search per
    orbit of roots.
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if _is_tree(g):
        certs = (_certificate(g, (r,), order) for r, order in enumerate(_tree_orders(g)))
    else:
        # roots in one orbit of g's automorphisms share a class
        rep = _orbits(_ir_certificate(g, ())[1], list(range(g.n)))
        by_rep = {r: _ir_certificate(g, (r,))[0] for r in set(rep.values())}
        certs = (by_rep[rep[r]] for r in range(g.n))
    return [CanonicalClass(cert.encode()) for cert in certs]


def canonicalize(g: RootedMarkedGraph) -> CanonicalClass:
    """Canonical class of a rooted marked graph."""
    return CanonicalClass(canonical_code(g.graph, (g.root,)))


#: E(p, v, r) -> the entry of v seen from its parent p with r levels left,
#: and a tree ball's signature -> its class; see tree_depth_class.
EntryMemo = dict[tuple[int, int, int] | str, str | CanonicalClass]


def depth_class(g: MarkedGraph, parent: int, root: int, r: int, memo: EntryMemo) -> CanonicalClass:
    """Class of the depth-r ball of root in g minus the edge to ``parent``
    (-1 for none): ``tree_depth_class`` when the ball is a tree, otherwise
    the ball is built and canonicalized."""
    cls = tree_depth_class(g, parent, root, r, memo)
    if cls is None:
        cut = (parent, root) if parent >= 0 else None
        cls = canonicalize(ball(g, root, r, exclude_edge=cut))
    return cls


def tree_depth_class(
    g: MarkedGraph, parent: int, root: int, r: int, memo: EntryMemo
) -> CanonicalClass | None:
    """Class of the depth-r ball of root in g minus the edge to ``parent``
    (-1 for none), written from g and the entry memo, which the caller keeps
    for one graph and one call, when the ball is a tree; None otherwise, and
    then the memo is left as it was.

    The walk away from parent is the ball, and a tree, exactly when no walk
    vertex has a neighbour in the ball besides its parent; a walk that
    reached parent would find root there.  Then the root's mark and its
    children's sorted entries fix the ball, and a ball first met has its
    ``_certificate`` written in the preorder by ascending entry, which is
    ``_tree_order``'s, each edge from its parent end.
    """
    adj = g.adjacency
    walk = [(parent, root, r)]
    seen = {root}
    # breadth first, so the ball is all seen before the first depth-r vertex
    for p, v, d in walk:
        for c in adj[v]:
            if c != p:
                if c in seen:
                    return None
                if d:
                    seen.add(c)
                    walk.append((v, c, d - 1))
    for key in reversed(walk[1:]):
        if key not in memo:
            p, v, d = key
            memo[key] = _entry(g, p, v, [memo[(v, c, d - 1)] for c in adj[v] if c != p] if d else [])
    below = sorted([memo[(root, c, r - 1)] for c in adj[root] if c != parent]) if r else []
    signature = f"{g.tau[root]}|{''.join(below)}"
    if signature not in memo:
        tau, edges = [], []
        stack = [(parent, root, r, -1)]
        while stack:
            p, v, d, a = stack.pop()
            b = len(tau)
            tau.append(g.tau[v])
            if a >= 0:
                edges.append(f"{a}.{b}.{g.xi[(p, v)]}.{g.xi[(v, p)]}")
            if d:
                # descending, so the stack pops the least entry first
                kids = sorted([(memo[(v, c, d - 1)], c) for c in adj[v] if c != p], reverse=True)
                stack.extend([(v, c, d - 1, b) for _, c in kids])
        edges.sort()
        cert = f"n={len(tau)};r=0;t={','.join(tau)};e={'|'.join(edges)}"
        memo[signature] = CanonicalClass(cert.encode())
    return memo[signature]


def depth_classes(g: MarkedGraph, k: int) -> list[CanonicalClass]:
    """Depth-k class of every vertex of g, in vertex order."""
    memo: EntryMemo = {}
    return [depth_class(g, -1, v, k, memo) for v in range(g.n)]


def canonicalize_pair(g: MarkedGraph, o: int, v: int) -> CanonicalClass:
    """Canonical class of a connected graph with the ordered root pair (o, v)."""
    return CanonicalClass(canonical_code(g, (o, v)))


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

    Entry r is the class of the depth-r ball of the root, read with
    ``depth_class`` over one entry memo for the call, so a tree-shaped ball is
    written without being built; for r past the end it is the last entry,
    since truncating beyond the eccentricity gives back g.
    """
    memo: EntryMemo = {}
    depths = [depth_class(g.graph, -1, g.root, r, memo) for r in range(g.eccentricity())]
    return tuple(depths) + (canonicalize(g) if cls is None else cls,)


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
