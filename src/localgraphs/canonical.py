"""Canonical forms for rooted marked graphs and the local metric built on them.

The canonical code of a (possibly multiply) rooted marked graph is a byte
string that two graphs share iff they are isomorphic by a root-, edge- and
mark-preserving bijection.  Codes are self-describing (``decode_codes``), so
measure files round-trip through codes alone.

Trees are encoded with the classic bottom-up subtree-sorting scheme, every
root of a tree ordered by joining subtree preorders that all roots share; a
graph with a cycle goes through individualization-refinement with a
minimal-certificate search.  Refinement sorts integer keys whose order is that
of the (mark, mark, colour) triples and re-signs only the cells that can
split.  Each search node holds one ordered partition: a rooted search starts
from g's kept mark partition, and a child copies its parent's, splits one
vertex off and re-signs only the cells next to it.  The search skips any
branch that an automorphism found so far maps onto an explored one, so it
visits about one branch per orbit: a windmill of k triangles rooted at its
centre costs milliseconds, where the full search tree has 2^k k! leaves.
None of this moves a code: every certificate is the minimum over the full
tree.  The automorphisms found generate the group, so they give the orbits
of roots and of directed edges (``dart_keys``).

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
from itertools import islice
from typing import Callable, Iterable, Iterator

from .errors import UndecodableCode
from .graphs import UNMARKED, MarkAlphabets, MarkedGraph, RootedMarkedGraph, ball, build_graph


@dataclass(frozen=True, order=True)
class CanonicalClass:
    """Canonical encoding of an isomorphism class of a rooted marked graph."""

    code: bytes

    def hex(self) -> str:
        return self.code.hex()

    @classmethod
    def from_hex(cls, s: str) -> "CanonicalClass":
        return cls(bytes.fromhex(s))


def _kept(g: MarkedGraph, name: str, build: Callable[[MarkedGraph], object]):
    """``build(g)``, computed once per graph object and kept with it under
    ``name``, as ``g.adjacency`` is; g is frozen, so it is stored the way
    ``functools.cached_property`` does."""
    if name not in vars(g):
        object.__setattr__(g, name, build(g))
    return vars(g)[name]


def _edge_marks(g: MarkedGraph) -> list[tuple[int, int, str, str]]:
    """Each edge (u, v) of g with its marks written for either end first:
    (u, v, ".xi(u, v).xi(v, u)", ".xi(v, u).xi(u, v)"), kept with g."""
    return _kept(g, "_edge_marks", lambda g: [
        (u, v, f".{g.xi[(u, v)]}.{g.xi[(v, u)]}", f".{g.xi[(v, u)]}.{g.xi[(u, v)]}")
        for (u, v) in g.edges
    ])


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


def _tree_entries(g: MarkedGraph):
    """BFS order and parents of the tree g from vertex 0, and the entry of
    every directed edge, from one down pass and one up pass (rerooting)."""
    bfs, parent, entry = _down_entries(g, 0, {})
    for v in bfs[1:]:
        p = parent[v]
        entry[(v, p)] = _entry(g, v, p, [entry[(p, c)] for c in g.adjacency[p] if c != v])
    return bfs, parent, entry


def _tree_orders(g: MarkedGraph) -> Iterator[list[int]]:
    """Canonical order of the tree g rooted at each vertex in turn.

    The subtree of c away from v does not depend on the root, so its entry
    (``_tree_entries``) fixes its preorder: c, then the preorders of c's
    children in ascending entry order.  Each root's order is the root and its
    neighbours' preorders, all joined as whole lists; children with equal
    entries are isomorphic, so their order does not move the certificate.
    """
    bfs, parent, entry = _tree_entries(g)
    kids, sub = _down_preorders(g, bfs, parent, entry, keep=True)
    for v in bfs[1:]:
        p = parent[v]
        sub[(v, p)] = _joined(p, [sub[(p, c)] for c in kids[p] if c != v])
    return (_joined(r, [sub[(r, c)] for c in kids[r]]) for r in range(g.n))


#: Per vertex, (neighbour, sort key of the edge's mark pair); see neighbour_keys.
NeighbourKeys = list[list[tuple[int, int]]]


def neighbour_keys(g: MarkedGraph) -> NeighbourKeys:
    """For each vertex v, its neighbours u with the sort key of the mark pair
    (xi(v, u), xi(u, v)): its rank among g's distinct pairs times 2n + 1.

    A colour is below 2n (see ``_ir_certificate``), so key + colour sorts as
    (xi(v, u), xi(u, v), colour) does, and refinement sorts ints instead of
    string triples.  Kept with g.
    """

    def build(g: MarkedGraph) -> NeighbourKeys:
        pairs = {(v, u): (x, g.xi[(u, v)]) for (v, u), x in g.xi.items()}
        rank = {p: i * (2 * g.n + 1) for i, p in enumerate(sorted(set(pairs.values())))}
        return [[(u, rank[pairs[(v, u)]]) for u in a] for v, a in enumerate(g.adjacency)]

    return _kept(g, "_neighbour_keys", build)


#: An ordered partition of the vertices: ``col[v]`` is v's colour, and
#: ``cell_at[c]`` is the cell of colour c, () at a colour that no cell holds.
#: Colours order the cells; cells are never changed in place, only replaced.
Partition = tuple[list[int], list]


def _partition(labels) -> Partition:
    """The vertices grouped by label, cells in ascending label order and each
    in ascending vertex order, a cell's colour the number of vertices before
    it.  ``cell_at`` has room for 2n colours (see ``_ir_certificate``)."""
    groups: dict = {}
    for v, c in enumerate(labels):
        groups.setdefault(c, []).append(v)
    col = [0] * len(labels)
    cell_at: list = [()] * (2 * len(labels))
    start = 0
    for c in sorted(groups):
        cell_at[start] = cell = groups[c]
        for v in cell:
            col[v] = start
        start += len(cell)
    return col, cell_at


def _mark_partition(g: MarkedGraph) -> Partition:
    """``_partition(g.tau)``, kept with g."""
    return _kept(g, "_mark_partition", lambda g: _partition(g.tau))


def _refine(keys: NeighbourKeys, col: list[int], cell_at: list, check: list) -> None:
    """Stable colour refinement of the partition (col, cell_at), in place,
    whose first round re-signs the cells in ``check``.

    Each round splits each cell by its members' sorted neighbour keys, parts
    in key order and in the cell's order, and refinement stops after a round
    that splits nothing.  The first part keeps the cell's colour and part i
    takes it plus the sizes of the parts before, which stay inside the cell's
    span of colours, so a round re-signs only the cells next to a vertex whose
    colour the last round changed.  Splits depend only on the order of colours.
    """
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


def _split_off(col: list[int], cell_at: list, v: int, top: int) -> None:
    """Move v out of its cell, whose order is kept, to a cell of its own with
    colour ``top``, in place."""
    c = col[v]
    cell_at[c] = [w for w in cell_at[c] if w != v]
    col[v] = top
    cell_at[top] = [v]


def _individualize(
    keys: NeighbourKeys, col: list[int], cell_at: list, v: int, top: int
) -> Partition:
    """A copy of the equitable partition (col, cell_at) with v split off to
    colour ``top``, refined.  Only a cell holding a neighbour of v can split
    in the first round, so that round re-signs those cells alone."""
    col, cell_at = col.copy(), cell_at.copy()
    _split_off(col, cell_at, v, top)
    near = {col[u] for u, _ in keys[v]}
    _refine(keys, col, cell_at, [cell for c in near if len(cell := cell_at[c]) > 1])
    return col, cell_at


def _orbits(autos: Iterable, cell: list, orbit: dict | None = None) -> dict:
    """Orbit representative of each vertex (or directed edge) of cell under
    the group generated by the automorphisms, each mapping cell onto itself,
    and by those whose orbits ``orbit``, an earlier result, already holds."""
    orbit = {v: v for v in cell} if orbit is None else orbit

    def find(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = v = orbit[orbit[v]]
        return v

    for gamma in autos:
        for x in cell:
            if gamma[x] != x:
                orbit[find(x)] = find(gamma[x])
    return {v: find(v) for v in cell}


def _ir_certificate(
    g: MarkedGraph, roots: tuple[int, ...], known: Iterable[list[int]] = ()
) -> tuple[str, list[int], list]:
    """Minimal certificate over refinement-consistent orderings of (g, roots),
    the order of a leaf that writes it, and the automorphisms the search
    found, as vertex maps, after the ``known`` automorphisms of (g, roots)
    that it starts from.

    The search runs on one ordered partition per node.  The root node copies
    g's mark partition (``_mark_partition``), moves each root, in order of
    first occurrence in ``roots``, to a cell of its own above every other
    cell, and refines every cell.  A child individualizes a vertex v of the
    first non-singleton cell: it copies the parent's partition, gives v a
    cell above every colour in use, n + (roots) + depth, and refines from
    that split alone (``_individualize``).  These colours are below 2n and
    ordered as a full refinement from (marks, roots, path) would order them,
    and splits depend only on that order, so every partition is the one a
    refinement from scratch gives.  A leaf's order is its cells in colour
    order.

    Two leaves with one certificate give an automorphism.  At a node with
    individualized path P, a target vertex in the orbit of one already
    explored, under the automorphisms known or found so far that fix P
    pointwise, roots an image of an explored subtree, so it is skipped: the
    minimum certificate cannot move (McKay & Piperno 2014).
    """
    keys = neighbour_keys(g)
    col, cell_at = (part.copy() for part in _mark_partition(g))
    top = g.n
    for r in dict.fromkeys(roots):
        _split_off(col, cell_at, r, top)
        top += 1
    _refine(keys, col, cell_at, [cell for cell in cell_at if len(cell) > 1])
    leaves: dict[str, list[int]] = {}  # first leaf order with each certificate
    autos: list[list[int]] = list(known)

    def search(
        col: list[int], cell_at: list, path: tuple[int, ...], first: int, fixing: list, seen: int
    ) -> str:
        """The least certificate below the node with individualized path P,
        whose partition is (col, cell_at); ``fixing`` holds the automorphisms
        among the first ``seen`` that fix P pointwise."""
        # cells only split, so no non-singleton cell lies below the parent's target
        target = next((cell for cell in islice(cell_at, first, g.n) if len(cell) > 1), None)
        if target is None:
            order = [cell[0] for cell in cell_at if cell]
            cert = _certificate(g, roots, order)
            found = leaves.setdefault(cert, order)
            if found is not order:
                gamma = list(range(g.n))
                for a, b in zip(found, order):
                    gamma[a] = b
                autos.append(gamma)
            return cert
        first = col[target[0]]
        best = None
        explored: list[int] = []
        rep = None
        # individualize each vertex of the first non-singleton cell in turn,
        # skipping orbits already explored; automorphisms fixing P keep the cell
        for v in target:
            if explored:
                if rep is None or seen != len(autos):
                    # the orbits so far, joined by the automorphisms found since that fix P
                    fresh = [a for a in autos[seen:] if tuple(map(a.__getitem__, path)) == path]
                    rep = _orbits(fixing + fresh if rep is None else fresh, target, rep)
                    fixing, seen = fixing + fresh, len(autos)
                if any(rep[v] == rep[w] for w in explored):
                    continue
            explored.append(v)
            child = _individualize(keys, col, cell_at, v, top + len(path))
            cert = search(*child, path + (v,), first, [a for a in fixing if a[v] == v], seen)
            if best is None or cert < best:
                best = cert
        return best

    cert = search(col, cell_at, (), 0, list(autos), len(autos))
    return cert, leaves[cert], autos


def _unrooted_search(g: MarkedGraph) -> tuple[str, list[int], list]:
    """``_ir_certificate(g, ())``, kept with g."""
    return _kept(g, "_unrooted_search", lambda g: _ir_certificate(g, ()))


def dart_keys(g: MarkedGraph) -> dict[tuple[int, int], tuple]:
    """A key per directed edge (o, v) of the connected graph g; two edges,
    of any graphs, share a key iff ``canonicalize_pair`` gives them one class.
    On a tree: the entries of v from o and of o from v, the two half-trees.
    Otherwise: g's unrooted certificate and the least positions, in the
    order writing it, over the orbit of (o, v) under the found automorphisms,
    which generate the group, so positions share an orbit iff pairs a class."""
    if _is_tree(g):
        entry = _tree_entries(g)[2]
        return {(o, v): (x, entry[(v, o)]) for (o, v), x in entry.items()}
    cert, order, autos = _unrooted_search(g)
    pos = {v: i for i, v in enumerate(order)}
    # darts as position pairs, in ascending order, so an orbit's first is its least
    darts = sorted((pos[o], pos[v]) for o, v in g.xi)
    moved = ({(pos[o], pos[v]): (pos[a[o]], pos[a[v]]) for o, v in g.xi} for a in autos)
    rep = _orbits(moved, darts)
    least: dict[tuple[int, int], tuple[int, int]] = {}
    for d in darts:
        least.setdefault(rep[d], d)
    return {(o, v): (cert, *least[rep[(pos[o], pos[v])]]) for o, v in g.xi}


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
    individualization-refinement search for automorphisms, kept with g
    (``_unrooted_search``), then one search per orbit of roots, which starts
    from the automorphisms found that fix its root.
    """
    if not g.is_connected():
        raise ValueError("graph must be connected")
    if _is_tree(g):
        certs = (_certificate(g, (r,), order) for r, order in enumerate(_tree_orders(g)))
    else:
        # roots in one orbit of g's automorphisms share a class
        autos = _unrooted_search(g)[2]
        rep = _orbits(autos, list(range(g.n)))
        # those fixing r are automorphisms of (g, r), so they prune its search
        by_rep = {
            r: _ir_certificate(g, (r,), [a for a in autos if a[r] == r])[0]
            for r in set(rep.values())
        }
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
    """Vertex count, roots, vertex marks and edge marks written in a code;
    a mark that no alphabet may hold (see ``MarkAlphabets``) is an error."""
    fields = dict(part.split("=", 1) for part in code.decode().split(";"))
    n = int(fields["n"])
    roots = tuple(int(r) for r in fields["r"].split(",") if r != "")
    tau = tuple(fields["t"].split(",")) if n else ()
    edge_marks = {}
    if fields["e"]:
        for item in fields["e"].split("|"):
            u, v, xuv, xvu = item.split(".")
            edge_marks[(int(u), int(v))] = (xuv, xvu)
    xi = {x for pair in edge_marks.values() for x in pair}
    MarkAlphabets(tuple(set(tau)) or UNMARKED.theta, tuple(xi) or UNMARKED.xi)
    return n, roots, tau, edge_marks


def decode_codes(codes: Iterable[bytes]) -> list[RootedMarkedGraph]:
    """A representative of each code, rooted at its first root, each code
    parsed and built once, all over one alphabet pair so that mark orders
    agree: the sorted symbols the codes use, or the unmarked symbol for an
    alphabet that no code uses.  A code that describes no connected rooted
    graph raises ``UndecodableCode`` with its position."""
    parsed = []
    for i, code in enumerate(codes):
        try:
            parsed.append(_parse_code(code))
        except (ValueError, KeyError, IndexError):
            raise UndecodableCode(i) from None
    theta = sorted({t for _, _, tau, _ in parsed for t in tau})
    xi = sorted({x for *_, marks in parsed for pair in marks.values() for x in pair})
    alphabets = MarkAlphabets(tuple(theta) or UNMARKED.theta, tuple(xi) or UNMARKED.xi)
    rooted = []
    for i, (n, roots, tau, edge_marks) in enumerate(parsed):
        try:
            rooted.append(RootedMarkedGraph(build_graph(n, edge_marks, tau, alphabets), roots[0]))
        except (ValueError, KeyError, IndexError):
            raise UndecodableCode(i) from None
    return rooted


def is_isomorphic(a: RootedMarkedGraph, b: RootedMarkedGraph) -> bool:
    return canonicalize(a) == canonicalize(b)


def local_distance(a: RootedMarkedGraph, b: RootedMarkedGraph) -> Fraction:
    """1/(1 + r) for the first radius r at which the truncations of a and b
    differ, 0 when a and b are isomorphic.  The scan over r = 0, 1, ... stops
    there, and reads a graph's depth-r class with ``depth_class`` over one
    entry memo per graph below its eccentricity, and its own class from
    there on, where truncation gives it back."""
    whole = canonicalize(a), canonicalize(b)
    if whole[0] == whole[1]:
        return Fraction(0)
    ecc, memos = (a.eccentricity(), b.eccentricity()), ({}, {})

    def at(i: int, g: RootedMarkedGraph, r: int) -> CanonicalClass:
        return whole[i] if r >= ecc[i] else depth_class(g.graph, -1, g.root, r, memos[i])

    r = 0
    # by r = max(ecc) both read their own classes, which differ
    while at(0, a, r) == at(1, b, r):
        r += 1
    return Fraction(1, 1 + r)
