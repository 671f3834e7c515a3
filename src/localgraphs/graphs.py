"""Core data types: mark alphabets, marked graphs, rooted graphs, degree sequences.

Vertices are 0-based integers internally; the text format uses 1-based ids.
All structures are immutable after construction and safe to share between
workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Container, Mapping

from .errors import NonGraphical

#: Alphabets used when marks carry no information.
UNMARKED_THETA = ("*",)
UNMARKED_XI = ("-",)
#: Characters that separate the fields of a canonical code; a mark symbol
#: holds none of them and no whitespace, so codes and text formats stay exact.
_SEPARATORS = ",.|;="


@dataclass(frozen=True)
class MarkAlphabets:
    """Finite vertex-mark and edge-mark alphabets; list order defines <=."""

    theta: tuple[str, ...]
    xi: tuple[str, ...]

    def __post_init__(self):
        if not self.theta or not self.xi:
            raise ValueError("alphabets must be nonempty")
        if len(set(self.theta)) != len(self.theta) or len(set(self.xi)) != len(self.xi):
            raise ValueError("alphabet symbols must be distinct")
        for sym in self.theta + self.xi:
            if not sym or any(ch in _SEPARATORS or ch.isspace() for ch in sym):
                raise ValueError(
                    f"mark symbol {sym!r} is empty or holds whitespace or one of {_SEPARATORS}"
                )

    def xi_leq_pairs(self) -> list[tuple[str, str]]:
        """All (x, x') with x <= x' in the stored order."""
        return [
            (self.xi[i], self.xi[j])
            for i in range(len(self.xi))
            for j in range(i, len(self.xi))
        ]


UNMARKED = MarkAlphabets(UNMARKED_THETA, UNMARKED_XI)


@dataclass(frozen=True)
class MarkedGraph:
    """Finite simple graph with vertex marks and per-orientation edge marks."""

    n: int
    edges: frozenset[tuple[int, int]]  # pairs (u, v) with u < v
    tau: tuple[str, ...]
    xi: Mapping[tuple[int, int], str]  # defined on both orientations of each edge
    alphabets: MarkAlphabets = UNMARKED

    def __post_init__(self):
        if len(self.tau) != self.n:
            raise ValueError("tau must assign a mark to every vertex")
        for (u, v) in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"bad edge ({u}, {v})")
            if (u, v) not in self.xi or (v, u) not in self.xi:
                raise ValueError(f"edge ({u}, {v}) is missing an oriented mark")
        if len(self.xi) != 2 * len(self.edges):
            raise ValueError("xi defined outside the edge set")
        for t in self.tau:
            if t not in self.alphabets.theta:
                raise ValueError(f"unknown vertex mark {t!r}")
        for x in self.xi.values():
            if x not in self.alphabets.xi:
                raise ValueError(f"unknown edge mark {x!r}")

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbours per vertex; rows of one or two ids below
        ``_POOLED`` are shared tuples, like the edges of ``build_graph``."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(_row(a) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    def component(self, v: int) -> list[int]:
        """Vertices of the connected component of v, in BFS order."""
        return list(self.bfs_layers(v))

    @cached_property
    def _connected(self) -> bool:
        return self.n == 0 or len(self.component(0)) == self.n

    def is_connected(self) -> bool:
        """Whether g is connected; searched once per graph object, like ``adjacency``."""
        return self._connected

    def bfs_layers(
        self, root: int, radius: int | None = None, cut: Container[tuple[int, int]] = ()
    ) -> dict[int, int]:
        """Distance from root for every vertex within the given radius, never
        stepping from u to w when (u, w) is in ``cut``."""
        dist = {root: 0}
        frontier = [root]
        d = 0
        while frontier and (radius is None or d < radius):
            d += 1
            nxt = []
            for u in frontier:
                for w in self.adjacency[u]:
                    if w not in dist and (u, w) not in cut:
                        dist[w] = d
                        nxt.append(w)
            frontier = nxt
        return dist

    def unmarked(self) -> "MarkedGraph":
        """Forget all marks (the projection onto plain graphs)."""
        xi = {}
        for (u, v) in self.edges:
            xi[(u, v)] = UNMARKED_XI[0]
            xi[(v, u)] = UNMARKED_XI[0]
        return MarkedGraph(self.n, self.edges, UNMARKED_THETA * self.n, xi, UNMARKED)


#: Vertex pairs below this bound are built once, in ``_PAIRS``.
_POOLED = 64
#: _PAIRS[u][v] is (u, v): graphs share these tuples as edges and ``xi`` keys,
#: so a program holding many small graphs keeps one copy of each pair.
_PAIRS = tuple(tuple((u, v) for v in range(_POOLED)) for u in range(_POOLED))


#: _SINGLES[v] is (v,), the pooled adjacency row of a vertex whose one
#: neighbour is v.
_SINGLES = tuple((v,) for v in range(_POOLED))


def _pair(u: int, v: int) -> tuple[int, int]:
    return _PAIRS[u][v] if 0 <= u < _POOLED and 0 <= v < _POOLED else (u, v)


def _row(neighbours: list[int]) -> tuple[int, ...]:
    """The sorted neighbours as a tuple, pooled when one or two ids < _POOLED."""
    neighbours.sort()
    if len(neighbours) == 2 and neighbours[1] < _POOLED:
        return _PAIRS[neighbours[0]][neighbours[1]]
    if len(neighbours) == 1 and neighbours[0] < _POOLED:
        return _SINGLES[neighbours[0]]
    return tuple(neighbours)


def build_graph(n, edge_marks, tau=None, alphabets=UNMARKED):
    """Convenience constructor.

    ``edge_marks`` maps (u, v) -> (xi(u, v), xi(v, u)); one entry per edge, any
    orientation.  ``tau`` defaults to the first theta symbol everywhere.  The
    (u, v) tuple with u < v in ``edges`` is also that orientation's ``xi`` key.
    """
    edges = set()
    xi = {}
    for (u, v), (xuv, xvu) in edge_marks.items():
        uv, vu = _pair(u, v), _pair(v, u)
        edges.add(uv if u < v else vu)
        xi[uv] = xuv
        xi[vu] = xvu
    if tau is None:
        tau = (alphabets.theta[0],) * n
    return MarkedGraph(n, frozenset(edges), tuple(tau), xi, alphabets)


@dataclass(frozen=True)
class RootedMarkedGraph:
    """Connected marked graph with a distinguished root."""

    graph: MarkedGraph
    root: int

    def __post_init__(self):
        if not (0 <= self.root < self.graph.n):
            raise ValueError("root outside vertex set")
        if not self.graph.is_connected():
            raise ValueError("rooted graph must be connected")

    @property
    def n(self) -> int:
        return self.graph.n

    def eccentricity(self) -> int:
        return max(self.graph.bfs_layers(self.root).values(), default=0)


def ball(
    g: MarkedGraph,
    root: int,
    r: int | None = None,
    *,
    exclude_edge: tuple[int, int] | None = None,
) -> RootedMarkedGraph:
    """Marked subgraph induced by the vertices within distance r of root.

    ``r=None`` takes the whole component of root.  With ``exclude_edge=(u, v)``
    the search never crosses uv and the ball leaves it out, so this is the ball
    of root in g minus that edge.  Vertices keep their ascending order in g.
    Past g's cached adjacency lists, the cost depends on the ball alone: linear
    in its vertices and edges, plus one sort of its vertices.
    """
    if r is not None and r < 0:
        raise ValueError("radius must be nonnegative")
    cut = {exclude_edge, exclude_edge[::-1]} if exclude_edge is not None else set()
    adj = g.adjacency
    verts = sorted(g.bfs_layers(root, r, cut))
    remap = {v: i for i, v in enumerate(verts)}
    edges = []
    xi = {}
    for u in verts:
        a = remap[u]
        for w in adj[u]:
            b = remap.get(w)
            if b is None or b < a or (u, w) in cut:
                continue
            e = (a, b)
            edges.append(e)
            xi[e] = g.xi[(u, w)]
            xi[(b, a)] = g.xi[(w, u)]
    sub = MarkedGraph(
        len(verts), frozenset(edges), tuple(g.tau[v] for v in verts), xi, g.alphabets
    )
    # the search reached every vertex without crossing uv, so sub is connected;
    # filling the cached_property's slot spares RootedMarkedGraph a second BFS
    sub.__dict__["_connected"] = True
    return RootedMarkedGraph(sub, remap[root])


def rooted_component(g: MarkedGraph, v: int) -> RootedMarkedGraph:
    """The connected component of v in g, rooted at v."""
    return ball(g, v)


def truncate(g: RootedMarkedGraph, r: int) -> RootedMarkedGraph:
    """Marked subgraph induced by vertices within distance r of the root."""
    return ball(g.graph, g.root, r)


@dataclass(frozen=True)
class DegreeSequence:
    """Vector of prescribed vertex degrees with even total."""

    ell: tuple[int, ...]

    def __post_init__(self):
        if any(d < 0 for d in self.ell):
            raise ValueError("degrees must be nonnegative")
        if sum(self.ell) % 2 != 0:
            raise ValueError("degree sum must be even")

    @property
    def n(self) -> int:
        return len(self.ell)

    @property
    def bound(self) -> int:
        return max(self.ell, default=0)

    @property
    def edge_count(self) -> int:
        return sum(self.ell) // 2

    def is_graphical(self) -> bool:
        """Erdos-Gallai test for realizability by a simple graph, in O(n)
        after the sort (the pointer form of Tripathi & Vijay, 2003).

        With seq nonincreasing and c the number of entries >= k, the tail
        sum of min(d, k) over seq[k:] is k per entry up to index max(c, k)
        plus the suffix sum from there; c only moves down as k grows.
        """
        seq = sorted(self.ell, reverse=True)
        n = len(seq)
        suffix = list(accumulate(reversed(seq), initial=0))[::-1]
        c = n
        prefix = 0
        for k in range(1, n + 1):
            while c and seq[c - 1] < k:
                c -= 1
            prefix += seq[k - 1]
            j = max(c, k)
            if prefix > k * (k - 1) + k * (j - k) + suffix[j]:
                return False
        return True

    @cached_property
    def _graphical(self) -> bool:
        return self.is_graphical()

    def require_graphical(self):
        """Raise NonGraphical unless ell is graphical, checked once per object."""
        if not self._graphical:
            raise NonGraphical(f"degree sequence {self.ell} is not graphical")


# --- graph text format ------------------------------------------------------
#
#   graph <n>
#   v <id> <theta-symbol>
#   e <u> <v> <xi_uv> <xi_vu>
#
# ids are 1-based; round trips are exact.


def write_graph(g: MarkedGraph) -> str:
    lines = [f"graph {g.n}"]
    for v in range(g.n):
        lines.append(f"v {v + 1} {g.tau[v]}")
    for (u, v) in sorted(g.edges):
        lines.append(f"e {u + 1} {v + 1} {g.xi[(u, v)]} {g.xi[(v, u)]}")
    return "\n".join(lines) + "\n"


def read_graph(text: str, alphabets: MarkAlphabets | None = None) -> MarkedGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0].split() if lines else []
    if len(header) != 2 or header[0] != "graph":
        raise ValueError("missing 'graph <n>' header")
    n = int(header[1])
    tau: dict[int, str] = {}
    edge_marks = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "v" and len(parts) == 3:
            if tau.setdefault(int(parts[1]) - 1, parts[2]) != parts[2]:
                raise ValueError(f"vertex {parts[1]} is given two different marks")
        elif parts[0] == "e" and len(parts) == 5:
            u, v = int(parts[1]) - 1, int(parts[2]) - 1
            marks = (parts[3], parts[4])
            known = edge_marks.get((u, v)) or edge_marks.get((v, u), ())[::-1]
            if known and known != marks:
                raise ValueError(f"edge {parts[1]} {parts[2]} is given two different marks")
            edge_marks[(u, v)] = marks
        else:
            raise ValueError(f"unrecognized line: {ln!r}")
    if sorted(tau) != list(range(n)):
        raise ValueError("vertex lines do not cover 1..n")
    if alphabets is None:
        theta = tuple(dict.fromkeys(tau[v] for v in range(n))) or UNMARKED_THETA
        seen_xi = []
        for pair in edge_marks.values():
            seen_xi.extend(pair)
        xi_syms = tuple(dict.fromkeys(seen_xi)) or UNMARKED_XI
        alphabets = MarkAlphabets(theta, xi_syms)
    return build_graph(n, edge_marks, tuple(tau[v] for v in range(n)), alphabets)
