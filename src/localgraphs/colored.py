"""Colored configuration model: colors with conjugation, colored multigraphs,
half-edge sampling, girth filtering, and the mutually inverse encodings
between marked graphs and directed colored graphs.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator

from .canonical import EntryMemo, depth_class
from .errors import AttemptsExhausted, InconsistentColors, InvalidSequence
from .graphs import MarkAlphabets, MarkedGraph, build_graph

# An F-element is (edge-mark symbol, canonical-code bytes of a depth-(k-1)
# rooted class); a color is an ordered pair of F-element indices.
FElement = tuple[str, bytes]
Color = tuple[int, int]


@dataclass(frozen=True)
class ColorSet:
    """Colors F x F with conjugation (i, j) -> (j, i)."""

    f_elements: tuple[FElement, ...]

    def __post_init__(self):
        # sorted, as color_graph and read_cds build them, so that a colour's
        # indices survive write_cds and read_cds
        fel = self.f_elements
        if any(a >= b for a, b in zip(fel, fel[1:])):
            raise ValueError("F-elements must be strictly increasing")

    @staticmethod
    def conjugate(c: Color) -> Color:
        return (c[1], c[0])


@dataclass
class ColoredMultigraph:
    """Directed colored multigraph: per-color edge multiplicities on V^2."""

    n: int
    colors: ColorSet
    omega: dict[Color, dict[tuple[int, int], int]] = field(default_factory=dict)

    def multiplicity(self, c: Color, u: int, v: int) -> int:
        return self.omega.get(c, {}).get((u, v), 0)

    def add(self, c: Color, u: int, v: int):
        self.omega.setdefault(c, {})
        self.omega[c][(u, v)] = self.omega[c].get((u, v), 0) + 1

    def colorblind(self) -> dict[tuple[int, int], int]:
        """Summed multiplicities; symmetric since conjugates pair up."""
        out: dict[tuple[int, int], int] = {}
        for entries in self.omega.values():
            for (u, v), k in entries.items():
                out[(u, v)] = out.get((u, v), 0) + k
        return out


@dataclass(frozen=True)
class ColoredDegreeSequence:
    """Per-vertex color-degree matrices with a symmetric even-diagonal sum."""

    colors: ColorSet
    degrees: tuple  # tuple of per-vertex dict[Color, int] (stored as tuples)

    def __post_init__(self):
        s = self.column_sums()
        for c, total in s.items():
            cb = ColorSet.conjugate(c)
            if total != s.get(cb, 0):
                raise InvalidSequence(f"S_{c} != S_{cb}")
            if c == cb and total % 2 != 0:
                raise InvalidSequence(f"S_{c} odd for diagonal color")

    @classmethod
    def from_maps(cls, colors: ColorSet, maps: list[dict[Color, int]]) -> "ColoredDegreeSequence":
        """Zero counts are dropped, so equal sequences compare equal.  Equal
        rows are stored as one shared tuple, so a profile with few distinct
        rows costs n pointers plus those rows."""
        rows: dict[tuple, tuple] = {}
        built = (tuple(sorted((c, k) for c, k in m.items() if k)) for m in maps)
        return cls(colors, tuple(rows.setdefault(r, r) for r in built))

    @property
    def n(self) -> int:
        return len(self.degrees)

    def column_sums(self) -> dict[Color, int]:
        s: dict[Color, int] = {}
        for v, row in enumerate(self.degrees):
            for c, k in row:
                if k < 0:
                    raise InvalidSequence(f"vertex {v + 1} has negative count {k} of color {c}")
                s[c] = s.get(c, 0) + k
        return s

    def half_edges(self) -> dict[Color, list[int]]:
        """W_c per color c present, in sorted color order: v appears D_v(c) times."""
        w: dict[Color, list[int]] = {}
        for v, row in enumerate(self.degrees):
            for c, k in row:
                if k:
                    w.setdefault(c, []).extend([v] * k)
        return dict(sorted(w.items()))


def colored_degree_sequence_of(g: ColoredMultigraph) -> ColoredDegreeSequence:
    maps: list[dict[Color, int]] = [{} for _ in range(g.n)]
    for c, entries in g.omega.items():
        for (u, _), k in entries.items():
            maps[u][c] = maps[u].get(c, 0) + k
    return ColoredDegreeSequence.from_maps(g.colors, maps)


# --- one lazy pairing: a pairing holds (c, us, vs) per diagonal color and per
# conjugate pair c < conj(c); half-edge us[i] of color c meets vs[i].

Pairing = list[tuple[Color, list[int], list[int]]]


def _draw(
    half_edges: dict[Color, list[int]], rng: random.Random, edges: set[tuple[int, int]] | None
) -> Pairing | None:
    """One draw of CM(D), walking half_edges in its sorted color order.  Per
    diagonal color, the last unpaired half-edge of a fresh copy of W_c meets a
    uniform earlier one, which moves next to it.  Per conjugate pair
    c < conj(c), Fisher–Yates runs from the top of a fresh copy of W_conj(c),
    and W_c[i] meets the element fixed at position i as soon as it is final.

    An index below m is getrandbits(m.bit_length()), redrawn while >= m: the
    calls Random._randbelow makes.  A generator whose class draws integers
    another way is asked for rng._randbelow(m).  Given ``edges``, each pair is
    checked as it is made: the draw returns None at its first loop or repeated
    pair, and otherwise adds its edges (u, v), u < v, to ``edges``.
    """
    inline = type(rng)._randbelow is random.Random._randbelow_with_getrandbits
    getrandbits, randbelow = rng.getrandbits, rng._randbelow
    pairing = []
    for c, w in half_edges.items():
        if c[0] == c[1]:
            a = b = w[:]
            gap = 1  # slot s meets position s + 1; two positions per pair
        elif c[0] < c[1]:
            a, b = w, half_edges[(c[1], c[0])][:]
            gap = 0
        else:
            continue
        k = len(b).bit_length()
        low = 1 << k >> 1  # the least bound of bit length k
        for s in range(len(b) - 1 - gap, -1, -1 - gap):
            if s:
                # slot s takes b[j] for a uniform j <= s
                m = s + 1
                if m < low:
                    k -= 1
                    low >>= 1
                if inline:
                    j = getrandbits(k)
                    while j >= m:
                        j = getrandbits(k)
                else:
                    j = randbelow(m)
                b[s], b[j] = b[j], b[s]
            if edges is not None:
                u, v = a[s + gap], b[s]
                e = (u, v) if u < v else (v, u)
                if u == v or e in edges:
                    return None
                edges.add(e)
        pairing.append((c, a[1::2], b[0::2]) if gap else (c, a, b))
    return pairing


def _multigraph(D: ColoredDegreeSequence, pairing: Pairing) -> ColoredMultigraph:
    g = ColoredMultigraph(D.n, D.colors)
    for c, us, vs in pairing:
        for u, v in zip(us, vs):
            g.add(c, u, v)
            g.add(ColorSet.conjugate(c), v, u)
    return g


def sample_cm(D: ColoredDegreeSequence, rng: random.Random) -> ColoredMultigraph:
    """One draw of the colored configuration model CM(D): per conjugate pair a
    uniform bijection of the half-edge sets, per diagonal color a uniform perfect matching."""
    return _multigraph(D, _draw(D.half_edges(), rng, None))


def _girth_at_most(adj: list[set[int]], h: int) -> bool:
    """Whether the simple graph has a cycle of length <= h."""
    if h < 3:
        return False
    # triangles via neighbour intersections
    for u in range(len(adj)):
        for v in adj[u]:
            if v > u and adj[u] & adj[v]:
                return True
    if h == 3:
        return False
    # BFS from every vertex; the first non-tree edge met from a root on a
    # shortest cycle witnesses its length, so the minimum over roots is exact
    limit = h // 2
    for root in range(len(adj)):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        d = 0
        while frontier and d <= limit:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        if d < limit:
                            dist[w] = d + 1
                            parent[w] = u
                            nxt.append(w)
                    elif parent[u] != w and dist[u] + dist[w] + 1 <= h:
                        return True
            frontier = nxt
            d += 1
    return False


def _girth_above(edges: set[tuple[int, int]], n: int, h: int) -> bool:
    """Whether the simple graph on n vertices with these edges has girth > h."""
    if h < 3:
        return True
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return not _girth_at_most(adj, h)


def is_colored_graph(g: ColoredMultigraph, h: int) -> bool:
    """CB(g) is simple with girth strictly greater than h."""
    if h < 1:
        raise ValueError("h must be >= 1")
    cb = g.colorblind()
    if any(u == v or k > 1 for (u, v), k in cb.items() if k):
        return False
    return _girth_above({e for e, k in cb.items() if k and e[0] < e[1]}, g.n, h)


def filtered_pairings(
    half_edges: dict[Color, list[int]], n: int, h: int, rng: random.Random, draws: int
) -> Iterator[tuple[int, Pairing, set[tuple[int, int]]]]:
    """Make ``draws`` draws; yield (draw number, pairing, edges) for each one
    whose color-blind multigraph is simple with girth > h.  A draw stops at
    its first loop or repeated pair; the girth search runs only on complete
    simple draws."""
    if h < 1:
        raise ValueError("h must be >= 1")
    for attempt in range(1, draws + 1):
        edges: set[tuple[int, int]] = set()
        pairing = _draw(half_edges, rng, edges)
        if pairing is not None and _girth_above(edges, n, h):
            yield attempt, pairing, edges


def sample_filtered_cm(
    D: ColoredDegreeSequence, h: int, rng: random.Random, max_attempts: int
) -> tuple[ColoredMultigraph, int]:
    """Draw CM(D) until a sample passes the girth-h filter.

    Returns the sample with the number of draws it took; raises
    AttemptsExhausted after ``max_attempts`` rejected draws.
    """
    for attempt, pairing, _ in filtered_pairings(D.half_edges(), D.n, h, rng, max_attempts):
        return _multigraph(D, pairing), attempt
    raise AttemptsExhausted(max_attempts)


@dataclass(frozen=True)
class AlphaEstimate:
    estimate: float
    low: float
    high: float
    successes: int
    trials: int


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = 1.96  # a two-sided 95 % interval
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def estimate_alpha_h(
    D: ColoredDegreeSequence, h: int, trials: int, rng: random.Random
) -> AlphaEstimate:
    """Monte Carlo estimate of P(CM(D) passes the girth-h filter)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    successes = sum(1 for _ in filtered_pairings(D.half_edges(), D.n, h, rng, trials))
    low, high = wilson_interval(successes, trials)
    return AlphaEstimate(successes / trials, low, high, successes, trials)


# --- colors from neighborhoods: C(G) and MCB --------------------------------


def _direction_element(g: MarkedGraph, u: int, v: int, k: int, memo: EntryMemo) -> FElement:
    """(edge mark from u to v, depth-(k-1) class of v's ball in g minus uv)."""
    return (g.xi[(u, v)], depth_class(g, u, v, k - 1, memo).code)


def color_graph(g: MarkedGraph, k: int) -> tuple[ColoredMultigraph, ColorSet]:
    """C(G): each edge becomes two conjugate directed colored edges."""
    if k < 1:
        raise ValueError("k must be >= 1")
    directions: dict[tuple[int, int], FElement] = {}
    memo: EntryMemo = {}
    for (u, v) in g.edges:
        directions[(u, v)] = _direction_element(g, u, v, k, memo)
        directions[(v, u)] = _direction_element(g, v, u, k, memo)
    colors = ColorSet(tuple(sorted(set(directions.values()))))
    index = {f: i for i, f in enumerate(colors.f_elements)}
    cm = ColoredMultigraph(g.n, colors)
    for (u, v) in g.edges:
        c = (index[directions[(u, v)]], index[directions[(v, u)]])
        cm.add(c, u, v)
        cm.add(ColorSet.conjugate(c), v, u)
    return cm, colors


# --- colored-degree-sequence text format ------------------------------------
#
#   cds <n> <num-colors>
#   color <id> <xi1> <hex1> <xi2> <hex2> <conjugate-id>
#   v <vertex-id> <color-id>:<count> ...
#
# ids are 1-based; an F-element's class code is hex encoded, "-" when empty.


def _hex(code: bytes) -> str:
    return code.hex() or "-"


def _unhex(text: str) -> bytes:
    return b"" if text == "-" else bytes.fromhex(text)


def write_cds(D: ColoredDegreeSequence) -> str:
    """The colors with a positive count and their conjugates, plus the
    diagonal color of each F-element that none of them names, so that
    read_cds gives back the same ColorSet (read_cds sorts F-elements, as
    color_graph does)."""
    present: set[Color] = set()
    for row in D.degrees:
        for c, k in row:
            if k:
                present.add(c)
                present.add(ColorSet.conjugate(c))
    named = {i for c in present for i in c}
    present.update((i, i) for i in range(len(D.colors.f_elements)) if i not in named)
    order = sorted(present)
    ids = {c: i + 1 for i, c in enumerate(order)}
    fel = D.colors.f_elements
    lines = [f"cds {D.n} {len(order)}"]
    for c in order:
        (x1, t1), (x2, t2) = fel[c[0]], fel[c[1]]
        conj = ids[ColorSet.conjugate(c)]
        lines.append(f"color {ids[c]} {x1} {_hex(t1)} {x2} {_hex(t2)} {conj}")
    for v in range(D.n):
        entries = " ".join(f"{ids[c]}:{k}" for c, k in D.degrees[v] if k)
        lines.append(f"v {v + 1} {entries}".rstrip())
    return "\n".join(lines) + "\n"


def read_cds(text: str) -> ColoredDegreeSequence:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("cds "):
        raise InvalidSequence("missing 'cds <n> <num-colors>' header")
    _, n_s, k_s = lines[0].split()
    n, num_colors = int(n_s), int(k_s)
    raw_colors: dict[int, tuple[FElement, FElement]] = {}
    conjugates: dict[int, int] = {}
    vertex_lines: dict[int, list[tuple[int, int]]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "color" and len(parts) == 7:
            cid = int(parts[1])
            if cid in raw_colors:
                raise InvalidSequence(f"repeated color id: {ln!r}")
            raw_colors[cid] = (
                (parts[2], _unhex(parts[3])),
                (parts[4], _unhex(parts[5])),
            )
            conjugates[cid] = int(parts[6])
        elif parts[0] == "v" and len(parts) >= 2:
            vid = int(parts[1]) - 1
            if not 0 <= vid < n:
                raise InvalidSequence(f"vertex {parts[1]} outside 1..{n}")
            if vid in vertex_lines:
                raise InvalidSequence(f"repeated vertex id: {ln!r}")
            entries = []
            for item in parts[2:]:
                cid_s, _, count_s = item.partition(":")
                entries.append((int(cid_s), int(count_s)))
            if len(dict(entries)) < len(entries):
                raise InvalidSequence(f"repeated color within a vertex: {ln!r}")
            vertex_lines[vid] = entries
        else:
            raise InvalidSequence(f"unrecognized line: {ln!r}")
    if len(raw_colors) != num_colors:
        raise InvalidSequence("color count mismatch")
    for cid, (f1, f2) in raw_colors.items():
        if raw_colors.get(conjugates[cid]) != (f2, f1):
            raise InvalidSequence(f"color {cid} does not name its conjugate")
    unknown = {cid for entries in vertex_lines.values() for cid, _ in entries} - set(raw_colors)
    if unknown:
        raise InvalidSequence(f"unknown color ids {sorted(unknown)}")
    f_elements = tuple(sorted({f for pair in raw_colors.values() for f in pair}))
    colors = ColorSet(f_elements)
    id_to_color = {
        cid: (f_elements.index(f1), f_elements.index(f2))
        for cid, (f1, f2) in raw_colors.items()
    }
    maps: list[dict[Color, int]] = []
    for v in range(n):
        maps.append({id_to_color[cid]: k for cid, k in vertex_lines.get(v, [])})
    return ColoredDegreeSequence.from_maps(colors, maps)


def mcb(tau: tuple[str, ...], h: ColoredMultigraph, alphabets: MarkAlphabets) -> MarkedGraph:
    """Marked color-blind version of (tau, h); inverse of color_graph."""
    if not is_colored_graph(h, 2):
        raise InconsistentColors("colorblind version is not simple")
    marks: dict[tuple[int, int], tuple[str, str]] = {}
    fel = h.colors.f_elements
    for c, entries in h.omega.items():
        for (u, v), count in entries.items():
            if count == 0 or u > v:
                continue
            if h.multiplicity(ColorSet.conjugate(c), v, u) != count:
                raise InconsistentColors(
                    f"directed colors of edge ({u},{v}) are not conjugate"
                )
            (xi_uv, _), (xi_vu, _) = fel[c[0]], fel[c[1]]
            marks[(u, v)] = (xi_uv, xi_vu)
    return build_graph(h.n, marks, tau, alphabets)
