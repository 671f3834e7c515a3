import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from localgraphs.colored import (
    ColorSet,
    ColoredDegreeSequence,
    ColoredMultigraph,
    _draw,
    _girth_above,
    _girth_at_most,
    color_graph,
    colored_degree_sequence_of,
    estimate_alpha_h,
    filtered_pairings,
    is_colored_graph,
    mcb,
    read_cds,
    sample_cm,
    sample_filtered_cm,
    wilson_interval,
    write_cds,
)
from localgraphs.errors import InconsistentColors, InvalidSequence
from localgraphs.canonical import canonicalize
from localgraphs.graphs import MarkAlphabets, build_graph, rooted_component, truncate
from localgraphs import colored, verify

from oracles import (
    cm_pairings_oracle,
    colored_axioms_oracle,
    exact_law,
    girth_bfs_oracle,
    girth_oracle,
)

AB = MarkAlphabets(("s", "t"), ("a", "b"))
AB1 = MarkAlphabets(("s",), ("a",))

CS2 = ColorSet((("a", b"x"), ("b", b"y")))


def random_marked(rng, n, p=0.3):
    return verify.random_marked(rng, n, p, AB)


def test_color_set_validation_and_conjugation():
    with pytest.raises(ValueError):
        ColorSet((("a", b""), ("a", b"")))
    # out of order: read_cds(write_cds(D)) would sort them and swap indices
    with pytest.raises(ValueError):
        ColorSet((("b", b""), ("a", b"")))
    assert ColorSet.conjugate((0, 1)) == (1, 0)


def test_multigraph_validate_catches_unpaired_edges():
    g = ColoredMultigraph(2, CS2)
    g.add((0, 1), 0, 1)
    with pytest.raises(InvalidSequence):
        colored_axioms_oracle(g)
    g.add((1, 0), 1, 0)
    colored_axioms_oracle(g)


def test_multigraph_validate_catches_odd_loop():
    g = ColoredMultigraph(1, CS2)
    g.add((0, 0), 0, 0)
    with pytest.raises(InvalidSequence):
        colored_axioms_oracle(g)


def test_colorblind_sums_multiplicities():
    g = ColoredMultigraph(3, CS2)
    g.add((0, 1), 0, 1)
    g.add((1, 0), 1, 0)
    g.add((0, 0), 0, 1)
    g.add((0, 0), 1, 0)
    cb = g.colorblind()
    assert cb[(0, 1)] == 2 and cb[(1, 0)] == 2


def test_degree_sequence_validation():
    with pytest.raises(InvalidSequence):
        # off-diagonal color without matching conjugate mass
        ColoredDegreeSequence.from_maps(CS2, [{(0, 1): 1}, {}])
    with pytest.raises(InvalidSequence):
        # diagonal color with odd total
        ColoredDegreeSequence.from_maps(CS2, [{(0, 0): 1}, {}])
    D = ColoredDegreeSequence.from_maps(CS2, [{(0, 1): 1}, {(1, 0): 1}])
    assert D.column_sums() == {(0, 1): 1, (1, 0): 1}
    assert sum(dict(D.degrees[0]).values()) == 1


def test_degree_sequence_validated_on_direct_construction():
    with pytest.raises(InvalidSequence):
        # conjugate column sums 2 and 1
        ColoredDegreeSequence(CS2, ((((0, 1), 2),), (((1, 0), 1),)))
    with pytest.raises(InvalidSequence):
        # odd diagonal column sum
        ColoredDegreeSequence(CS2, ((((0, 0), 1),),))


def test_sample_cm_forced_edge():
    # one (0,1) half-edge at vertex 0 and one (1,0) at vertex 1: forced outcome
    D = ColoredDegreeSequence.from_maps(CS2, [{(0, 1): 1}, {(1, 0): 1}])
    g = sample_cm(D, random.Random(0))
    assert g.multiplicity((0, 1), 0, 1) == 1
    assert g.multiplicity((1, 0), 1, 0) == 1
    colored_axioms_oracle(g)


def test_sample_cm_diagonal_matching_outcomes():
    # four diagonal half-edges on two vertices: matchings only
    D = ColoredDegreeSequence.from_maps(CS2, [{(0, 0): 2}, {(0, 0): 2}])
    rng = random.Random(1)
    seen = set()
    for _ in range(200):
        g = sample_cm(D, rng)
        colored_axioms_oracle(g)
        degs = colored_degree_sequence_of(g)
        assert degs.column_sums() == D.column_sums()
        assert dict(degs.degrees[0]) == dict(D.degrees[0]) and dict(degs.degrees[1]) == dict(D.degrees[1])
        seen.add(tuple(sorted(g.colorblind().items())))
    # either a double edge or two self-loops
    assert len(seen) == 2


def test_sample_cm_preserves_colored_degrees():
    rng = random.Random(2)
    for _ in range(30):
        maps = []
        n = rng.randint(2, 6)
        # random symmetric instance via a random colored multigraph
        base = ColoredMultigraph(n, CS2)
        for _ in range(rng.randint(1, 8)):
            u, v = rng.randrange(n), rng.randrange(n)
            c = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1)])
            if u == v and c == ColorSet.conjugate(c):
                base.add(c, u, u)
                base.add(c, u, u)
            elif u != v:
                base.add(c, u, v)
                base.add(ColorSet.conjugate(c), v, u)
        D = colored_degree_sequence_of(base)
        g = sample_cm(D, rng)
        colored_axioms_oracle(g)
        assert colored_degree_sequence_of(g).degrees == D.degrees


def test_girth_filter_triangle():
    # triangle with trivial colors
    cs = ColorSet((("a", b""),))
    g = ColoredMultigraph(3, cs)
    for (u, v) in ((0, 1), (1, 2), (0, 2)):
        g.add((0, 0), u, v)
        g.add((0, 0), v, u)
    assert is_colored_graph(g, 2)
    assert not is_colored_graph(g, 3)


def test_girth_filter_rejects_multi_edges_and_loops():
    cs = ColorSet((("a", b""),))
    g = ColoredMultigraph(2, cs)
    for _ in range(2):
        g.add((0, 0), 0, 1)
        g.add((0, 0), 1, 0)
    assert not is_colored_graph(g, 1)
    loop = ColoredMultigraph(1, cs)
    loop.add((0, 0), 0, 0)
    loop.add((0, 0), 0, 0)
    assert not is_colored_graph(loop, 1)


def test_girth_filter_monotone_in_h():
    # 5-cycle: simple with girth 5
    cs = ColorSet((("a", b""),))
    g = ColoredMultigraph(5, cs)
    for i in range(5):
        j = (i + 1) % 5
        g.add((0, 0), i, j)
        g.add((0, 0), j, i)
    assert is_colored_graph(g, 4)
    assert not is_colored_graph(g, 5)
    assert not is_colored_graph(g, 6)


def test_girth_detector_matches_oracle():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(3, 12)
        adj = [set() for _ in range(n)]
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 2.0 / n:
                    adj[u].add(v)
                    adj[v].add(u)
        g_true = girth_oracle(adj)
        for h in range(3, 9):
            assert _girth_at_most(adj, h) == (g_true <= h), (adj, h, g_true)


def _cycle(vs) -> list[tuple[int, int]]:
    return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def _path(vs) -> list[tuple[int, int]]:
    return list(zip(vs, vs[1:]))


def _girth_families():
    """(name, n, edges) of graphs where peeling and root dropping do work:
    cycles, cycles with pendant paths and trees, forests, isolated vertices,
    chorded cycles, theta graphs and unions of cycles."""
    rng = random.Random(28)
    for k in range(3, 13):
        # cycles of lengths k to 12, so the girth is k
        edges, n = [], 0
        for length in range(k, 13):
            edges += _cycle(range(n, n + length))
            n += length
        yield f"cycles{k}-12", n, list(edges)
        cycle_vertices = n
        for _ in range(8):
            # a pendant path, or a random tree, hung from a cycle vertex
            size = rng.randint(1, 6)
            grown = [rng.randrange(cycle_vertices)] + list(range(n, n + size))
            if rng.random() < 0.5:
                edges += _path(grown)
            else:
                edges += [(rng.choice(grown[:i]), grown[i]) for i in range(1, len(grown))]
            n += size
        yield f"cycles{k}-12+trees", n + 3, edges  # and three isolated vertices
    for size in (1, 2, 7, 30):
        n = 3 * size
        edges = [(rng.randrange(i), i) for i in range(1, n) if i % size]
        yield f"forest{size}", n, edges
    yield "isolated", 5, []
    for k in (4, 7, 10):
        for j in range(2, k - 1):
            yield f"C{k}+chord0-{j}", k, _cycle(range(k)) + [(0, j)]
    for a, b, c in ((1, 2, 2), (2, 2, 2), (1, 3, 5), (3, 3, 4), (2, 5, 6), (4, 6, 6)):
        # three paths of lengths a, b, c between vertices 0 and 1
        edges, n = [], 2
        for length in (a, b, c):
            inner = list(range(n, n + length - 1))
            edges += _path([0] + inner + [1])
            n += length - 1
        yield f"theta{a}-{b}-{c}", n, edges
    for n in (20, 60, 200):
        # a 2-regular graph like criterion 9's draws: a random vertex order
        # cut into cycles of length >= 3
        order = rng.sample(range(n), n)
        edges, start = [], 0
        while start < n:
            length = rng.randint(3, 12)
            if n - start - length < 3:
                length = n - start
            edges += _cycle(order[start:start + length])
            start += length
        yield f"union{n}", n, edges


@pytest.mark.parametrize(
    "name,n,edges", [pytest.param(*f, id=f[0]) for f in _girth_families()]
)
def test_peeling_girth_filter_matches_oracle(name, n, edges):
    # relabelled at random, so the ascending root order meets each shape
    # from different vertices
    perm = random.Random(name).sample(range(n), n)
    edges = {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    g_true = girth_oracle(adj)
    for h in range(3, 14):
        assert _girth_at_most(adj, h) == (g_true <= h), h
        assert _girth_above(edges, n, h) == (g_true > h), h


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("h", [3, 5])
def test_peeling_girth_filter_matches_bfs_filter_on_alpha_draws(n, h, monkeypatch):
    """Every complete simple draw of a seeded girth-filter run on criterion
    9's profile gets the verdict of the BFS-from-every-vertex filter."""
    seen = []
    original = colored._girth_above

    def recorded(edges, n, h):
        seen.append(set(edges))
        return original(edges, n, h)

    monkeypatch.setattr(colored, "_girth_above", recorded)
    half_edges = verify._alpha_profile(n).half_edges()
    for _ in filtered_pairings(half_edges, n, h, random.Random(n + h), 200):
        pass
    monkeypatch.undo()
    assert seen
    for edges in seen:
        adj = [set() for _ in range(n)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        assert _girth_above(edges, n, h) == (not girth_bfs_oracle(adj, h))


def test_color_graph_round_trips_through_mcb():
    rng = random.Random(4)
    for _ in range(25):
        g = random_marked(rng, rng.randint(2, 8))
        for k in (1, 2):
            cm, _ = color_graph(g, k)
            colored_axioms_oracle(cm)
            back = mcb(g.tau, cm, g.alphabets)
            assert back.edges == g.edges
            assert dict(back.xi) == dict(g.xi)
            assert back.tau == g.tau


def test_colorblind_of_color_graph_matches_edges():
    rng = random.Random(5)
    g = random_marked(rng, 7)
    cm, _ = color_graph(g, 1)
    cb = cm.colorblind()
    assert {e for e, k in cb.items() if k} == {
        (u, v) for (u, v) in g.edges
    } | {(v, u) for (u, v) in g.edges}


def test_color_graph_cycle_uses_one_conjugate_class():
    # on a uniform cycle every direction looks alike, so one F-element
    g = build_graph(
        4,
        {(0, 1): ("a", "a"), (1, 2): ("a", "a"), (2, 3): ("a", "a"), (0, 3): ("a", "a")},
        ("s",) * 4,
        AB1,
    )
    cm, colors = color_graph(g, 1)
    assert len(colors.f_elements) == 1


def test_color_graph_matches_edge_deletion_oracle():
    # F-element of u -> v: the mark xi(u, v) and the depth-(k-1) class of v's
    # component once the edge uv is deleted from the edge list
    rng = random.Random(12)
    cyclic = 0
    for _ in range(30):
        g = random_marked(rng, rng.randint(3, 9), p=0.4)
        cyclic += len(g.edges) >= g.n
        marks = {(u, v): (g.xi[(u, v)], g.xi[(v, u)]) for (u, v) in g.edges}
        for k in (1, 2, 3):
            cm, colors = color_graph(g, k)
            for (u, v) in g.edges:
                rest = {e: x for e, x in marks.items() if e != (u, v)}
                pruned = build_graph(g.n, rest, g.tau, g.alphabets)
                f_uv = (g.xi[(u, v)], canonicalize(truncate(rooted_component(pruned, v), k - 1)).code)
                f_vu = (g.xi[(v, u)], canonicalize(truncate(rooted_component(pruned, u), k - 1)).code)
                c = (colors.f_elements.index(f_uv), colors.f_elements.index(f_vu))
                assert cm.multiplicity(c, u, v) == 1
    assert cyclic >= 10


def test_mcb_rejects_inconsistent_colors():
    g = ColoredMultigraph(2, CS2)
    g.add((0, 1), 0, 1)
    g.add((0, 1), 1, 0)  # wrong conjugate color on the way back
    with pytest.raises(InconsistentColors):
        mcb(("s", "s"), g, AB)


def test_cds_round_trip():
    rng = random.Random(6)
    for _ in range(15):
        g = random_marked(rng, rng.randint(2, 7))
        cm, _ = color_graph(g, rng.choice((1, 2)))
        D = colored_degree_sequence_of(cm)
        back = read_cds(write_cds(D))
        assert back.column_sums() == D.column_sums()
        assert [dict(back.degrees[v]) for v in range(back.n)] == [
            dict(D.degrees[v]) for v in range(D.n)
        ]


def test_cds_zero_counts_do_not_break_equality():
    # the zero count of colour 2 at vertex 1 is not written back
    text = "cds 2 2\ncolor 1 a - b - 2\ncolor 2 b - a - 1\nv 1 1:1 2:0\nv 2 2:1\n"
    D = read_cds(text)
    assert D.degrees[0] == (((0, 1), 1),)
    assert read_cds(write_cds(D)) == D


def test_cds_round_trip_keeps_a_color_used_only_with_zero_counts():
    # F-element c appears only in colours 2 and 3, whose one count is zero
    text = (
        "cds 2 3\ncolor 1 a - a - 1\ncolor 2 a - c - 3\ncolor 3 c - a - 2\n"
        "v 1 1:1 2:0\nv 2 1:1\n"
    )
    D = read_cds(text)
    assert D.colors.f_elements == (("a", b""), ("c", b""))
    assert read_cds(write_cds(D)) == D


def test_read_cds_rejects_garbage():
    with pytest.raises(InvalidSequence):
        read_cds("nope\n")


def test_read_cds_rejects_negative_counts():
    with pytest.raises(InvalidSequence, match="negative"):
        read_cds("cds 2 1\ncolor 1 a - a - 1\nv 1 1:-1\nv 2 1:-1\n")


HEADER = "cds 2 1\ncolor 1 a - a - 1\n"


def test_read_cds_rejects_a_repeated_vertex_line():
    with pytest.raises(InvalidSequence, match="'v 1 1:3'"):
        read_cds(HEADER + "v 1 1:1\nv 2 1:1\nv 1 1:3\n")


def test_read_cds_rejects_a_repeated_color_line():
    with pytest.raises(InvalidSequence, match="'color 1 b - b - 1'"):
        read_cds(HEADER + "color 1 b - b - 1\nv 1 1:1\nv 2 1:1\n")


def test_read_cds_rejects_a_color_repeated_within_a_vertex():
    with pytest.raises(InvalidSequence, match="'v 1 1:1 1:1'"):
        read_cds(HEADER + "v 1 1:1 1:1\nv 2 1:2\n")


def test_wilson_interval_basics():
    low, high = wilson_interval(50, 100)
    assert 0 < low < 0.5 < high < 1
    assert wilson_interval(0, 0) == (0.0, 1.0)
    l0, h0 = wilson_interval(0, 100)
    assert l0 == 0.0 and h0 < 0.1


def test_alpha_estimate_trivial_cases():
    # forced single edge always passes any girth filter
    D = ColoredDegreeSequence.from_maps(CS2, [{(0, 1): 1}, {(1, 0): 1}])
    est = estimate_alpha_h(D, 3, 50, random.Random(7))
    assert est.estimate == 1.0 and est.successes == 50
    # a forced triangle never passes h = 3
    g = build_graph(
        3, {(0, 1): ("a", "a"), (1, 2): ("a", "a"), (0, 2): ("a", "a")},
        ("s",) * 3, AB1,
    )
    cm, _ = color_graph(g, 2)
    D3 = colored_degree_sequence_of(cm)
    est3 = estimate_alpha_h(D3, 3, 50, random.Random(8))
    assert est3.estimate < 1.0


# Tiny instances for the exact law of the filtered sampler (8 half-edges each).
# LAW_D: a diagonal color on 4 half-edges and one conjugate pair on 2 + 2;
# LAW_D_DIAGONAL: 6 diagonal half-edges (one vertex holds two) and a forced
# conjugate edge.  At h = 2 and h = 3 the filter rejects some pairings.
LAW_D = ColoredDegreeSequence.from_maps(
    CS2,
    [
        {(0, 0): 1, (1, 0): 1},
        {(0, 0): 1},
        {(0, 0): 1, (0, 1): 1},
        {(0, 1): 1, (1, 0): 1},
        {(0, 0): 1},
    ],
)
LAW_D_DIAGONAL = ColoredDegreeSequence.from_maps(
    CS2,
    [{(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1}, {(0, 0): 2}, {(0, 0): 1}, {(0, 0): 1}],
)


def _oracle_passes(pairing, n, h):
    edges = [(min(u, v), max(u, v)) for _, u, v in pairing]
    if any(u == v for u, v in edges) or len(set(edges)) < len(edges):
        return False
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return girth_oracle(adj) > h


def _pairing_of(g):
    """The oracle's pairing key of a colored multigraph.  A diagonal color
    counts each edge in both directions, so a loop twice at its vertex."""
    out = []
    for c, entries in g.omega.items():
        for (u, v), k in entries.items():
            if c < ColorSet.conjugate(c) or (c[0] == c[1] and u < v):
                out += [(c, u, v)] * k
            elif c[0] == c[1] and u == v:
                out += [(c, u, u)] * (k // 2)
    return tuple(sorted(out))


@pytest.mark.parametrize("D", [LAW_D, LAW_D_DIAGONAL], ids=["pair", "diagonal"])
@pytest.mark.parametrize("h", [2, 3])
def test_filtered_cm_matches_exact_conditional_law(D, h):
    pairings = cm_pairings_oracle(D)
    accepted = [p for p in pairings if _oracle_passes(p, D.n, h)]
    assert 0 < len(accepted) < len(pairings)
    law = {key: count / len(accepted) for key, count in Counter(accepted).items()}
    assert len(law) >= 2
    trials = 20_000
    rng = random.Random(4100 + h)
    counts = Counter(
        _pairing_of(sample_filtered_cm(D, h, rng, 1000)[0]) for _ in range(trials)
    )
    # criterion 3's rule: every outcome seen, each within 4 standard errors
    assert set(counts) == set(law)
    for key, p in law.items():
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(counts[key] / trials - p) < 4 * se, (key, counts[key], p)


# Exact laws: exact_law runs a sampler under every sequence of index draws,
# each draw below m weighted 1/m, so these compare Fractions, not frequencies.
# With max_attempts=1 a rejected draw is the outcome None.


def _oracle_law(D, h=None):
    """The law of one CM(D) draw from the labelled pairings; with h, each
    pairing that the girth-h filter rejects counts as None."""
    pairings = cm_pairings_oracle(D)
    law = {}
    for p in pairings:
        key = p if h is None or _oracle_passes(p, D.n, h) else None
        law[key] = law.get(key, 0) + Fraction(1, len(pairings))
    return law


@pytest.mark.parametrize("D", [LAW_D, LAW_D_DIAGONAL], ids=["pair", "diagonal"])
def test_cm_law_is_exact(D):
    law = exact_law(lambda rng: _pairing_of(sample_cm(D, rng)))
    assert law == _oracle_law(D)
    assert any(u == v for key in law for _, u, v in key)


@pytest.mark.parametrize("D", [LAW_D, LAW_D_DIAGONAL], ids=["pair", "diagonal"])
@pytest.mark.parametrize("h", [2, 3])
def test_filtered_cm_law_is_exact(D, h):
    law = exact_law(lambda rng: _pairing_of(sample_filtered_cm(D, h, rng, 1)[0]))
    assert law == _oracle_law(D, h)
    assert None in law and len(law) >= 3


@pytest.mark.parametrize(
    "D,h,alpha",
    [
        (LAW_D, 2, Fraction(1, 2)),
        (LAW_D, 3, Fraction(1, 3)),
        (LAW_D_DIAGONAL, 2, Fraction(2, 3)),
        (LAW_D_DIAGONAL, 3, Fraction(8, 15)),
    ],
    ids=["pair-2", "pair-3", "diagonal-2", "diagonal-3"],
)
def test_one_alpha_trial_succeeds_with_probability_alpha_h(D, h, alpha):
    law = exact_law(lambda rng: estimate_alpha_h(D, h, 1, rng).successes)
    assert law == {1: alpha, 0: 1 - alpha}
    assert alpha == 1 - _oracle_law(D, h)[None]


def test_from_maps_shares_equal_rows():
    from localgraphs.verify import _alpha_profile

    D = _alpha_profile(8)
    assert D.degrees[0] is D.degrees[2] and D.degrees[1] is D.degrees[3]
    assert len({id(row) for row in D.degrees}) == 2
    # the same profile from one fresh tuple per vertex
    unshared = ColoredDegreeSequence(
        D.colors,
        tuple(
            tuple(sorted(({(0, 0): 2} if v % 2 == 0 else {(0, 1): 1, (1, 0): 1}).items()))
            for v in range(8)
        ),
    )
    assert unshared.degrees[0] is not unshared.degrees[2]
    assert D == unshared and hash(D) == hash(unshared)
    assert D.half_edges() == unshared.half_edges()
    assert write_cds(D) == write_cds(unshared)
    assert read_cds(write_cds(D)) == D


class _ViaRandbelow(random.Random):
    """The Mersenne Twister asked for each index through _randbelow, as a
    generator that draws integers its own way is."""

    def _randbelow(self, m):
        return super()._randbelow(m)


#: one diagonal color of 2-regular stubs, so draws meet loops and repeated
#: pairs, at lengths that start or end a run of one bit length; and
#: criterion 9's profile, with a diagonal color and a conjugate pair
STREAM_CASES = [{(0, 0): [v // 2 for v in range(m)]} for m in (2, 4, 6, 8, 30, 32, 34, 64, 66, 1000)]
STREAM_CASES += [verify._alpha_profile(n).half_edges() for n in (2, 10, 200)]


@pytest.mark.parametrize("seed", range(5))
def test_randbelow_path_matches_the_inlined_path(seed):
    for half_edges in STREAM_CASES:
        for check in (False, True):
            inlined, via = random.Random(seed), _ViaRandbelow(seed)
            for _ in range(3):
                got = _draw(half_edges, inlined, set() if check else None)
                assert got == _draw(half_edges, via, set() if check else None)
                assert inlined.getstate() == via.getstate()


class _LinearCongruential(random.Random):
    """Overrides random() only, so Random draws integers through random()."""

    def seed(self, a=None, version=2):
        self.x = a or 0
        super().seed(a, version)

    def random(self):
        self.x = (6364136223846793005 * self.x + 1442695040888963407) % 2**64
        return self.x / 2**64


class _ReversingShuffle(random.Random):
    def shuffle(self, x):
        x.reverse()


@pytest.mark.parametrize("cls", [_LinearCongruential, _ReversingShuffle])
def test_index_draws_follow_the_generator_s_integer_method(cls):
    """A class that draws integers through random() is asked for each index
    through its _randbelow, so it pairs otherwise than the Mersenne Twister
    would; one that overrides only shuffle still draws them with getrandbits,
    inlined, since the pairing calls no shuffle."""
    half_edges = verify._alpha_profile(200).half_edges()
    for seed in range(3):
        twister = _draw(half_edges, random.Random(seed), None)
        assert (_draw(half_edges, cls(seed), None) == twister) == (cls is _ReversingShuffle)


def test_a_checked_draw_is_the_full_draw_cut_at_its_first_loop_or_repeated_pair():
    half_edges = verify._alpha_profile(40).half_edges()
    rejected = 0
    for seed in range(200):
        edges = set()
        checked = _draw(half_edges, random.Random(seed), edges)
        full = _draw(half_edges, random.Random(seed), None)
        pairs = [(min(u, v), max(u, v)) for _, us, vs in full for u, v in zip(us, vs)]
        simple = all(u < v for u, v in pairs) and len(set(pairs)) == len(pairs)
        assert (checked is not None) == simple
        if checked is None:
            rejected += 1
        else:
            assert checked == full and edges == set(pairs)
    assert 0 < rejected < 200


class _CountingRandom(random.Random):
    def __init__(self, seed):
        self.calls = 0
        super().__init__(seed)

    def getrandbits(self, k):
        self.calls += 1
        return super().getrandbits(k)


def test_draws_stop_at_their_first_loop_or_repeated_pair():
    D = verify._alpha_profile(2000)
    early, full = _CountingRandom(9), _CountingRandom(9)
    assert estimate_alpha_h(D, 3, 200, early).trials == 200
    half_edges = D.half_edges()
    for _ in range(200):
        _draw(half_edges, full, None)
    assert early.calls < full.calls / 2
