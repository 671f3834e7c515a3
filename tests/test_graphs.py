import random

import pytest

from localgraphs import verify
from localgraphs.errors import NonGraphical
from localgraphs.graphs import (
    DegreeSequence,
    MarkAlphabets,
    MarkedGraph,
    RootedMarkedGraph,
    ball,
    build_graph,
    read_graph,
    rooted_component,
    truncate,
    write_graph,
)

from oracles import bfs_layers_oracle, erdos_gallai_oracle

AB = MarkAlphabets(("s", "t"), ("a", "b"))


def random_marked(rng, n, p=0.3):
    return verify.random_marked(rng, n, p, AB)


def test_marked_graph_validation():
    with pytest.raises(ValueError):
        build_graph(2, {(0, 0): ("a", "a")}, ("s", "s"), AB)  # self-loop
    with pytest.raises(ValueError):
        build_graph(1, {}, ("s", "s"), AB)  # tau length mismatch
    with pytest.raises(ValueError):
        build_graph(2, {(0, 1): ("z", "a")}, ("s", "s"), AB)  # unknown mark


def test_build_graph_keys_xi_by_its_edge_tuples():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(2, 9)
        # small vertex ids share prebuilt pairs, large ones do not
        low = rng.choice((0, 60))
        marks = {}
        for u in range(low, low + n):
            for v in range(u + 1, low + n):
                if rng.random() < 0.4:
                    key = (u, v) if rng.random() < 0.5 else (v, u)
                    marks[key] = (rng.choice(AB.xi), rng.choice(AB.xi))
        g = build_graph(low + n, marks, None, AB)
        # the dict built one key per orientation, in the order given
        expected = {}
        for (u, v), (xuv, xvu) in marks.items():
            expected[(u, v)] = xuv
            expected[(v, u)] = xvu
        assert list(g.xi.items()) == list(expected.items())
        edges = {e: e for e in g.edges}
        for key in g.xi:
            if key[0] < key[1]:
                assert key is edges[key]
        sub = ball(g, low).graph
        edges = {e: e for e in sub.edges}
        assert all(key is edges[key] for key in sub.xi if key[0] < key[1])


def test_adjacency_rows_are_sorted_neighbours_and_pooled():
    rng = random.Random(43)
    for _ in range(40):
        # ids on both sides of the pooling bound
        g = random_marked(rng, rng.randint(1, 80), p=rng.choice((0.02, 0.05, 0.2)))
        for v in range(g.n):
            assert g.adjacency[v] == tuple(sorted(w for w in range(g.n) if (min(v, w), max(v, w)) in g.edges))
    # two paths share their one- and two-neighbour rows below the bound
    g, h = (build_graph(n, {(i, i + 1): ("a", "a") for i in range(n - 1)}, None, AB) for n in (10, 12))
    assert all(g.adjacency[v] is h.adjacency[v] for v in range(9))


def test_alphabet_validation():
    with pytest.raises(ValueError):
        MarkAlphabets((), ("a",))
    with pytest.raises(ValueError):
        MarkAlphabets(("s", "s"), ("a",))


def test_mark_symbols_with_separators_are_rejected():
    # these two edges would share the canonical code n=2;r=0;t=a,b,c;e=0.1.-.-
    for tau in (("a,b", "c"), ("a", "b,c")):
        with pytest.raises(ValueError):
            build_graph(2, {(0, 1): ("-", "-")}, tau, MarkAlphabets(tau, ("-",)))
    for bad in ("", "a b", "a\t", "a,b", "a.b", "a|b", "a;b", "a=b"):
        with pytest.raises(ValueError):
            MarkAlphabets(("s", bad), ("a",))
        with pytest.raises(ValueError):
            MarkAlphabets(("s",), ("a", bad))


def test_truncate_single_vertex_identity():
    g = build_graph(1, {}, ("s",), AB)
    r = RootedMarkedGraph(g, 0)
    out = truncate(r, 0)
    assert out.n == 1 and out.graph.tau == ("s",)


def test_truncate_path_radius_one():
    # a-b-c rooted at a: radius 1 keeps the a-b edge with its marks
    g = build_graph(3, {(0, 1): ("a", "b"), (1, 2): ("b", "b")}, ("s", "t", "s"), AB)
    out = truncate(RootedMarkedGraph(g, 0), 1)
    assert out.n == 2
    assert out.graph.edges == frozenset({(0, 1)})
    assert out.graph.xi[(out.root, 1 - out.root)] == "a"
    assert out.graph.tau[out.root] == "s"


def test_truncate_matches_independent_bfs():
    rng = random.Random(7)
    for _ in range(20):
        g = random_marked(rng, 30, p=0.08)
        root = rng.randrange(30)
        comp = rooted_component(g, root)
        out = truncate(comp, 2)
        # the oracle ball's induced subgraph, vertices in ascending order
        verts = sorted(bfs_layers_oracle(g, root, 2))
        pos = {v: i for i, v in enumerate(verts)}
        edges = {(pos[a], pos[b]) for (a, b) in g.edges if a in pos and b in pos}
        xi = {(pos[a], pos[b]): x for (a, b), x in g.xi.items() if a in pos and b in pos}
        for got in (out, ball(g, root, 2)):
            assert got.n == len(verts)
            assert got.root == pos[root]
            assert got.graph.edges == edges
            assert dict(got.graph.xi) == xi
            assert got.graph.tau == tuple(g.tau[v] for v in verts)


def test_ball_excluded_edge_on_a_triangle():
    marks = {(0, 1): ("a", "b"), (1, 2): ("a", "a"), (0, 2): ("b", "b")}
    g = build_graph(3, marks, ("s", "t", "s"), AB)
    near = ball(g, 1, 1, exclude_edge=(0, 1))
    assert near.n == 2 and near.graph.edges == frozenset({(0, 1)})
    # at radius 2 vertex 0 is back, reached through 2; only the edge 01 is gone
    far = ball(g, 1, 2, exclude_edge=(1, 0))
    assert far.n == 3 and far.root == 1
    assert far.graph.edges == frozenset({(1, 2), (0, 2)})
    assert far.graph.xi[(0, 2)] == "b" and far.graph.xi[(1, 2)] == "a"


def test_ball_excluded_edge_on_a_four_cycle():
    marks = {(0, 1): ("a", "b"), (1, 2): ("b", "a"), (2, 3): ("a", "a"), (0, 3): ("b", "a")}
    g = build_graph(4, marks, ("s", "t", "s", "t"), AB)
    assert ball(g, 1, 2, exclude_edge=(0, 1)).graph.edges == frozenset({(0, 1), (1, 2)})
    for r in (3, None):
        out = ball(g, 1, r, exclude_edge=(0, 1))
        assert out.n == 4 and out.root == 1
        assert out.graph.edges == frozenset({(1, 2), (2, 3), (0, 3)})
        assert out.graph.xi[(3, 0)] == "a" and out.graph.xi[(0, 3)] == "b"
    with pytest.raises(ValueError):
        ball(g, 1, -1)


def test_rooted_graph_rejects_a_disconnected_graph():
    # ball marks its subgraph connected without a search; a graph built by
    # hand is still searched
    g = build_graph(3, {(0, 1): ("a", "b")}, ("s", "t", "s"), AB)
    with pytest.raises(ValueError, match="connected"):
        RootedMarkedGraph(g, 0)
    assert ball(g, 0).n == 2 and ball(g, 2).n == 1


def test_truncate_idempotent():
    rng = random.Random(8)
    g = random_marked(rng, 12)
    r = rooted_component(g, 0)
    once = truncate(r, 2)
    again = truncate(once, 3)
    assert again.graph.edges == once.graph.edges
    assert again.graph.tau == once.graph.tau


def color_degree(g: MarkedGraph, o: int, x: str, xp: str) -> int:
    """Number of neighbours v of o with xi(v, o) = x and xi(o, v) = xp."""
    return sum(
        1 for v in g.adjacency[o] if g.xi[(v, o)] == x and g.xi[(o, v)] == xp
    )


def test_color_degree_isolated_and_single_edge():
    iso = build_graph(1, {}, ("s",), AB)
    assert all(color_degree(iso, 0, x, xp) == 0 for x in AB.xi for xp in AB.xi)
    # edge u-v with xi(v,u)=a and xi(u,v)=b
    g = build_graph(2, {(0, 1): ("b", "a")}, ("s", "s"), AB)
    assert color_degree(g, 0, "a", "b") == 1
    assert color_degree(g, 0, "b", "a") == 0


def test_color_degree_sums_to_degree():
    rng = random.Random(9)
    g = random_marked(rng, 15)
    for o in range(g.n):
        total = sum(color_degree(g, o, x, xp) for x in AB.xi for xp in AB.xi)
        assert total == g.degree(o)


def test_degree_sequence_validation():
    with pytest.raises(ValueError):
        DegreeSequence((1, 1, 1))  # odd sum
    with pytest.raises(ValueError):
        DegreeSequence((-1, 1))


def test_erdos_gallai_against_enumeration():
    # graphicality decision must match nonemptiness of the enumerated class
    from itertools import product

    from localgraphs.enumeration import enumerate_graphs

    for n in (2, 3, 4, 5):
        for ell in product(range(4), repeat=n):
            if sum(ell) % 2:
                continue
            ds = DegreeSequence(ell)
            nonempty = enumerate_graphs(ds).count > 0
            assert ds.is_graphical() == nonempty, ell


def test_erdos_gallai_matches_quadratic_oracle_exhaustively():
    # every even-sum sequence with n <= 6 and degrees 0..n: the empty and
    # all-zero sequences and seq[0] >= n included
    from itertools import product

    decisions = set()
    for n in range(7):
        for ell in product(range(n + 1), repeat=n):
            if sum(ell) % 2 == 0:
                got = DegreeSequence(ell).is_graphical()
                assert got == erdos_gallai_oracle(ell), ell
                decisions.add(got)
    assert decisions == {True, False}


def test_erdos_gallai_matches_quadratic_oracle_on_random_sequences():
    rng = random.Random(7)
    decisions = {True: 0, False: 0}
    for _ in range(2000):
        n = rng.randint(1, 60)
        cap = rng.randint(0, n)
        ell = [rng.randint(0, cap) for _ in range(n)]
        if sum(ell) % 2:
            ell[rng.randrange(n)] ^= 1
        got = DegreeSequence(tuple(ell)).is_graphical()
        assert got == erdos_gallai_oracle(ell), ell
        decisions[got] += 1
    assert min(decisions.values()) > 100, decisions


def test_nongraphical_is_raised():
    with pytest.raises(NonGraphical):
        DegreeSequence((3, 3)).require_graphical()


def test_graph_text_round_trip():
    rng = random.Random(10)
    for _ in range(10):
        g = random_marked(rng, 8)
        back = read_graph(write_graph(g), AB)
        assert back.edges == g.edges
        assert back.tau == g.tau
        assert dict(back.xi) == dict(g.xi)


def test_read_graph_rejects_garbage():
    with pytest.raises(ValueError):
        read_graph("not a graph\n")
