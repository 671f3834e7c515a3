import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localgraphs.canonical import (
    canonicalize,
    canonicalize_pair,
    decode_rooted,
    is_isomorphic,
    local_distance,
    rooted_classes,
)
from localgraphs.graphs import (
    MarkAlphabets,
    RootedMarkedGraph,
    build_graph,
    rooted_component,
    truncate,
)
from localgraphs.verify import random_marked

from oracles import isomorphic_oracle, local_distance_oracle, partition_by_isomorphism
from test_lp import deep_rooted

AB = MarkAlphabets(("s", "t"), ("a", "b"))
AB1 = MarkAlphabets(("s",), ("a",))


def random_rooted(rng, max_n=9, p=0.35, ab=AB):
    n = rng.randint(1, max_n)
    return rooted_component(random_marked(rng, n, p, ab), rng.randrange(n))


def permuted_copy(r: RootedMarkedGraph, rng) -> RootedMarkedGraph:
    g = r.graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    marks = {}
    for (u, v) in g.edges:
        marks[(perm[u], perm[v])] = (g.xi[(u, v)], g.xi[(v, u)])
    tau = [None] * g.n
    for v in range(g.n):
        tau[perm[v]] = g.tau[v]
    return RootedMarkedGraph(
        build_graph(g.n, marks, tuple(tau), g.alphabets), perm[r.root]
    )


def test_star_relabelings_share_code():
    s1 = build_graph(
        4, {(0, 1): ("a", "b"), (0, 2): ("a", "b"), (0, 3): ("a", "a")},
        ("s", "t", "t", "s"), AB,
    )
    s2 = build_graph(
        4, {(0, 3): ("a", "b"), (0, 1): ("a", "a"), (0, 2): ("a", "b")},
        ("s", "s", "t", "t"), AB,
    )
    assert canonicalize(RootedMarkedGraph(s1, 0)) == canonicalize(RootedMarkedGraph(s2, 0))


def test_star_vs_path_distinct():
    star = build_graph(4, {(0, 1): ("a", "a"), (0, 2): ("a", "a"), (0, 3): ("a", "a")},
                       ("s",) * 4, AB1)
    path = build_graph(4, {(0, 1): ("a", "a"), (1, 2): ("a", "a"), (2, 3): ("a", "a")},
                       ("s",) * 4, AB1)
    assert canonicalize(RootedMarkedGraph(star, 0)) != canonicalize(RootedMarkedGraph(path, 0))


def test_three_vertex_rooted_classes():
    # connected rooted graphs on 3 vertices with trivial marks fall into
    # exactly 3 classes: path at an end, path at the middle, triangle
    edges_sets = []
    pairs = [(0, 1), (0, 2), (1, 2)]
    for r in (2, 3):
        for chosen in combinations(pairs, r):
            g = build_graph(3, {e: ("a", "a") for e in chosen}, ("s",) * 3, AB1)
            if g.is_connected():
                edges_sets.append(g)
    rooted = [RootedMarkedGraph(g, v) for g in edges_sets for v in range(3)]
    codes = {canonicalize(r).code for r in rooted}
    oracle_groups = partition_by_isomorphism(rooted)
    assert len(codes) == len(oracle_groups) == 3


def test_complete_invariant_against_backtracking_oracle():
    rng = random.Random(42)
    corpus = [random_rooted(rng) for _ in range(40)]
    codes = [canonicalize(r) for r in corpus]
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            assert (codes[i] == codes[j]) == isomorphic_oracle(corpus[i], corpus[j])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_code_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    r = random_rooted(rng, max_n=7)
    assert canonicalize(r) == canonicalize(permuted_copy(r, rng))


def test_decode_round_trip():
    rng = random.Random(3)
    for _ in range(30):
        r = random_rooted(rng)
        cls = canonicalize(r)
        back = decode_rooted(cls.code)
        assert is_isomorphic(r, back)
        assert canonicalize(back) == cls


def test_pair_codes_track_ordered_roots():
    path = build_graph(3, {(0, 1): ("a", "a"), (1, 2): ("a", "a")}, ("s",) * 3, AB1)
    assert canonicalize_pair(path, 0, 1) != canonicalize_pair(path, 1, 0)
    assert canonicalize_pair(path, 0, 1) == canonicalize_pair(path, 2, 1)


def test_disconnected_graph_is_rejected():
    # an edge plus an isolated vertex: the roots' component is not all of g
    g = build_graph(3, {(0, 1): ("a", "a")}, ("s",) * 3, AB1)
    with pytest.raises(ValueError):
        canonicalize_pair(g, 0, 1)
    with pytest.raises(ValueError):
        rooted_classes(g)


def test_local_distance_isomorphic_is_zero():
    rng = random.Random(5)
    r = random_rooted(rng)
    assert local_distance(r, permuted_copy(r, rng)) == 0


def test_local_distance_root_mark_mismatch_is_one():
    a = RootedMarkedGraph(build_graph(1, {}, ("s",), AB), 0)
    b = RootedMarkedGraph(build_graph(1, {}, ("t",), AB), 0)
    assert local_distance(a, b) == 1


def test_local_distance_depth_three_disagreement():
    # two paths agreeing to depth 2 and differing at depth 3 sit at 1/4
    p3 = build_graph(
        3, {(0, 1): ("a", "a"), (1, 2): ("a", "a")}, ("s",) * 3, AB1
    )
    p4 = build_graph(
        4, {(0, 1): ("a", "a"), (1, 2): ("a", "a"), (2, 3): ("a", "a")},
        ("s",) * 4, AB1,
    )
    a = RootedMarkedGraph(p3, 0)
    b = RootedMarkedGraph(p4, 0)
    for r in (0, 1, 2):
        assert canonicalize(truncate(a, r)) == canonicalize(truncate(b, r))
    assert canonicalize(truncate(a, 3)) != canonicalize(truncate(b, 3))
    assert local_distance(a, b) == Fraction(1, 4)


def with_pendant(r: RootedMarkedGraph, rng) -> RootedMarkedGraph:
    """r with one new vertex hung on a vertex farthest from the root, so the
    eccentricity grows by one and every shallower truncation is unchanged."""
    g = r.graph
    dist = g.bfs_layers(r.root)
    far = max(range(g.n), key=lambda v: (dist[v], v))
    marks = {(u, v): (g.xi[(u, v)], g.xi[(v, u)]) for (u, v) in g.edges}
    marks[(far, g.n)] = (rng.choice(g.alphabets.xi), rng.choice(g.alphabets.xi))
    tau = g.tau + (rng.choice(g.alphabets.theta),)
    return RootedMarkedGraph(build_graph(g.n + 1, marks, tau, g.alphabets), r.root)


def test_local_distance_matches_ball_oracle():
    rng = random.Random(29)
    pairs = []
    for i in range(50):
        ab = AB1 if i % 2 else AB  # one mark each makes deep agreement common
        a = random_rooted(rng, max_n=7, p=0.4, ab=ab)
        pairs.append((a, random_rooted(rng, max_n=7, p=0.4, ab=ab)))
        pairs.append((a, permuted_copy(a, rng)))
        pairs.append((a, with_pendant(a, rng)))
        pairs.append((with_pendant(a, rng), with_pendant(permuted_copy(a, rng), rng)))
    seen = set()
    for a, b in pairs:
        d = local_distance_oracle(a, b)
        assert local_distance(a, b) == d
        assert local_distance(b, a) == d
        seen.add(d)
    assert {Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 4)} <= seen
    assert any(len(a.graph.edges) >= a.n for a, _ in pairs)  # cyclic atoms
    unequal = [(a, b) for a, b in pairs if a.eccentricity() != b.eccentricity()]
    assert any(local_distance(a, b) < Fraction(1, 2) for a, b in unequal)


def test_local_distance_is_a_metric_on_classes():
    rng = random.Random(11)
    corpus = [random_rooted(rng, max_n=5) for _ in range(12)]
    d = [[local_distance(a, b) for b in corpus] for a in corpus]
    for i in range(len(corpus)):
        assert d[i][i] == 0
        for j in range(len(corpus)):
            assert d[i][j] == d[j][i]
            assert (d[i][j] == 0) == (canonicalize(corpus[i]) == canonicalize(corpus[j]))
            for k in range(len(corpus)):
                assert d[i][j] <= d[i][k] + d[k][j]


def test_local_distance_is_an_ultrametric():
    # d(a, c) <= max(d(a, b), d(b, c)); the closed form of d_LP relies on it
    rng = random.Random(17)
    corpus = [random_rooted(rng, max_n=7, p=0.5, ab=AB1) for _ in range(14)]
    corpus += [deep_rooted(rng) for _ in range(14)]
    assert any(len(r.graph.edges) >= r.n for r in corpus)  # some are cyclic
    d = [[local_distance(a, b) for b in corpus] for a in corpus]
    close = 0
    for i, j, k in product(range(len(corpus)), repeat=3):
        assert d[i][k] <= max(d[i][j], d[j][k])
        close += 0 < d[i][k] <= max(d[i][j], d[j][k]) <= Fraction(1, 3)
    assert close  # a, b and b, c agree to radius 1, and a, c differ somewhere


def test_truncation_is_one_lipschitz():
    rng = random.Random(13)
    for _ in range(25):
        a = random_rooted(rng, max_n=7)
        b = random_rooted(rng, max_n=7)
        base = local_distance(a, b)
        for k in (1, 2, 3):
            assert local_distance(truncate(a, k), truncate(b, k)) <= base or base == 0
            if base == 0:
                assert local_distance(truncate(a, k), truncate(b, k)) == 0


def test_degree_bound_preserved_by_truncation():
    rng = random.Random(17)
    for _ in range(20):
        r = random_rooted(rng, max_n=8)
        cap = max((r.graph.degree(v) for v in range(r.n)), default=0)
        t = truncate(r, 2)
        assert all(t.graph.degree(v) <= cap for v in range(t.n))
