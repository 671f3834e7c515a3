import random
import time
from fractions import Fraction

from localgraphs.canonical import local_distance, radius_profile
from localgraphs.graphs import (
    DegreeSequence,
    MarkAlphabets,
    MarkedGraph,
    build_graph,
    rooted_component,
)
from localgraphs.lp_distance import levy_prokhorov, max_flow
from localgraphs.measures import (
    empirical_distribution,
    measure_from_pairs,
    read_measure,
    truncate_measure,
    write_measure,
)
from localgraphs.surgery import modify_graph
from localgraphs.verify import (
    lp_subset_oracle,
    random_bounded_tree,
    random_marked,
    random_sparse_graph,
)

from oracles import levy_prokhorov_oracle, lp_flow_oracle

AB = MarkAlphabets(("s", "t"), ("a", "b"))


def random_rooted(rng, max_n=6):
    n = rng.randint(1, max_n)
    return rooted_component(random_marked(rng, n, 0.35, AB), rng.randrange(n))


def random_measure(rng, atoms=3):
    pairs = []
    cuts = sorted(rng.randint(1, 11) for _ in range(atoms - 1))
    bounds = [0] + cuts + [12]
    for i in range(atoms):
        w = Fraction(bounds[i + 1] - bounds[i], 12)
        if w > 0:
            pairs.append((random_rooted(rng), w))
    return measure_from_pairs(pairs)


def test_max_flow_simple_network():
    # two disjoint unit paths from source 0 to sink 3
    cap = {
        (0, 1): Fraction(1),
        (0, 2): Fraction(1),
        (1, 3): Fraction(1),
        (2, 3): Fraction(1),
    }
    assert max_flow(4, cap, 0, 3) == 2


def test_max_flow_bottleneck():
    cap = {(0, 1): Fraction(5), (1, 2): Fraction(1, 3), (2, 3): Fraction(7)}
    assert max_flow(4, cap, 0, 3) == Fraction(1, 3)


def test_distance_to_self_is_zero():
    rng = random.Random(61)
    for _ in range(10):
        mu = random_measure(rng)
        assert levy_prokhorov(mu, mu) == 0


def test_point_masses_at_distance_t():
    # d_LP(delta_x, delta_y) = min(d(x, y), 1), and d is already <= 1
    rng = random.Random(67)
    for _ in range(15):
        a, b = random_rooted(rng), random_rooted(rng)
        mu = measure_from_pairs([(a, Fraction(1))])
        nu = measure_from_pairs([(b, Fraction(1))])
        assert levy_prokhorov(mu, nu) == local_distance(a, b)


def test_hand_computed_mixture():
    # mu = delta_a, nu = (1-w) delta_a + w delta_b with d(a,b) = 1:
    # the distance is min over eps of max(eps, w) restricted to feasibility,
    # which is exactly w for w <= 1
    ab1 = MarkAlphabets(("s", "t"), ("a",))
    a = rooted_component(build_graph(1, {}, ("s",), ab1), 0)
    b = rooted_component(build_graph(1, {}, ("t",), ab1), 0)
    assert local_distance(a, b) == 1
    for w in (Fraction(1, 4), Fraction(1, 3), Fraction(5, 7)):
        mu = measure_from_pairs([(a, Fraction(1))])
        nu = measure_from_pairs([(a, 1 - w), (b, w)])
        assert levy_prokhorov(mu, nu) == w


def test_hand_computed_nearby_atoms():
    # atoms at distance 1/2 with mismatched weights 1 vs (1/2, 1/2):
    # eps = 1/2 covers everything, excess at eps < 1/2 is 1/2, so d = 1/2
    ab1 = MarkAlphabets(("s",), ("a",))
    single = rooted_component(build_graph(1, {}, ("s",), ab1), 0)
    pair = rooted_component(
        build_graph(2, {(0, 1): ("a", "a")}, ("s", "s"), ab1), 0
    )
    assert local_distance(single, pair) == Fraction(1, 2)
    mu = measure_from_pairs([(single, Fraction(1))])
    nu = measure_from_pairs([(single, Fraction(1, 2)), (pair, Fraction(1, 2))])
    assert levy_prokhorov(mu, nu) == Fraction(1, 2)


def test_symmetry():
    rng = random.Random(71)
    for _ in range(12):
        mu, nu = random_measure(rng), random_measure(rng)
        assert levy_prokhorov(mu, nu) == levy_prokhorov(nu, mu)


def test_triangle_inequality():
    rng = random.Random(73)
    for _ in range(8):
        mu, nu, rho = (random_measure(rng) for _ in range(3))
        d_mn = levy_prokhorov(mu, nu)
        d_nr = levy_prokhorov(nu, rho)
        d_mr = levy_prokhorov(mu, rho)
        assert d_mr <= d_mn + d_nr


def test_distance_bounded_by_one():
    rng = random.Random(79)
    for _ in range(10):
        mu, nu = random_measure(rng), random_measure(rng)
        d = levy_prokhorov(mu, nu)
        assert 0 <= d <= 1


def test_identity_of_indiscernibles():
    rng = random.Random(83)
    for _ in range(10):
        mu, nu = random_measure(rng), random_measure(rng)
        if levy_prokhorov(mu, nu) == 0:
            assert mu == nu


def test_empirical_distance_example():
    # path 0-1 vs two isolated vertices, trivial marks: the edge endpoints
    # differ from an isolated vertex already at radius 0's neighborhood,
    # first disagreement at radius 1 gives atom distance 1/2
    ab1 = MarkAlphabets(("s",), ("a",))
    g1 = build_graph(2, {(0, 1): ("a", "a")}, ("s", "s"), ab1)
    g2 = build_graph(2, {}, ("s", "s"), ab1)
    d = levy_prokhorov(empirical_distribution(g1), empirical_distribution(g2))
    assert d == Fraction(1, 2)


def deep_rooted(rng):
    """A path of 4 to 7 vertices rooted at one end, plus at most one chord,
    with mostly equal marks, kept when its eccentricity is at least 3."""
    while True:
        n = rng.randint(4, 7)
        marks = {(v, v + 1): ("a", "a" if rng.random() < 0.8 else "b") for v in range(n - 1)}
        if rng.random() < 0.5:
            u, v = sorted(rng.sample(range(n), 2))
            marks.setdefault((u, v), ("a", "a"))
        tau = tuple("s" if rng.random() < 0.8 else "t" for _ in range(n))
        r = rooted_component(build_graph(n, marks, tau, AB), 0)
        if r.eccentricity() >= 3:
            return r


def test_matches_subset_oracle_on_deep_atoms():
    rng = random.Random(101)
    deep = False
    for _ in range(40):
        mu, nu = (
            measure_from_pairs(
                (deep_rooted(rng), Fraction(w, 6)) for w in rng.choice([(6,), (1, 5), (2, 1, 3)])
            )
            for _ in range(2)
        )
        assert levy_prokhorov(mu, nu) == lp_subset_oracle(mu, nu)
        deep |= any(
            0 < local_distance(mu.rep(a), nu.rep(b)) <= Fraction(1, 4)
            for a in mu.support()
            for b in nu.support()
        )
    assert deep  # some atoms first disagree at radius 3 or beyond


def random_graph_with_atoms(rng, gen, depth):
    """gen(rng, n), redrawn until its U(G) at the given depth has 10 to 60 atoms."""
    while True:
        g = gen(rng, rng.randint(15, 50))
        if 10 <= len(empirical_distribution(g, depth).atoms) <= 60:
            return g


def test_matches_flow_oracle_on_empirical_measures():
    """Too many atoms for the subset oracle; the flow oracle scans every
    threshold, and the profile oracle reads every radius of every atom.

    The scan reads each atom where it lives, so the first pair of graphs at
    each depth also brings: mu itself; a measure read back from a file, which
    has no sources; and, at depth k, truncations at k of truncations at k + 1
    and at k - 1, below and above the first truncation's radius, whose
    sources lie in its reps.  g plus an isolated vertex is disconnected, and
    its depth-k atoms have their sources in it."""
    rng = random.Random(107)
    clamped = 0
    for depth in (None, 1, 2, 3):
        for i, gens in enumerate([(random_sparse_graph,) * 2, (random_bounded_tree,) * 2] + [
            (random_sparse_graph, random_bounded_tree)
        ] * 2):
            g, h = (random_graph_with_atoms(rng, gen, depth) for gen in gens)
            # g plus an isolated vertex is within d_TV <= 1/(n + 1) of g;
            # remarking vertex 0 moves whole components but few small balls
            theta = g.alphabets.theta
            flip = (theta[(theta.index(g.tau[0]) + 1) % len(theta)],)
            near = [
                MarkedGraph(g.n + 1, g.edges, g.tau + g.tau[:1], g.xi, g.alphabets),
                MarkedGraph(g.n, g.edges, flip + g.tau[1:], g.xi, g.alphabets),
            ]
            mu = empirical_distribution(g, depth)
            nus = [empirical_distribution(x, depth) for x in [h] + near]
            if i == 0:
                nus += [mu, read_measure(write_measure(nus[0]))]
                assert not nus[-1].sources
                if depth is not None:
                    full = empirical_distribution(h)
                    nus += [truncate_measure(truncate_measure(full, depth + d), depth) for d in (1, -1)]
            for nu in nus:
                assert levy_prokhorov(mu, nu) == lp_flow_oracle(mu, nu) == levy_prokhorov_oracle(mu, nu)
                # atoms of different eccentricity whose depth-r keys still agree,
                # so the closed form's min(r, len(p) - 1) clamp decides the excess
                pa = [radius_profile(mu.rep(a)) for a in mu.support()]
                pb = [radius_profile(nu.rep(b)) for b in nu.support()]
                clamped += any(
                    len(p) < len(q) and q[len(p) - 1] == p[-1] for p in pa for q in pb
                )
    assert clamped


def test_full_depth_scan_at_scale():
    """U(G) of a 400-vertex tree against U(G) of its depth-2 rebuild onto the
    same degrees: d_LP = 1/9, first reached at radius 7.  The upward scan
    stops at radius 8 and takes about 1 s; per-atom radius profiles, every
    radius up to each atom's eccentricity, took 33 s."""
    g = random_bounded_tree(random.Random(400), 400)
    rebuilt, _ = modify_graph(g, DegreeSequence(g.degrees()), 2, random.Random(1))
    mu, nu = empirical_distribution(g), empirical_distribution(rebuilt)
    start = time.perf_counter()
    d = levy_prokhorov(mu, nu)
    took = time.perf_counter() - start
    assert d == Fraction(1, 9)
    assert took < 5, f"levy_prokhorov took {took:.1f} s"
