import math
import random
from fractions import Fraction

import pytest

from localgraphs.enumeration import (
    enumerate_graphs,
    enumerate_marked,
    enumerate_marked_counts,
    marked_class_size_formula,
    multiset_permutations,
    type_class_size,
)
from localgraphs.errors import CapExceeded
from localgraphs.graphs import DegreeSequence, MarkAlphabets, MarkedGraph, build_graph
from localgraphs.lp_distance import levy_prokhorov
from localgraphs.marks import CountVectors, count_vectors_of
from localgraphs.measures import LocalMeasure, empirical_distribution, truncate_measure
from localgraphs.rates import degree_projection

AB = MarkAlphabets(("s", "t"), ("a", "b"))
AB1 = MarkAlphabets(("s",), ("a",))


def test_multiset_permutations_counts():
    perms = list(multiset_permutations(["a", "a", "b"]))
    assert perms == [("a", "a", "b"), ("a", "b", "a"), ("b", "a", "a")]
    assert len(list(multiset_permutations([1, 1, 2, 2]))) == 6


def test_small_unmarked_counts():
    assert enumerate_graphs(DegreeSequence((1, 1))).count == 1
    assert enumerate_graphs(DegreeSequence((2, 2, 2))).count == 1
    assert enumerate_graphs(DegreeSequence((1, 1, 1, 1))).count == 3
    assert enumerate_graphs(DegreeSequence((2, 2, 2, 2))).count == 3
    assert enumerate_graphs(DegreeSequence((0, 0))).count == 1


def test_infeasible_sequence_counts_zero():
    assert enumerate_graphs(DegreeSequence((3, 1))).count == 0


def test_members_have_exact_degrees():
    ell = DegreeSequence((2, 1, 2, 1))
    seen = 0
    for g in enumerate_graphs(ell):
        assert tuple(g.degree(v) for v in range(g.n)) == ell.ell
        seen += 1
    assert seen == enumerate_graphs(ell).count


def test_cap_is_enforced():
    with pytest.raises(CapExceeded):
        enumerate_graphs(DegreeSequence((1,) * 10), cap=8)


def test_marked_count_single_edge_two_marks():
    # one edge, off-diagonal pair {a, b}: two orientations
    vecs = CountVectors(AB, {"s": 2, "t": 0}, {("a", "b"): 1})
    result = enumerate_marked(DegreeSequence((1, 1)), vecs)
    assert result.count == 2
    assert marked_class_size_formula(DegreeSequence((1, 1)), vecs) == 2


def test_marked_count_mismatched_norms_is_empty():
    vecs = CountVectors(AB, {"s": 3, "t": 0}, {("a", "a"): 1})  # ||u|| = 3 but n = 2
    assert enumerate_marked(DegreeSequence((1, 1)), vecs).count == 0


def test_marked_formula_matches_enumeration_grid():
    cases = [
        (DegreeSequence((1, 1)), CountVectors(AB, {"s": 1, "t": 1}, {("a", "a"): 1})),
        (DegreeSequence((1, 1, 2)), CountVectors(AB, {"s": 2, "t": 1}, {("a", "b"): 2})),
        (
            DegreeSequence((1, 1, 1, 1)),
            CountVectors(AB, {"s": 2, "t": 2}, {("a", "a"): 1, ("a", "b"): 1}),
        ),
        (
            DegreeSequence((2, 2, 2)),
            CountVectors(AB, {"s": 3, "t": 0}, {("a", "b"): 2, ("b", "b"): 1}),
        ),
    ]
    for ell, vecs in cases:
        assert enumerate_marked(ell, vecs).count == marked_class_size_formula(ell, vecs)


def test_marked_members_have_declared_counts():
    ell = DegreeSequence((2, 1, 1))
    vecs = CountVectors(AB, {"s": 1, "t": 2}, {("a", "b"): 1, ("b", "b"): 1})
    for g in enumerate_marked(ell, vecs):
        back = count_vectors_of(g)
        assert back.u == vecs.u
        assert back.m_leq == vecs.m_leq


def test_type_class_size_examples():
    assert type_class_size([3]) == 1
    assert type_class_size([1, 1, 1]) == 6
    assert type_class_size([2, 1]) == 3
    assert type_class_size([2, 2]) == math.comb(4, 2)


def test_type_class_size_counts_sequences():
    # number of sequences over {s, t} with 2 of one and 3 of the other
    pool = ["s"] * 2 + ["t"] * 3
    assert len(list(multiset_permutations(pool))) == type_class_size([2, 3])


def count_ball_restricted(
    n: int,
    cv: CountVectors,
    mu: LocalMeasure,
    eps: Fraction,
    degree_law: dict[int, Fraction] | None = None,
) -> int:
    """Members of the (m, u) class with d_LP(U(G), mu) < eps, exactly.

    ``degree_law`` optionally restricts to graphs whose empirical degree
    distribution equals the given law.
    """
    total = 0
    for g in enumerate_marked_counts(n, cv):
        u_g = empirical_distribution(g)
        if degree_law is not None and degree_projection(u_g) != degree_law:
            continue
        if levy_prokhorov(u_g, mu) < eps:
            total += 1
    return total


def finite_entropy_estimate(
    n: int,
    cv: CountVectors,
    mu: LocalMeasure,
    eps: Fraction,
    degree_law: dict[int, Fraction] | None = None,
) -> float:
    """(log count - ||m|| log n) / n, the n-th term of the entropy limsup."""
    count = count_ball_restricted(n, cv, mu, eps, degree_law)
    if count == 0:
        return float("-inf")
    return (math.log(count) - cv.m_norm * math.log(n)) / n


def count_Nk(gamma_ref: MarkedGraph, cv: CountVectors, k: int) -> int:
    """Members of the (m, u) class whose depth-k empirical law, read off
    depth-k balls, matches gamma_ref's."""
    ref = empirical_distribution(gamma_ref, depth=k)
    total = 0
    for g in enumerate_marked_counts(gamma_ref.n, cv):
        if empirical_distribution(g, depth=k) == ref:
            total += 1
    return total


def test_count_ball_large_eps_counts_everything():
    vecs = CountVectors(AB1, {"s": 3}, {("a", "a"): 2})
    mu = empirical_distribution(
        build_graph(3, {(0, 1): ("a", "a"), (1, 2): ("a", "a")}, ("s",) * 3, AB1)
    )
    everything = enumerate_marked_counts(3, vecs).count
    assert count_ball_restricted(3, vecs, mu, Fraction(2)) == everything
    assert everything == 3  # three labeled paths on three vertices


def test_count_ball_tiny_eps_keeps_only_the_class():
    g = build_graph(3, {(0, 1): ("a", "a"), (1, 2): ("a", "a")}, ("s",) * 3, AB1)
    vecs = count_vectors_of(g)
    mu = empirical_distribution(g)
    # every labeled relabeling of the path has the same empirical law
    assert count_ball_restricted(3, vecs, mu, Fraction(1, 100)) == 3


def test_count_ball_degree_law_restriction():
    vecs = CountVectors(AB1, {"s": 4}, {("a", "a"): 2})
    path = build_graph(
        4, {(0, 1): ("a", "a"), (1, 2): ("a", "a")}, ("s",) * 4, AB1
    )
    mu = empirical_distribution(path)
    unrestricted = count_ball_restricted(4, vecs, mu, Fraction(2))
    matching = count_ball_restricted(4, vecs, mu, Fraction(2), degree_projection(mu))
    assert unrestricted == math.comb(6, 2) == 15
    assert 0 < matching < unrestricted
    # a 3-path leaves one isolated vertex: degree law (0,1,1,2)/4
    assert matching == 12


def test_finite_entropy_estimate_values():
    g = build_graph(3, {(0, 1): ("a", "a"), (1, 2): ("a", "a")}, ("s",) * 3, AB1)
    vecs = count_vectors_of(g)
    mu = empirical_distribution(g)
    est = finite_entropy_estimate(3, vecs, mu, Fraction(1, 100))
    assert est == pytest.approx((math.log(3) - 2 * math.log(3)) / 3)
    # empty ball gives minus infinity
    far = empirical_distribution(build_graph(1, {}, ("s",), AB1))
    assert finite_entropy_estimate(3, vecs, far, Fraction(1, 100)) == float("-inf")


def test_finite_entropy_monotone_in_eps():
    g = build_graph(4, {(0, 1): ("a", "a"), (2, 3): ("a", "a")}, ("s",) * 4, AB1)
    vecs = count_vectors_of(g)
    mu = empirical_distribution(g)
    values = [
        finite_entropy_estimate(4, vecs, mu, eps)
        for eps in (Fraction(1, 100), Fraction(1, 2), Fraction(2))
    ]
    assert values == sorted(values)


def test_count_Nk_depth_zero_ignores_structure():
    g = build_graph(3, {(0, 1): ("a", "a"), (1, 2): ("a", "a")}, ("s",) * 3, AB1)
    vecs = count_vectors_of(g)
    # depth-0 law only sees root marks, identical across the class
    assert count_Nk(g, vecs, 0) == enumerate_marked_counts(3, vecs).count


def test_count_Nk_antitone_in_k():
    rng = random.Random(97)
    for _ in range(5):
        n = rng.randint(3, 5)
        marks = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    marks[(u, v)] = (rng.choice(AB.xi), rng.choice(AB.xi))
        tau = tuple(rng.choice(AB.theta) for _ in range(n))
        g = build_graph(n, marks, tau, AB)
        vecs = count_vectors_of(g)
        counts = [count_Nk(g, vecs, k) for k in range(4)]
        assert counts[0] >= counts[1] >= counts[2] >= counts[3] >= 1
