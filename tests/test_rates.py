import io
import math
from dataclasses import dataclass
from fractions import Fraction

import pytest

from localgraphs.errors import InvalidSequence, RangeViolation
from localgraphs.graphs import MarkAlphabets, build_graph
from localgraphs.marks import CountVectors, count_vectors_of, fold_leq
from localgraphs.measures import empirical_distribution
from localgraphs.rates import (
    AverageDegreeVector,
    TaggedValue,
    chi2_leq,
    measure_degree_stats,
    degree_projection,
    rate_I_dQ,
    rate_I_PdQ,
    rate_lambda,
    read_rate_inputs,
    relative_entropy,
    s_value,
    sanov_rate,
    shannon_entropy,
    write_rate_inputs,
)

AB = MarkAlphabets(("s", "t"), ("a", "b"))
AB1 = MarkAlphabets(("s",), ("a",))


def test_shannon_entropy_examples():
    assert shannon_entropy({"a": 1.0}) == 0.0
    assert shannon_entropy({"a": 0.5, "b": 0.5}) == pytest.approx(math.log(2), abs=1e-12)
    assert shannon_entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)
    with pytest.raises(ValueError):
        shannon_entropy({"a": -0.1, "b": 1.1})


def test_s_value_examples():
    assert s_value(0) == 0.0
    assert s_value(1) == 0.5
    assert s_value(math.e) == pytest.approx(0.0, abs=1e-12)
    # concavity on a grid
    xs = [0.5, 1.0, 2.0, 3.0, 5.0]
    for a in xs:
        for b in xs:
            mid = s_value((a + b) / 2)
            assert mid >= (s_value(a) + s_value(b)) / 2 - 1e-12


def test_relative_entropy_examples():
    p = {"a": 0.5, "b": 0.5}
    assert relative_entropy(p, p) == 0.0
    # Gibbs: nonnegative
    q = {"a": 0.9, "b": 0.1}
    assert relative_entropy(p, q) > 0
    assert relative_entropy(q, p) > 0
    # support escape
    assert relative_entropy({"a": 1.0}, {"b": 1.0}) == float("inf")
    assert relative_entropy({"a": 0.5, "b": 0.5}, {"a": 1.0}) == float("inf")


def alpha_plus(alpha: dict) -> dict:
    """Spread a law on nondecreasing pairs onto both orientations."""
    out: dict = {}
    for (x, y), p in alpha.items():
        if x == y:
            out[(x, x)] = out.get((x, x), 0) + p
        else:
            half = p / 2
            out[(x, y)] = out.get((x, y), 0) + half
            out[(y, x)] = out.get((y, x), 0) + half
    return out


def test_chi2_leq_and_alpha_plus_are_inverse_on_mass():
    chi = {"a": 0.25, "b": 0.75}
    law = chi2_leq(chi)
    assert sum(law.values()) == pytest.approx(1.0)
    assert law[("a", "a")] == pytest.approx(1 / 16)
    assert law[("a", "b")] == pytest.approx(2 * 0.25 * 0.75)
    spread = alpha_plus(law)
    assert sum(spread.values()) == pytest.approx(1.0)
    assert spread[("a", "b")] == pytest.approx(spread[("b", "a")])
    assert spread[("a", "b")] + spread[("b", "a")] == pytest.approx(law[("a", "b")])


def test_average_degree_vector_validation():
    with pytest.raises(InvalidSequence):
        AverageDegreeVector({("a", "b"): 1.0})  # asymmetric
    with pytest.raises(InvalidSequence):
        AverageDegreeVector({("a", "a"): 0.0})  # zero total
    dv = AverageDegreeVector({("a", "b"): 1.0, ("b", "a"): 1.0, ("a", "a"): 0.5})
    assert dv.total == pytest.approx(2.5)
    assert fold_leq(dv.d, ("a", "b")) == {("a", "b"): 2.0, ("a", "a"): 0.5}
    assert fold_leq(dv.d, ("b", "a")) == {("b", "a"): 2.0, ("a", "a"): 0.5}


def test_leq_on_xi_follows_alphabet_position():
    # with a non-sorted alphabet, the count view, the chi2 law and the
    # mean-degree view all order the pair {a, b} as (b, a)
    ab = MarkAlphabets(("s",), ("b", "a"))
    g = build_graph(2, {(0, 1): ("a", "b")}, ("s", "s"), ab)
    cv = count_vectors_of(g)
    law = {k: Fraction(c, cv.m_norm) for k, c in cv.m_leq.items()}
    chi = {"b": Fraction(1, 2), "a": Fraction(1, 2)}
    assert relative_entropy(law, chi2_leq(chi)) == pytest.approx(math.log(2))
    assert chi2_leq(chi) == chi2_leq(chi, ab.xi)
    dvec = AverageDegreeVector(dict(measure_degree_stats(empirical_distribution(g)).dvec))
    assert fold_leq(dvec.d, ab.xi) == {("b", "a"): 1}
    # a symbol missing from the order comes after it
    assert fold_leq({("c", "b"): 1, ("b", "c"): 1}, ab.xi) == {("b", "c"): 2}


def test_sanov_rate_zero_at_the_model_law():
    chi = {"a": 0.5, "b": 0.5}
    vartheta = {"s": 0.3, "t": 0.7}
    assert sanov_rate(chi2_leq(chi), vartheta, 2.0, chi, vartheta) == pytest.approx(0.0)
    perturbed = {("a", "a"): 0.5, ("a", "b"): 0.25, ("b", "b"): 0.25}
    assert sanov_rate(perturbed, vartheta, 2.0, chi, vartheta) > 0


def four_cycle():
    return build_graph(
        4,
        {(0, 1): ("a", "a"), (1, 2): ("a", "a"), (2, 3): ("a", "a"), (0, 3): ("a", "a")},
        ("s",) * 4,
        AB1,
    )


def test_measure_stats_of_four_cycle():
    mu = empirical_distribution(four_cycle())
    stats = measure_degree_stats(mu)
    assert stats.deg == 2
    assert stats.dvec == {("a", "a"): Fraction(2)}
    assert stats.pi == {"s": Fraction(1)}
    assert degree_projection(mu) == {2: Fraction(1)}


def test_tagged_value_provenance_is_restricted():
    TaggedValue(0.0, "supplied")
    TaggedValue(-1.0, "finite-n estimate")
    with pytest.raises(ValueError):
        TaggedValue(0.0, "guessed")


def test_rate_I_dQ_basics():
    dvec = AverageDegreeVector({("a", "a"): 2.0})
    Q = {"s": 1.0}
    bound = shannon_entropy(Q) + s_value(2.0)
    assert rate_I_dQ(TaggedValue(bound, "supplied"), dvec, Q) == pytest.approx(0.0)
    assert rate_I_dQ(TaggedValue(bound - 0.25, "supplied"), dvec, Q) == pytest.approx(0.25)
    assert rate_I_dQ(TaggedValue(float("-inf"), "supplied"), dvec, Q) == float("inf")
    with pytest.raises(RangeViolation):
        rate_I_dQ(TaggedValue(bound + 1.0, "supplied"), dvec, Q)


def test_rate_I_dQ_weakly_decreasing_in_sigma():
    dvec = AverageDegreeVector({("a", "a"): 2.0})
    Q = {"s": 0.5, "t": 0.5}
    values = [
        rate_I_dQ(TaggedValue(s, "supplied"), dvec, Q) for s in (-2.0, -1.0, 0.0, 0.5)
    ]
    assert values == sorted(values, reverse=True)


def test_rate_I_PdQ_projects_the_degree_law():
    mu = empirical_distribution(four_cycle())
    stats = measure_degree_stats(mu)
    dvec = AverageDegreeVector(dict(stats.dvec))
    sigma = TaggedValue(0.0, "supplied")
    j1 = TaggedValue(0.125, "supplied")
    from localgraphs.measures import project_unmarked, truncate_measure

    rho1 = project_unmarked(truncate_measure(mu, 1))
    good = rate_I_PdQ(j1, sigma, dvec, {"s": 1.0}, rho1, {2: 1})
    assert good == pytest.approx(0.125 + rate_I_dQ(sigma, dvec, {"s": 1.0}))
    assert rate_I_PdQ(j1, sigma, dvec, {"s": 1.0}, rho1, {3: 1}) == float("inf")
    # zero entries of P are ignored
    assert rate_I_PdQ(j1, sigma, dvec, {"s": 1.0}, rho1, {2: 1, 5: 0}) == good
    # the root-degree law needs no truncation or unmarking first
    assert rate_I_PdQ(j1, sigma, dvec, {"s": 1.0}, mu, {2: 1}) == good


def test_rate_lambda_matches_components_at_the_model():
    mu = empirical_distribution(four_cycle())
    stats = measure_degree_stats(mu)
    dvec = AverageDegreeVector({("a", "a"): 2})
    sigma = TaggedValue(0.25, "supplied")
    j1 = TaggedValue(0.0, "supplied")
    lam = rate_lambda(
        {2: 1}, {"s": Fraction(1)}, {"a": Fraction(1)}, dvec, sigma, j1, stats
    )
    # mark laws are degenerate, so only the structural part remains
    expected = rate_I_dQ(sigma, dvec, {"s": 1.0})
    assert lam == pytest.approx(expected)


def test_rate_lambda_infinite_off_the_degree_slice():
    mu = empirical_distribution(four_cycle())
    stats = measure_degree_stats(mu)
    wrong = AverageDegreeVector({("a", "a"): 3})
    lam = rate_lambda(
        {2: 1}, {"s": Fraction(1)}, {"a": Fraction(1)}, wrong,
        TaggedValue(0.0, "supplied"), TaggedValue(0.0, "supplied"), stats,
    )
    assert lam == float("inf")


def test_rate_lambda_adds_mark_divergences():
    mu = empirical_distribution(four_cycle())
    stats = measure_degree_stats(mu)
    dvec = AverageDegreeVector({("a", "a"): 2})
    sigma = TaggedValue(0.0, "supplied")
    j1 = TaggedValue(0.0, "supplied")
    lam = rate_lambda(
        {2: 1},
        {"s": Fraction(1, 2), "t": Fraction(1, 2)},
        {"a": Fraction(1, 2), "b": Fraction(1, 2)},
        dvec,
        sigma,
        j1,
        stats,
    )
    base = rate_I_dQ(sigma, dvec, {"s": 1.0})
    # all observed marks are "s" and pair (a, a): H(delta|uniform) = log 2 each
    assert lam == pytest.approx(base + math.log(2) + math.log(4))


#: Largest final-term deviation ``check_adapted`` accepts for a limit condition.
ADAPTED_TOL = 1e-3


@dataclass(frozen=True)
class AdaptedReport:
    conditions: dict  # condition number -> bool
    deviations: dict  # condition number -> worst final-term deviation

    @property
    def all_pass(self) -> bool:
        return all(self.conditions.values())


def check_adapted(sequence: list, dvec: AverageDegreeVector, Q: dict) -> AdaptedReport:
    """Diagnose a finite prefix of (n, count-vector) pairs against (d, Q).

    Conditions on counts hold exactly for every term; the limit conditions are
    checked as final-term deviations within ADAPTED_TOL.
    """
    if not sequence:
        raise ValueError("empty sequence")
    conditions = {i: True for i in range(1, 7)}
    deviations = {i: 0.0 for i in range(1, 7)}
    for n, cv in sequence:
        if cv.u_norm != n or cv.m_norm > n * (n - 1) // 2:
            conditions[1] = False
        for (x, xp), c in cv.m_leq.items():
            dval = float(dvec.d.get((x, xp), 0))
            if dval == 0 and c != 0:
                conditions[5] = False
        for t, c in cv.u.items():
            if float(Q.get(t, 0)) == 0 and c != 0:
                conditions[6] = False
    n, cv = sequence[-1]
    for (x, xp) in cv.m_leq:
        # the nondecreasing-pair count aggregates both orientations off diagonal
        target = float(dvec.d.get((x, xp), 0)) / 2 if x == xp else float(
            dvec.d.get((x, xp), 0)
        )
        dev = abs(cv.m_leq[(x, xp)] / n - target)
        idx = 2 if x == xp else 3
        deviations[idx] = max(deviations[idx], dev)
    for t in set(cv.u) | set(Q):
        dev = abs(cv.u.get(t, 0) / n - float(Q.get(t, 0)))
        deviations[4] = max(deviations[4], dev)
    for idx in (2, 3, 4):
        if deviations[idx] > ADAPTED_TOL:
            conditions[idx] = False
    return AdaptedReport(conditions, deviations)


def test_check_adapted_passes_on_a_convergent_sequence():
    dvec = AverageDegreeVector({("a", "a"): 1.0})
    Q = {"s": 0.5, "t": 0.5}
    seq = [
        (n, CountVectors(AB, {"s": n // 2, "t": n - n // 2}, {("a", "a"): n // 2}))
        for n in (100, 1000, 10000)
    ]
    rep = check_adapted(seq, dvec, Q)
    assert rep.all_pass
    assert rep.deviations[2] <= 1e-3


def test_check_adapted_flags_support_escape():
    dvec = AverageDegreeVector({("a", "a"): 1.0})
    Q = {"s": 1.0}
    seq = [(10, CountVectors(AB, {"s": 10}, {("a", "b"): 1, ("a", "a"): 4}))]
    rep = check_adapted(seq, dvec, Q)
    assert not rep.conditions[5]
    seq2 = [(10, CountVectors(AB, {"s": 9, "t": 1}, {("a", "a"): 5}))]
    assert not check_adapted(seq2, dvec, Q).conditions[6]


def test_check_adapted_flags_count_overflow():
    dvec = AverageDegreeVector({("a", "a"): 1.0})
    Q = {"s": 1.0}
    seq = [(3, CountVectors(AB, {"s": 3}, {("a", "a"): 4}))]  # more edges than pairs
    assert not check_adapted(seq, dvec, Q).conditions[1]
    with pytest.raises(ValueError):
        check_adapted([], dvec, Q)


def test_check_adapted_final_term_deviation():
    dvec = AverageDegreeVector({("a", "a"): 1.0})
    Q = {"s": 1.0}
    seq = [(10, CountVectors(AB, {"s": 10}, {("a", "a"): 8}))]  # 8/10 vs target 1/2
    rep = check_adapted(seq, dvec, Q)
    assert not rep.conditions[2]
    assert rep.deviations[2] == pytest.approx(0.3)


def test_rate_inputs_round_trip():
    dvec = AverageDegreeVector(
        {("a", "b"): Fraction(1, 2), ("b", "a"): Fraction(1, 2), ("a", "a"): Fraction(1)}
    )
    buf = io.StringIO()
    write_rate_inputs(
        buf,
        {2: Fraction(1)},
        {"s": Fraction(1)},
        {"s": Fraction(1)},
        {"a": Fraction(1, 2), "b": Fraction(1, 2)},
        dvec,
        TaggedValue(0.5, "supplied"),
        TaggedValue(-0.25, "finite-n estimate"),
    )
    buf.seek(0)
    data = read_rate_inputs(buf)
    assert data["Q"] == {"s": Fraction(1)}
    assert data["dvec"].d == dvec.d
    assert data["sigma"] == TaggedValue(0.5, "supplied")
    assert data["j1"] == TaggedValue(-0.25, "finite-n estimate")


def test_rate_inputs_missing_provenance_is_rejected():
    text = (
        "P=2:1\nQ=s:1\nvartheta=s:1\nchi=a:1\n"
        "d=a.a:2\nSigma=0.0\nJ1=0.0\nJ1.provenance=supplied\n"
    )
    with pytest.raises(InvalidSequence):
        read_rate_inputs(io.StringIO(text))
