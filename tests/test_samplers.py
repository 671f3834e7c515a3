import math
import random
from fractions import Fraction

import pytest

from localgraphs import samplers
from localgraphs.canonical import canonicalize
from localgraphs.cli import main
from localgraphs.enumeration import enumerate_graphs, enumerate_marked
from localgraphs.errors import AttemptsExhausted, CountMismatch, NonGraphical
from localgraphs.graphs import DegreeSequence, MarkAlphabets, rooted_component
from localgraphs.marks import CountVectors, ModelParams, chi2_leq, count_vectors_of
from localgraphs.samplers import (
    mixture_identity_check,
    model_probability,
    read_sampler_config,
    sample_iid_marked,
    sample_uniform_graph,
    sample_uniform_marked,
)

from oracles import exact_law

AB = MarkAlphabets(("s", "t"), ("a", "b"))
AB1 = MarkAlphabets(("s",), ("a",))


def graph_key(g):
    return canonicalize(rooted_component(g, 0)).code if g.is_connected() else frozenset(g.edges)


def test_single_edge_is_deterministic():
    rng = random.Random(0)
    g = sample_uniform_graph(DegreeSequence((1, 1)), rng)
    assert g.edges == frozenset({(0, 1)})


def test_triangle_is_deterministic():
    rng = random.Random(1)
    g = sample_uniform_graph(DegreeSequence((2, 2, 2)), rng)
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_one_attempt_either_exhausts_or_returns_the_triangle():
    # with degrees (2, 2, 2) a draw is simple only when it is the triangle
    exhausted = 0
    for seed in range(50):
        try:
            g = sample_uniform_graph(DegreeSequence((2, 2, 2)), random.Random(seed), max_attempts=1)
        except AttemptsExhausted as exc:
            assert exc.attempts == 1
            exhausted += 1
            continue
        assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert 0 < exhausted < 50


def test_degrees_always_exact():
    rng = random.Random(2)
    ell = DegreeSequence((3, 2, 2, 1, 1, 1))
    for _ in range(50):
        g = sample_uniform_graph(ell, rng)
        assert tuple(g.degree(v) for v in range(g.n)) == ell.ell


def test_nongraphical_rejected_up_front():
    with pytest.raises(NonGraphical):
        sample_uniform_graph(DegreeSequence((4, 2)), random.Random(3))


def test_a_batch_of_draws_checks_graphicality_once(monkeypatch, capsys):
    """``sample --count 50`` draws 50 graphs on one sequence; its Erdős–Gallai
    verdict is computed once and kept with the sequence."""
    calls = []
    check = DegreeSequence.is_graphical

    def counted(self):
        calls.append(self.ell)
        return check(self)

    monkeypatch.setattr(DegreeSequence, "is_graphical", counted)
    assert main(["sample", "--degrees", "3,3,2,2,1,1", "--seed", "5", "--count", "50"]) == 0
    assert capsys.readouterr().out.count("graph 6") == 50
    assert calls == [(3, 3, 2, 2, 1, 1)]
    ell = DegreeSequence((4, 2))
    for _ in range(2):
        with pytest.raises(NonGraphical):
            sample_uniform_graph(ell, random.Random(3))
    assert calls[1:] == [(4, 2)]


def test_perfect_matching_frequencies_are_uniform():
    # three perfect matchings on four vertices; 30000 draws, 4 standard errors
    rng = random.Random(4)
    trials = 30000
    counts: dict = {}
    for _ in range(trials):
        g = sample_uniform_graph(DegreeSequence((1, 1, 1, 1)), rng)
        key = frozenset(g.edges)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 3
    p = 1 / 3
    se = (p * (1 - p) / trials) ** 0.5
    for c in counts.values():
        assert abs(c / trials - p) < 4 * se


def test_uniform_marked_respects_count_vectors():
    rng = random.Random(5)
    ell = DegreeSequence((2, 2, 1, 1))
    vecs = CountVectors(
        AB,
        {"s": 3, "t": 1},
        {("a", "a"): 1, ("a", "b"): 2},
    )
    for _ in range(40):
        g = sample_uniform_marked(ell, vecs, rng)
        assert tuple(g.degree(v) for v in range(g.n)) == ell.ell
        back = count_vectors_of(g)
        assert back.u == vecs.u
        assert back.m_leq == vecs.m_leq


def test_uniform_marked_norm_mismatch():
    vecs = CountVectors(AB, {"s": 3, "t": 0}, {("a", "a"): 1})
    with pytest.raises(CountMismatch):
        sample_uniform_marked(DegreeSequence((1, 1)), vecs, random.Random(6))


def test_uniform_marked_orientation_frequencies():
    # single edge with pair {a, b}: both orientations near one half
    rng = random.Random(7)
    vecs = CountVectors(AB, {"s": 2, "t": 0}, {("a", "b"): 1})
    trials = 20000
    hits = 0
    for _ in range(trials):
        g = sample_uniform_marked(DegreeSequence((1, 1)), vecs, rng)
        if g.xi[(0, 1)] == "a":
            hits += 1
    se = (0.25 / trials) ** 0.5
    assert abs(hits / trials - 0.5) < 4 * se


# Exact laws: exact_law runs a sampler under every sequence of index draws
# (and of the orientation flips), so these compare Fractions.  Each sampler
# makes one attempt, so a rejected pairing is the outcome None.


@pytest.mark.parametrize("ell", [(1, 1, 1, 1), (2, 1, 1), (2, 2, 1, 1), (2, 2, 2, 1, 1), (3, 2, 2, 2, 1)])
def test_uniform_graph_law_is_exact(ell):
    ell = DegreeSequence(ell)
    law = exact_law(lambda rng: sample_uniform_graph(ell, rng, max_attempts=1).edges)
    graphs = [g.edges for g in enumerate_graphs(ell)]
    # each simple graph is prod(ell_i!) of the (2m - 1)!! stub pairings
    p = Fraction(
        math.prod(math.factorial(d) for d in ell.ell), math.prod(range(1, 2 * ell.edge_count, 2))
    )
    expected = dict.fromkeys(graphs, p)
    if len(graphs) * p < 1:
        expected[None] = 1 - len(graphs) * p
    assert law == expected


@pytest.mark.parametrize(
    "ell,u,m",
    [
        ((1, 1, 1, 1), {"s": 2, "t": 2}, {("a", "a"): 1, ("a", "b"): 1}),
        ((2, 1, 1), {"s": 1, "t": 2}, {("a", "b"): 1, ("b", "b"): 1}),
    ],
)
def test_uniform_marked_law_is_exact(monkeypatch, ell, u, m):
    monkeypatch.setattr(samplers, "DEFAULT_MAX_ATTEMPTS", 1)
    ell, cv = DegreeSequence(ell), CountVectors(AB, u, m)

    def key(g):
        return g.tau, tuple(sorted(g.xi.items()))

    law = exact_law(lambda rng: key(sample_uniform_marked(ell, cv, rng)))
    rejected = law.pop(None, Fraction(0))
    marked = [key(g) for g in enumerate_marked(ell, cv)]
    assert len(set(marked)) == len(marked) > 1
    assert law == dict.fromkeys(marked, (1 - rejected) / len(marked))


def test_iid_marked_trivial_alphabet_reduces_to_uniform_graph():
    params = ModelParams(AB1, {"s": Fraction(1)}, {"a": Fraction(1)})
    ell = DegreeSequence((1, 1, 1, 1))
    g = sample_iid_marked(ell, params, random.Random(8))
    assert set(g.xi.values()) == {"a"}
    assert g.tau == ("s",) * 4


def test_iid_marked_vertex_mark_frequencies():
    params = ModelParams(
        AB, {"s": Fraction(1, 4), "t": Fraction(3, 4)},
        {"a": Fraction(1, 2), "b": Fraction(1, 2)},
    )
    rng = random.Random(9)
    trials = 4000
    s_count = 0
    for _ in range(trials):
        g = sample_iid_marked(DegreeSequence((1, 1)), params, rng)
        s_count += sum(1 for t in g.tau if t == "s")
    p = 1 / 4
    se = (p * (1 - p) / (2 * trials)) ** 0.5
    assert abs(s_count / (2 * trials) - p) < 4 * se


def test_chi2_leq_law_is_a_distribution():
    params = ModelParams(
        AB, {"s": Fraction(1)} | {"t": Fraction(0)},
        {"a": Fraction(1, 3), "b": Fraction(2, 3)},
    )
    law = chi2_leq(params.chi, params.alphabets.xi)
    assert sum(law.values(), Fraction(0)) == 1
    assert law[("a", "a")] == Fraction(1, 9)
    assert law[("a", "b")] == Fraction(4, 9)
    assert law[("b", "b")] == Fraction(4, 9)
    # the pair order follows the alphabet, not string order
    reversed_law = chi2_leq(params.chi, ("b", "a"))
    assert list(reversed_law) == [("b", "b"), ("b", "a"), ("a", "a")]
    assert reversed_law[("b", "a")] == Fraction(4, 9)
    assert chi2_leq(params.chi) == law


def test_model_probability_sums_to_one():
    params = ModelParams(
        AB, {"s": Fraction(1, 3), "t": Fraction(2, 3)},
        {"a": Fraction(1, 4), "b": Fraction(3, 4)},
    )
    ell = DegreeSequence((1, 1, 1, 1))
    from itertools import product

    graphs = list(enumerate_graphs(ell))
    total = Fraction(0)
    from localgraphs.graphs import build_graph

    for base in graphs:
        edges = sorted(base.edges)
        for tau in product(AB.theta, repeat=4):
            for orient in product(product(AB.xi, repeat=2), repeat=len(edges)):
                marks = dict(zip(edges, orient))
                g = build_graph(4, marks, tau, AB)
                total += model_probability(g, params, len(graphs))
    assert total == 1


def test_mixture_identity_trivial_alphabet():
    params = ModelParams(AB1, {"s": Fraction(1)}, {"a": Fraction(1)})
    report = mixture_identity_check(DegreeSequence((1, 1)), params)
    assert report.holds
    assert report.total_probability == 1
    assert report.violation is None


def test_mixture_identity_two_vertex_full_alphabet():
    params = ModelParams(
        AB, {"s": Fraction(1, 3), "t": Fraction(2, 3)},
        {"a": Fraction(1, 4), "b": Fraction(3, 4)},
    )
    report = mixture_identity_check(DegreeSequence((1, 1)), params)
    assert report.holds
    assert report.total_probability == 1


def test_sampler_config_parsing():
    text = """
    # comment line
    degrees = 1,1,2,2
    theta = s,t
    xi = a,b
    vartheta = s:1/3,t:2/3
    chi = a:1/2,b:1/2
    seed = 99
    trials = 5
    """
    cfg = read_sampler_config(text)
    assert cfg.ell.ell == (1, 1, 2, 2)
    assert cfg.params.vartheta == {"s": Fraction(1, 3), "t": Fraction(2, 3)}
    assert cfg.seed == 99 and cfg.trials == 5


def test_sampler_config_missing_key():
    with pytest.raises(ValueError):
        read_sampler_config("degrees=1,1\nseed=0\n")


def test_sampler_config_degrees_from_file(tmp_path):
    deg = tmp_path / "deg.txt"
    deg.write_text("1\n1\n")
    text = (
        f"degrees=@{deg}\ntheta=s\nxi=a\nvartheta=s:1\nchi=a:1\nseed=3\n"
    )
    cfg = read_sampler_config(text)
    assert cfg.ell.ell == (1, 1)
    assert cfg.trials == 1
