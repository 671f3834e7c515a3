"""The measure layer's exact arithmetic and memo-read radius profiles.

``LocalMeasure``'s validation, ``truncate_measure``, ``total_variation``,
``levy_prokhorov`` and ``check_unimodular`` sum integer numerators over one
common denominator, and ``radius_profile`` reads each depth-r class from the
directed-entry memo.  Each must give exactly what the ``Fraction`` sums and
the per-truncation profiles in ``oracles`` give, on weights whose
denominators are coprime: mixtures of U(G)s with n = 7, 9 and 10.
"""
import random
from fractions import Fraction

import pytest

from localgraphs.canonical import canonicalize, local_distance, radius_profile
from localgraphs.graphs import MarkAlphabets, ball, rooted_component
from localgraphs.lp_distance import levy_prokhorov, total_variation
from localgraphs.measures import (
    LocalMeasure,
    check_unimodular,
    empirical_distribution,
    read_measure,
    truncate_measure,
    write_measure,
)
from localgraphs.verify import random_bounded_tree, random_marked

from oracles import (
    levy_prokhorov_oracle,
    radius_profile_oracle,
    total_variation_oracle,
    truncate_measure_oracle,
    unimodular_edge_pairs_oracle,
    weights_valid_oracle,
)
from test_depth_codes import families

#: multi-character symbols, so a code that split or merged marks would show
WIDE = MarkAlphabets(("s1", "tt"), ("ab", "c"))


def mix(parts):
    """The mixture sum_i t_i mu_i of weighted measures (t_i, mu_i)."""
    atoms, reps = {}, {}
    for t, mu in parts:
        for a, p in mu.atoms.items():
            atoms[a] = atoms.get(a, Fraction(0)) + t * p
        reps.update(mu.reps)
    return LocalMeasure(atoms, reps)


def mixtures(seed: int, count: int) -> list[LocalMeasure]:
    """Mixtures of U(G)s with n = 7, 9, 10 and coefficients over 11 and 13."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        parts = [empirical_distribution(random_marked(rng, n, 0.3, WIDE)) for n in (7, 9, 10)]
        t = [Fraction(2, 11), Fraction(4, 13)]
        out.append(mix(zip(t + [1 - sum(t)], parts)))
    return out


def perturbed(mu: LocalMeasure, rng: random.Random) -> LocalMeasure:
    """mu with one atom's weight scaled by 3/2, renormalized."""
    heavy = rng.choice(mu.support())
    raw = {a: w * (Fraction(3, 2) if a == heavy else 1) for a, w in mu.atoms.items()}
    total = sum(raw.values())
    return LocalMeasure({a: w / total for a, w in raw.items()}, mu.reps)


def test_validation_accepts_exactly_the_fraction_sums_of_one():
    mu = mixtures(1, 1)[0]
    atoms = mu.support()
    assert len({mu.atoms[a].denominator for a in atoms}) > 1
    off = Fraction(1, 7 * 9 * 10 * 11 * 13)
    candidates = [
        dict(mu.atoms),
        {**mu.atoms, atoms[0]: mu.atoms[atoms[0]] + off},
        {**mu.atoms, atoms[0]: mu.atoms[atoms[0]] - off},
        {**mu.atoms, atoms[0]: mu.atoms[atoms[0]] + off, atoms[1]: mu.atoms[atoms[1]] - off},
        {atoms[0]: 1},
        {atoms[0]: Fraction(1, 3), atoms[1]: Fraction(2, 3)},
        {atoms[0]: Fraction(4, 3), atoms[1]: Fraction(-1, 3)},
        {atoms[0]: 2, atoms[1]: -1},
        {atoms[0]: 0, atoms[1]: 1},
        {},
    ]
    for weights in candidates:
        if weights_valid_oracle(list(weights.values())):
            LocalMeasure(weights)
        else:
            with pytest.raises(ValueError):
                LocalMeasure(weights)


@pytest.mark.parametrize(
    "w,rest", [(0.1, 0.9), (0.5, Fraction(1, 2)), ("1/2", Fraction(1, 2)), (None, 1)]
)
def test_a_weight_that_is_not_an_int_or_a_fraction_is_named(w, rest):
    a, b = mixtures(2, 1)[0].support()[:2]
    with pytest.raises(ValueError, match=a.hex()):
        LocalMeasure({a: w, b: rest})


def test_truncation_matches_the_fraction_pushforward():
    for mu in mixtures(3, 4):
        for k in (0, 1, 2, 3):
            new, old = truncate_measure(mu, k), truncate_measure_oracle(mu, k)
            assert list(new.atoms.items()) == list(old.atoms.items())
            assert [(a, new.rep(a)) for a in new.atoms] == [(a, old.rep(a)) for a in old.atoms]
            assert all(type(w) is Fraction for w in new.atoms.values())


def test_distances_match_the_fraction_sums():
    measures = mixtures(4, 4)
    rng = random.Random(4)
    measures += [truncate_measure(mu, rng.randint(1, 2)) for mu in measures]
    measures.append(read_measure(write_measure(measures[0])))
    for mu in measures:
        for nu in measures:
            tv, lp = total_variation(mu, nu), levy_prokhorov(mu, nu)
            assert type(tv) is Fraction and type(lp) is Fraction
            assert tv == total_variation_oracle(mu, nu)
            assert lp == levy_prokhorov_oracle(mu, nu)


def test_unimodularity_report_matches_the_fraction_balance():
    rng = random.Random(5)
    reports = []
    for mu in mixtures(5, 3):
        for m in (mu, perturbed(mu, rng), truncate_measure(mu, 1)):
            report = check_unimodular(m)
            assert report == unimodular_edge_pairs_oracle(m)
            reports.append(report)
    assert any(r.holds for r in reports) and any(not r.holds for r in reports)
    assert all(type(r.imbalance) is Fraction for r in reports)


def test_read_measure_weights_are_exact():
    mu = mixtures(6, 1)[0]
    assert read_measure(write_measure(mu)) == mu
    a, b, c = mu.support()[:3]
    text = f"measure 3\natom 2/14 {a.hex()}\natom +3/9 {b.hex()}\natom 11/21 {c.hex()}\n"
    back = read_measure(text)
    assert back.atoms == {a: Fraction(1, 7), b: Fraction(1, 3), c: Fraction(11, 21)}
    assert weights_valid_oracle(list(back.atoms.values()))


@pytest.mark.parametrize("weight", ["1/0", "0.5", "1/-2", "1", "a/b", "1/2/3", "1/00", "½/1"])
def test_read_measure_names_a_malformed_weight(weight):
    line = f"atom {weight} 00"
    with pytest.raises(ValueError, match=f"not <int>/<positive int>: {line!r}"):
        read_measure(f"measure 1\n{line}\n")


CASES = [(k, name, g) for k in (1, 2, 3) for name, g in families(k)]


@pytest.mark.parametrize("k,name,g", CASES, ids=[f"k{k}-{name}" for k, name, _ in CASES])
def test_radius_profiles_match_the_per_truncation_path(k, name, g):
    for v in range(g.n):
        rg = rooted_component(g, v)
        assert radius_profile(rg) == radius_profile_oracle(rg)


def test_distances_add_nothing_to_the_rep_graphs():
    """The entry memos of ``levy_prokhorov`` and ``radius_profile`` live for
    one call only.  What a graph keeps of its own (its adjacency, and the
    refinement keys and edge table of a cyclic graph's class) is filled in
    before the snapshot."""
    rng = random.Random(8)
    mu, nu = mixtures(8, 2)
    mu_k, nu_k = truncate_measure(mu, 2), truncate_measure(nu, 1)
    reps = [m.rep(a) for m in (mu, nu, mu_k, nu_k) for a in m.atoms]
    for rg in reps:
        canonicalize(rg)
    before = [set(vars(rg.graph)) for rg in reps]
    levy_prokhorov(mu, nu)
    levy_prokhorov(mu_k, nu_k)
    for _ in range(40):
        local_distance(rng.choice(reps), rng.choice(reps))
    assert [set(vars(rg.graph)) for rg in reps] == before


def test_truncation_builds_no_ball_twice(monkeypatch):
    """``truncate_measure`` and ``empirical_distribution(depth=k)`` build
    each ball at most once: a ball with a cycle, built to be canonicalized,
    is also the rep of its class when that is new, and a tree-shaped class
    builds its ball only when its rep is first read.  Atoms, their order and
    reps are the per-ball path's."""
    calls, partial_cyclic = [], []

    def counted(g, root, r=None, *, exclude_edge=None):
        b = ball(g, root, r, exclude_edge=exclude_edge)
        calls.append((id(g), root, r, exclude_edge, len(b.graph.edges) < b.n))
        if len(b.graph.edges) >= b.n and b.n < len(g.component(root)):
            partial_cyclic.append(b)
        return b

    def read_twice(mu):
        """Every rep of mu in atom order, read twice: the second read builds
        no ball."""
        reps = [(a, mu.rep(a)) for a in mu.atoms]
        built = len(calls)
        assert [(a, mu.rep(a)) for a in mu.atoms] == reps
        assert len(calls) == built
        return reps

    monkeypatch.setattr("localgraphs.canonical.ball", counted)
    monkeypatch.setattr("localgraphs.measures.ball", counted)
    for k in (1, 2, 3):
        for _, g in families(k):
            mu = empirical_distribution(g)
            old = truncate_measure_oracle(mu, k)
            calls.clear()
            new = truncate_measure(mu, k)
            # no tree-shaped ball is built before its rep is read
            assert not any(tree for *_, tree in calls)
            assert len(set(calls)) == len(calls)
            assert list(new.atoms.items()) == list(old.atoms.items())
            assert read_twice(new) == [(a, old.rep(a)) for a in old.atoms]
            assert len(set(calls)) == len(calls)
            calls.clear()
            new = empirical_distribution(g, depth=k)
            assert not any(tree for *_, tree in calls)
            read_twice(new)
            assert len(set(calls)) == len(calls)
    # the families have depth-k balls with a cycle short of the component,
    # which both the class lookup and the rep need
    assert partial_cyclic


@pytest.mark.parametrize("k", [1, 5])
def test_truncation_reads_sourced_atoms_at_their_source(monkeypatch, k):
    """A depth-3 U(G) of a tree has sources and no reps, so truncating it,
    below or past depth 3, reads each atom at its source and builds no ball.
    It equals the truncation of every rep, built, atoms, order and reps."""
    g = random_bounded_tree(random.Random(5), 300)
    mu = empirical_distribution(g, depth=3)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return ball(*args, **kwargs)

    monkeypatch.setattr("localgraphs.canonical.ball", counted)
    monkeypatch.setattr("localgraphs.measures.ball", counted)
    new = truncate_measure(mu, k)
    assert calls == []
    old = truncate_measure_oracle(mu, k)
    assert list(new.atoms.items()) == list(old.atoms.items())
    assert [(a, new.rep(a)) for a in new.atoms] == [(a, old.rep(a)) for a in old.atoms]
