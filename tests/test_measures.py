import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest

from localgraphs.canonical import canonicalize, local_distance, rooted_classes
from localgraphs.graphs import (
    MarkAlphabets,
    RootedMarkedGraph,
    ball,
    build_graph,
    rooted_component,
    truncate,
)
from localgraphs.lp_distance import levy_prokhorov, total_variation
from localgraphs.measures import (
    LocalMeasure,
    check_unimodular,
    empirical_distribution,
    measure_from_pairs,
    project_unmarked,
    pushforward,
    read_measure,
    truncate_measure,
    write_measure,
)
from localgraphs import canonical, verify
from localgraphs.verify import random_bounded_tree, random_sparse_graph

from oracles import partition_by_isomorphism, unimodular_all_pairs_oracle

AB = MarkAlphabets(("s", "t"), ("a", "b"))
AB1 = MarkAlphabets(("s",), ("a",))


def random_marked(rng, n, p=0.3):
    return verify.random_marked(rng, n, p, AB)


def path_graph(n, ab=AB1):
    return build_graph(
        n, {(i, i + 1): ("a", "a") for i in range(n - 1)}, ("s",) * n, ab
    )


def test_empirical_single_symmetric_edge():
    g = build_graph(2, {(0, 1): ("a", "a")}, ("s", "s"), AB1)
    mu = empirical_distribution(g)
    assert len(mu.atoms) == 1
    assert next(iter(mu.atoms.values())) == 1


def test_empirical_three_path_weights():
    mu = empirical_distribution(path_graph(3))
    weights = sorted(mu.atoms.values())
    assert weights == [Fraction(1, 3), Fraction(2, 3)]


def test_empirical_atoms_match_oracle_partition():
    rng = random.Random(21)
    g = random_marked(rng, 12, p=0.2)
    mu = empirical_distribution(g)
    rooted = [rooted_component(g, v) for v in range(g.n)]
    groups = partition_by_isomorphism(rooted)
    assert len(mu.atoms) == len(groups)
    expected = sorted(Fraction(len(grp), g.n) for grp in groups)
    assert sorted(mu.atoms.values()) == expected


def random_forest(rng, n, max_degree, ab, keep=1.0, chords=0):
    """Random recursive tree with degrees at most max_degree, each edge kept
    with probability ``keep``, plus ``chords`` extra edges (each closes one cycle)."""
    marks = {}
    degree = [0] * n
    for v in range(1, n):
        u = rng.choice([u for u in range(v) if degree[u] < max_degree])
        degree[u] += 1
        degree[v] += 1
        if rng.random() < keep:
            marks[(u, v)] = (rng.choice(ab.xi), rng.choice(ab.xi))
    for _ in range(chords):
        u, v = sorted(rng.sample(range(n), 2))
        marks.setdefault((u, v), (rng.choice(ab.xi), rng.choice(ab.xi)))
    tau = tuple(rng.choice(ab.theta) for _ in range(n))
    return build_graph(n, marks, tau, ab)


def test_empirical_matches_per_vertex_classes():
    # paths, stars and one-symbol marks give many tied subtree entries
    rng = random.Random(67)
    graphs = [build_graph(1, {}, ("s",), AB1), build_graph(3, {}, ("s", "t", "s"), AB)]
    for max_degree in (2, 3, 4, 6):
        for _ in range(6):
            n = rng.randint(2, 30)
            ab = rng.choice((AB, AB1))
            graphs.append(random_forest(rng, n, max_degree, ab))
            graphs.append(random_forest(rng, n, max_degree, ab, keep=0.8))
            graphs.append(random_forest(rng, n, max_degree, ab, keep=0.9, chords=1))
    for g in graphs:
        classes = [canonicalize(rooted_component(g, v)) for v in range(g.n)]
        seen = set()
        for v in range(g.n):
            if v not in seen:
                comp = sorted(g.component(v))
                seen.update(comp)
                assert rooted_classes(ball(g, v).graph) == [classes[u] for u in comp]
        mu = empirical_distribution(g)
        assert mu.atoms == {c: Fraction(classes.count(c), g.n) for c in classes}
        # atoms in order of their first vertex, each represented there
        assert list(mu.atoms) == list(dict.fromkeys(classes))
        for a in mu.atoms:
            first = rooted_component(g, classes.index(a))
            assert (mu.rep(a).graph, mu.rep(a).root) == (first.graph, first.root)
            assert canonicalize(mu.rep(a)) == a


def test_depth_k_empirical_equals_truncated_full_depth():
    # trees, forests with isolated vertices, one vertex, sparse cyclic graphs
    rng = random.Random(71)
    graphs = [build_graph(1, {}, ("s",), AB1)]
    for _ in range(10):
        graphs.append(random_bounded_tree(rng, rng.randint(2, 40)))
        graphs.append(random_forest(rng, rng.randint(2, 30), 3, AB, keep=0.6))
        graphs.append(random_sparse_graph(rng, rng.randint(2, 30)))
    assert any(not g.adjacency[v] for g in graphs[1:] for v in range(g.n))
    components = [len({frozenset(g.component(v)) for v in range(g.n)}) for g in graphs]
    assert sum(len(g.edges) > g.n - c for g, c in zip(graphs, components)) >= 3
    for g in graphs:
        full = empirical_distribution(g)
        for k in range(4):
            mu = empirical_distribution(g, depth=k)
            assert mu == truncate_measure(full, k)
            for a in mu.atoms:
                assert canonicalize(mu.rep(a)) == a


def test_truncated_empirical_of_three_path():
    mu = truncate_measure(empirical_distribution(path_graph(3)), 1)
    # depth-1 views: endpoint sees one neighbor, middle sees two
    assert sorted(mu.atoms.values()) == [Fraction(1, 3), Fraction(2, 3)]
    sizes = sorted(mu.rep(a).n for a in mu.support())
    assert sizes == [2, 3]


def test_truncation_merges_locally_identical_graphs():
    # a long path and a longer path look identical to depth 1 from inner vertices
    a = rooted_component(path_graph(5), 2)
    b = rooted_component(path_graph(7), 3)
    mu = measure_from_pairs([(truncate(a, 1), Fraction(1, 2)), (truncate(b, 1), Fraction(1, 2))])
    assert len(mu.atoms) == 1


def test_project_unmarked_merges_mark_variants():
    g1 = build_graph(2, {(0, 1): ("a", "b")}, ("s", "t"), AB)
    g2 = build_graph(2, {(0, 1): ("b", "b")}, ("t", "t"), AB)
    mu = measure_from_pairs(
        [
            (RootedMarkedGraph(g1, 0), Fraction(1, 2)),
            (RootedMarkedGraph(g2, 0), Fraction(1, 2)),
        ]
    )
    assert len(mu.atoms) == 2
    assert len(project_unmarked(mu).atoms) == 1


def test_measure_weight_validation():
    cls = canonicalize(RootedMarkedGraph(build_graph(1, {}, ("s",), AB1), 0))
    with pytest.raises(ValueError):
        LocalMeasure({cls: Fraction(1, 2)})  # mass below one
    with pytest.raises(ValueError):
        LocalMeasure({cls: Fraction(0)})


def test_empirical_is_unimodular():
    rng = random.Random(23)
    for _ in range(15):
        g = random_marked(rng, rng.randint(1, 10))
        assert check_unimodular(empirical_distribution(g)).holds


def test_point_mass_on_asymmetric_rooted_path_is_not_unimodular():
    # rooting a 3-vertex path at a leaf over-weights the leaf perspective
    r = RootedMarkedGraph(path_graph(3), 0)
    mu = measure_from_pairs([(r, Fraction(1))])
    rep = check_unimodular(mu)
    assert not rep.holds
    assert rep.witness is not None and rep.imbalance != 0


def test_unimodularity_witness_does_not_depend_on_hash_seed():
    # criterion 5's crafted point mass: a 3-vertex path rooted at a leaf; the
    # reported witness must not follow the per-process salted bytes hash
    script = """
from fractions import Fraction
from localgraphs.graphs import RootedMarkedGraph, build_graph
from localgraphs.measures import check_unimodular, measure_from_pairs

path = build_graph(3, {(0, 1): ("-", "-"), (1, 2): ("-", "-")})
report = check_unimodular(measure_from_pairs([(RootedMarkedGraph(path, 0), Fraction(1))]))
print(report.holds, report.witness.hex(), report.imbalance)
"""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = set()
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, timeout=60, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1, outputs
    assert outputs.pop().startswith("False ")


def _mix(parts):
    """The mixture sum_i t_i mu_i of weighted measures (t_i, mu_i)."""
    atoms, sources = {}, {}
    for t, mu in parts:
        for a, p in mu.atoms.items():
            atoms[a] = atoms.get(a, Fraction(0)) + t * p
        sources.update(mu.sources)
    return LocalMeasure(atoms, sources)


def test_mixture_of_empiricals_is_unimodular():
    rng = random.Random(29)
    g1 = random_marked(rng, 6)
    g2 = random_marked(rng, 9)
    mu1 = empirical_distribution(g1)
    mu2 = empirical_distribution(g2)
    assert check_unimodular(_mix([(Fraction(1, 3), mu1), (Fraction(2, 3), mu2)])).holds


def test_edge_pair_check_matches_all_pairs_oracle():
    # U(G), U(G) with one atom's weight scaled by 3/2, and mixtures of U(G)s:
    # balancing edges decides as balancing every pair (involution invariance)
    rng = random.Random(37)
    empirical, perturbed = [], []
    while len(perturbed) < 200:
        n = rng.randint(2, 12)
        g = random_sparse_graph(rng, n) if len(empirical) % 2 else random_marked(rng, n)
        mu = empirical_distribution(g)
        empirical.append(mu)
        if len(mu.atoms) > 1:
            heavy = rng.choice(mu.support())
            raw = {a: w * (Fraction(3, 2) if a == heavy else 1) for a, w in mu.atoms.items()}
            total = sum(raw.values())
            perturbed.append(LocalMeasure({a: w / total for a, w in raw.items()}, mu.sources))
    mixtures = [
        _mix([(Fraction(1, 3), empirical[i]), (Fraction(2, 3), empirical[i + 1])])
        for i in range(0, 60, 2)
    ]
    path = build_graph(3, {(0, 1): ("-", "-"), (1, 2): ("-", "-")})
    crafted = measure_from_pairs([(RootedMarkedGraph(path, 0), Fraction(1))])
    verdicts = {}
    families = {"empirical": empirical, "perturbed": perturbed, "mixture": mixtures, "crafted": [crafted]}
    for name, family in families.items():
        verdicts[name] = [check_unimodular(mu).holds for mu in family]
        assert verdicts[name] == [unimodular_all_pairs_oracle(mu).holds for mu in family]
    assert all(verdicts["empirical"]) and all(verdicts["mixture"])
    assert verdicts["perturbed"].count(False) > len(perturbed) * 3 // 4
    assert verdicts["crafted"] == [False]


def _corpus(rng, count=4):
    out = []
    for _ in range(count):
        g = random_marked(rng, rng.randint(2, 7))
        out.append(empirical_distribution(g))
    return out


@dataclass(frozen=True)
class LipschitzReport:
    max_ratio: Fraction
    violation: tuple[int, int] | None  # indices of the offending corpus pair


def pushforward_lipschitz_check(
    f: Callable[[RootedMarkedGraph], RootedMarkedGraph],
    alpha: Fraction,
    corpus: list[LocalMeasure],
) -> LipschitzReport:
    """Assert d_LP(mu o f^-1, nu o f^-1) <= alpha * d_LP(mu, nu) pairwise.

    First verifies that f itself is alpha-Lipschitz on the corpus atoms; a
    violating measure pair signals an implementation bug, not a math failure.
    """
    # each corpus atom and its image under f
    base = [mu.rep(a) for mu in corpus for a in mu.support()]
    image = [f(rg) for rg in base]
    for i in range(len(base)):
        for j in range(i + 1, len(base)):
            da = local_distance(base[i], base[j])
            db = local_distance(image[i], image[j])
            if db > alpha * da:
                raise ValueError(
                    f"f is not {alpha}-Lipschitz on the corpus atoms "
                    f"({db} > {alpha} * {da})"
                )
    images = [pushforward(mu, f) for mu in corpus]
    max_ratio = Fraction(0)
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            base = levy_prokhorov(corpus[i], corpus[j])
            img = levy_prokhorov(images[i], images[j])
            if img > alpha * base:
                return LipschitzReport(Fraction(-1), (i, j))
            if base > 0:
                max_ratio = max(max_ratio, img / base)
    return LipschitzReport(max_ratio, None)


def test_identity_pushforward_is_one_lipschitz():
    rng = random.Random(31)
    rep = pushforward_lipschitz_check(lambda r: r, Fraction(1), _corpus(rng))
    assert rep.violation is None
    assert rep.max_ratio <= 1


def test_truncation_pushforward_is_one_lipschitz():
    rng = random.Random(37)
    rep = pushforward_lipschitz_check(
        lambda r: truncate(r, 2), Fraction(1), _corpus(rng)
    )
    assert rep.violation is None


def test_unmarked_projection_is_one_lipschitz():
    rng = random.Random(41)
    rep = pushforward_lipschitz_check(
        lambda r: RootedMarkedGraph(r.graph.unmarked(), r.root),
        Fraction(1),
        _corpus(rng),
    )
    assert rep.violation is None


def test_truncation_distance_chain_bound():
    rng = random.Random(43)
    for _ in range(10):
        g = random_marked(rng, rng.randint(2, 9))
        mu = empirical_distribution(g)
        for k in (0, 1, 2, 3):
            d = levy_prokhorov(mu, truncate_measure(mu, k))
            assert d <= Fraction(1, 1 + k)


def test_operations_conserve_mass():
    rng = random.Random(47)
    g = random_marked(rng, 8)
    mu = empirical_distribution(g)
    assert sum(mu.atoms.values()) == 1
    assert sum(truncate_measure(mu, 2).atoms.values()) == 1
    assert sum(project_unmarked(mu).atoms.values()) == 1


def test_measure_text_round_trip():
    rng = random.Random(53)
    for _ in range(8):
        g = random_marked(rng, rng.randint(1, 8))
        mu = empirical_distribution(g)
        back = read_measure(write_measure(mu))
        assert back == mu
        # representatives are rebuilt from codes, distances still computable
        assert levy_prokhorov(mu, back) == 0


def test_read_measure_reps_share_one_alphabet_pair():
    # each atom's code uses some of the symbols, in its own order of
    # appearance; the isolated vertex's code uses no edge mark at all
    ab = MarkAlphabets(("s", "t"), ("b", "a"))
    g = build_graph(4, {(0, 1): ("b", "a"), (1, 2): ("b", "b")}, ("t", "s", "s", "s"), ab)
    mu = empirical_distribution(g)
    # a measure read from a file, and one built by hand without sources
    for back in (read_measure(write_measure(mu)), LocalMeasure(dict(mu.atoms))):
        assert len(back.atoms) == 4
        assert {back.rep(a).graph.alphabets for a in back.atoms} == {
            MarkAlphabets(("s", "t"), ("a", "b"))
        }


def test_read_measure_decodes_each_code_once(monkeypatch):
    """Reading U(G) back parses and builds each atom's code once: the
    decoded graphs are the atoms' sources, so ``LocalMeasure`` decodes
    nothing again."""
    mu = empirical_distribution(random_sparse_graph(random.Random(3), 300))
    text = write_measure(mu)
    calls = {"_parse_code": 0, "build_graph": 0}
    for name in calls:
        real = getattr(canonical, name)

        def counted(*args, real=real, name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(canonical, name, counted)
    back = read_measure(text)
    assert len(back.atoms) == 222
    assert calls == {"_parse_code": 222, "build_graph": 222}
    assert list(back.atoms.items()) == sorted(mu.atoms.items())
    assert all(canonicalize(back.rep(a)) == a for a in back.atoms)
    assert len({back.rep(a).graph.alphabets for a in back.atoms}) == 1


def test_read_measure_rejects_bad_header():
    with pytest.raises(ValueError):
        read_measure("atoms 3\n")


def test_total_variation_examples():
    g1 = path_graph(2)
    g2 = path_graph(3)
    mu = empirical_distribution(g1)
    nu = empirical_distribution(g2)
    assert total_variation(mu, mu) == 0
    # disjoint supports sit at total variation one
    assert total_variation(mu, nu) == 1
    assert total_variation(nu, mu) == 1


def test_total_variation_dominates_levy_prokhorov():
    rng = random.Random(59)
    for _ in range(10):
        mu = empirical_distribution(random_marked(rng, rng.randint(2, 7)))
        nu = empirical_distribution(random_marked(rng, rng.randint(2, 7)))
        assert levy_prokhorov(mu, nu) <= total_variation(mu, nu)
