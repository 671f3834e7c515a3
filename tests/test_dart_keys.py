"""Unimodularity balanced on dart keys.

``check_unimodular`` balances masses on ``canonical.dart_keys`` instead of
on the classes of edge-rooted pairs.  That is exact only if keys and classes
are in bijection, which for a graph with a cycle needs the automorphisms
that the pruned search finds to generate the whole group.  These tests check
the found generators' vertex and dart orbits against orbits found by VF2, the
keys against ``canonicalize_pair``, and every report against
``unimodular_edge_pairs_oracle``, which searches two pairs per edge.
"""
import random
from fractions import Fraction

import pytest

from localgraphs import canonical, measures
from localgraphs.canonical import _ir_certificate, _orbits, canonicalize_pair, dart_keys
from localgraphs.graphs import RootedMarkedGraph, build_graph
from localgraphs.measures import (
    check_unimodular,
    empirical_distribution,
    measure_from_pairs,
    truncate_measure,
)
from localgraphs.verify import AB2, random_bounded_tree, random_marked

from oracles import unimodular_edge_pairs_oracle
from test_exact_weights import mix, perturbed
from test_ir_search import CASES, nx_isomorphic, relabelled, unmarked, windmill


def unicyclic_marks(rng, sizes, marked=True):
    """Edge marks of disjoint components, one per size, each a random
    recursive tree plus one chord, so that it holds exactly one cycle."""
    marks, base = {}, 0
    for size in sizes:
        edges = {(rng.randrange(v), v) for v in range(1, size)}
        chords = [(u, v) for u in range(size) for v in range(u + 1, size) if (u, v) not in edges]
        edges.add(rng.choice(chords))
        for u, v in sorted(edges):
            pair = (rng.choice(AB2.xi), rng.choice(AB2.xi)) if marked else ("a", "a")
            marks[(base + u, base + v)] = pair
        base += size
    return marks


def unicyclic(rng, n, marked=True):
    marks = unicyclic_marks(rng, (n,), marked)
    tau = tuple(rng.choice(AB2.theta) if marked else "s" for _ in range(n))
    return build_graph(n, marks, tau, AB2)


def brute_orbits(g, elements, roots):
    """Orbits of the elements under Aut(g), as a set of frozensets: each
    element joins the first orbit whose first element VF2 maps onto it."""
    orbits: list[list] = []
    for x in elements:
        home = next((o for o in orbits if nx_isomorphic(g, roots(o[0]), g, roots(x))), None)
        if home is None:
            orbits.append([x])
        else:
            home.append(x)
    return {frozenset(o) for o in orbits}


def partition(rep: dict) -> set:
    classes: dict = {}
    for x, r in rep.items():
        classes.setdefault(r, set()).add(x)
    return {frozenset(c) for c in classes.values()}


def generator_cases():
    rng = random.Random(41)
    out = [(name, g) for name, g, _ in CASES]
    out += [(f"windmill{k}", windmill(k)) for k in (1, 7)]
    out.append(("K3,3", unmarked(6, [(i, 3 + j) for i in range(3) for j in range(3)])))
    out += [(f"C{m}", unmarked(m, [(i, (i + 1) % m) for i in range(m)])) for m in (15, 16)]
    out += [(f"unicyclic{i}", unicyclic(rng, rng.randint(4, 14), i % 3 > 0)) for i in range(12)]
    return out


@pytest.mark.parametrize("name,g", generator_cases(), ids=[c[0] for c in generator_cases()])
def test_found_automorphisms_generate_the_group(name, g):
    autos = _ir_certificate(g, ())[2]
    for gamma in autos:
        assert sorted(gamma) == list(range(g.n))
        assert all(g.tau[gamma[v]] == t for v, t in enumerate(g.tau))
        assert all(g.xi[(gamma[u], gamma[v])] == x for (u, v), x in g.xi.items())
    vertices = list(range(g.n))
    assert partition(_orbits(autos, vertices)) == brute_orbits(g, vertices, lambda v: (v,))
    darts = sorted(g.xi)
    lifted = ({(o, v): (a[o], a[v]) for o, v in darts} for a in autos)
    assert partition(_orbits(lifted, darts)) == brute_orbits(g, darts, lambda d: d)


def key_cases():
    rng = random.Random(43)
    out = [g for _, g, _ in CASES]
    out += [unicyclic(rng, rng.randint(4, 12), i % 2 > 0) for i in range(8)]
    out += [random_bounded_tree(rng, rng.randint(1, 14)) for _ in range(8)]
    return out


@pytest.mark.parametrize("index", range(len(key_cases())))
def test_dart_keys_match_pair_classes(index):
    # against a relabelled copy too, so equal keys across graphs are tested
    g = key_cases()[index]
    rng = random.Random(index)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabelled(g, perm)
    darts = [(g, d) for d in sorted(g.xi)] + [(h, d) for d in sorted(h.xi)]
    keys = {id(x): dart_keys(x) for x in (g, h)}
    classes = {(id(x), d): canonicalize_pair(x, *d) for x, d in darts}
    for x, d in darts:
        for y, e in darts:
            same_key = keys[id(x)][d] == keys[id(y)][e]
            assert same_key == (classes[(id(x), d)] == classes[(id(y), e)]), (d, e)


def local_stats_graph(rng, n):
    """Marked unicyclic components of about 7 vertices each, plus an
    unmarked windmill, cycle and K3,3."""
    parts = n // 7
    sizes = tuple(n // parts + (j < n % parts) for j in range(parts))
    marks = unicyclic_marks(rng, sizes)
    k = rng.randint(2, 3)
    extra = [(n, n + 2 * i + j) for i in range(k) for j in (1, 2)]
    extra += [(n + 2 * i + 1, n + 2 * i + 2) for i in range(k)]
    m = rng.randint(3, 8)
    base = n + 2 * k + 1
    extra += [(base + i, base + (i + 1) % m) for i in range(m)]
    base += m
    extra += [(base + i, base + 3 + j) for i in range(3) for j in range(3)]
    size = base + 6
    for u, v in extra:
        marks[(min(u, v), max(u, v))] = ("a", "a")
    tau = tuple(rng.choice(AB2.theta) for _ in range(n)) + ("s",) * (size - n)
    return build_graph(size, marks, tau, AB2)


def report_families():
    rng = random.Random(47)
    empirical = [empirical_distribution(local_stats_graph(rng, n)) for n in range(14, 50, 5)]
    empirical += [empirical_distribution(g) for g in (windmill(3), unicyclic(rng, 9, False))]
    trees = [empirical_distribution(random_bounded_tree(rng, n)) for n in (7, 12, 20)]
    trees += [empirical_distribution(random_marked(rng, 12, 0.12, AB2)) for _ in range(3)]
    path = build_graph(3, {(0, 1): ("-", "-"), (1, 2): ("-", "-")})
    return {
        "empirical": empirical,
        "perturbed": [perturbed(mu, rng) for mu in empirical + trees if len(mu.atoms) > 1],
        "truncated": [truncate_measure(mu, k) for mu in empirical for k in (1, 2)],
        "trees": trees,
        "mixtures": [
            mix([(Fraction(2, 7), a), (Fraction(5, 7), b)])
            for a, b in zip(empirical + trees, trees + empirical)
        ],
        "crafted": [measure_from_pairs([(RootedMarkedGraph(path, 0), Fraction(1))])],
    }


def test_reports_equal_the_oracle():
    holds = {}
    for name, family in report_families().items():
        reports = [check_unimodular(mu) for mu in family]
        assert reports == [unimodular_edge_pairs_oracle(mu) for mu in family], name
        holds[name] = [r.holds for r in reports]
    assert all(holds["empirical"]) and all(holds["trees"]) and all(holds["mixtures"])
    assert False in holds["perturbed"] and holds["crafted"] == [False]
    assert True in holds["truncated"] and False in holds["truncated"]


def test_balanced_measure_runs_no_pair_search_and_no_new_search(monkeypatch):
    rng = random.Random(53)
    mus = [empirical_distribution(local_stats_graph(rng, n)) for n in (14, 28)]
    mus.append(empirical_distribution(random_bounded_tree(rng, 15)))
    calls = []
    monkeypatch.setattr(measures, "canonicalize_pair", lambda *a: calls.append(a))
    monkeypatch.setattr(canonical, "_ir_certificate", lambda *a: calls.append(a))
    for mu in mus:
        assert check_unimodular(mu).holds
    assert calls == []
