"""The automorphism-pruned individualization-refinement search on symmetric
families, where pruning skips most of the search tree, and on cones over
regular graphs, where one refinement cell holds vertices of several orbits.

Certificates must equal those of the full search (``ir_certificate_oracle``),
and codes must be invariant under relabelling and separate exactly the classes
that networkx's VF2 matcher separates.
"""
import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import categorical_edge_match, categorical_node_match

from localgraphs import canonical
from localgraphs.canonical import (
    _certificate,
    _edge_marks,
    _ir_certificate,
    _partition,
    _refine,
    canonical_code,
    canonicalize,
    neighbour_keys,
    rooted_classes,
)
from localgraphs.graphs import MarkAlphabets, RootedMarkedGraph, ball, build_graph
from localgraphs.verify import random_marked, random_sparse_graph

from oracles import certificate_oracle, ir_certificate_oracle, refine_oracle

AB = MarkAlphabets(("s", "t"), ("a", "b"))


def unmarked(n, edges):
    return build_graph(n, {e: ("a", "a") for e in edges}, None, AB)


def windmill(k):
    """k triangles sharing vertex 0; blade i is (2i + 1, 2i + 2)."""
    edges = []
    for i in range(k):
        edges += [(0, 2 * i + 1), (0, 2 * i + 2), (2 * i + 1, 2 * i + 2)]
    return unmarked(2 * k + 1, edges)


PETERSEN = unmarked(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
)


def bowtie(rng):
    """Two triangles sharing vertex 0, with random vertex and edge marks."""
    edges = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    marks = {e: (rng.choice(AB.xi), rng.choice(AB.xi)) for e in edges}
    return build_graph(5, marks, tuple(rng.choice(AB.theta) for _ in range(5)), AB)


def cone(graph: nx.Graph, shift: int):
    """A new vertex 0 joined to every vertex of graph, whose vertex v becomes
    1 + (v + shift) % len(graph).

    Rooted at 0, a cone over a regular graph leaves one refinement cell of
    all the other vertices.  Over an asymmetric graph, such as Frucht's, each
    of them is its own orbit, so the search may prune none of them; over the
    shifts, each of them is the last of that cell in turn.
    """
    m = len(graph)
    edges = [(0, 1 + (v + shift) % m) for v in graph]
    edges += [(1 + (u + shift) % m, 1 + (v + shift) % m) for u, v in graph.edges()]
    return unmarked(m + 1, edges)


def sparse_cyclic_components(rng, count):
    """The first ``count`` components with a cycle of seeded random sparse graphs."""
    found = []
    while len(found) < count:
        g = random_sparse_graph(rng, rng.randint(10, 30))
        seen = set()
        for v in range(g.n):
            if v not in seen:
                comp = ball(g, v).graph
                seen.update(g.component(v))
                if len(comp.edges) >= comp.n and len(found) < count:
                    found.append(comp)
    return found


def cases():
    """(id, graph, single roots to test) for every symmetric family."""
    rng = random.Random(2024)
    out = [(f"windmill{k}", windmill(k), (0, 1)) for k in range(2, 7)]
    out += [(f"C{m}", unmarked(m, [(i, (i + 1) % m) for i in range(m)]), (0,)) for m in range(3, 13)]
    out += [
        (f"K{m},{m}", unmarked(2 * m, [(i, m + j) for i in range(m) for j in range(m)]), (0,))
        for m in range(1, 5)
    ]
    out.append(("petersen", PETERSEN, (0,)))
    out += [(f"bowtie{i}", bowtie(rng), (0, 1)) for i in range(8)]
    c3_c4 = nx.disjoint_union(nx.cycle_graph(3), nx.cycle_graph(4))
    out += [(f"c3_c4_cone{i}", cone(c3_c4, i), (0,)) for i in range(7)]
    out += [(f"sparse{i}", g, (0, g.n - 1)) for i, g in enumerate(sparse_cyclic_components(rng, 8))]
    return out


CASES = cases()
# VF2 needs seconds per non-isomorphic pair of Frucht cones, so these only
# meet the full search
FRUCHT = [(f"frucht_cone{i}", cone(nx.frucht_graph(), i), (0,)) for i in range(12)]


def root_tuples(g, singles, rng):
    """Each single root, and each paired with a seeded random second root."""
    return [(r,) for r in singles] + [(r, rng.randrange(g.n)) for r in singles]


@pytest.fixture(scope="session")
def full_search():
    """ir_certificate_oracle by (case id, roots), run once per session: both
    searches below check the same roots, and the unpruned search takes
    seconds on windmill6."""
    certificates = {}

    def certificate(name, g, roots):
        if (name, roots) not in certificates:
            certificates[(name, roots)] = ir_certificate_oracle(g, roots)
        return certificates[(name, roots)]

    return certificate


@pytest.mark.parametrize("name,g,singles", [pytest.param(*c, id=c[0]) for c in CASES + FRUCHT])
def test_pruned_search_matches_full_search(name, g, singles, full_search):
    rng = random.Random(name)
    for roots in root_tuples(g, singles, rng):
        assert _ir_certificate(g, roots)[0] == full_search(name, g, roots), roots


def test_neighbour_keys_are_computed_once_per_graph():
    g = windmill(3)
    assert neighbour_keys(g) is neighbour_keys(g)
    assert neighbour_keys(g) == neighbour_keys(windmill(3))


def test_edge_marks_are_computed_once_per_graph():
    g = windmill(3)
    assert _edge_marks(g) is _edge_marks(g)
    assert _edge_marks(g) == _edge_marks(windmill(3))


def check_refine(keys, colors):
    """_refine from the partition of the colours gives the oracle's colours,
    and its cells are the colour classes in colour order, each in ascending
    vertex order."""
    col, cell_at = _partition(colors)
    _refine(keys, col, cell_at, [cell for cell in cell_at if len(cell) > 1])
    rank = {c: i for i, c in enumerate(sorted(set(col)))}
    refined = [rank[c] for c in col]
    cells = [cell for cell in cell_at if cell]
    assert refined == refine_oracle(keys, colors), colors
    assert [sorted(cell) for cell in cells] == cells
    for i, cell in enumerate(cells):
        assert [refined[v] for v in cell] == [i] * len(cell)
    assert sorted(v for cell in cells for v in cell) == list(range(len(colors)))
    return refined


@pytest.mark.parametrize("name,g,singles", [pytest.param(*c, id=c[0]) for c in CASES])
def test_refine_matches_round_synchronous_oracle(name, g, singles):
    keys = neighbour_keys(g)
    ranking = {t: i for i, t in enumerate(sorted(set(g.tau)))}
    colors = check_refine(keys, [ranking[t] for t in g.tau])
    # individualizing v gives it colour n, past every other colour
    for v in range(g.n):
        check_refine(keys, colors[:v] + [g.n] + colors[v + 1:])


@pytest.mark.parametrize("name,g,singles", [pytest.param(*c, id=c[0]) for c in CASES + FRUCHT])
def test_split_local_refinement_matches_oracle_at_every_node(name, g, singles, monkeypatch, full_search):
    """Each child partition of the search, refined from its split alone, is
    the oracle's refinement of the parent's colours with v moved to n."""
    individualize = canonical._individualize

    def checked(keys, col, cell_at, v, top):
        before = (col.copy(), cell_at.copy())
        child_col, child_cells = individualize(keys, col, cell_at, v, top)
        assert (col, cell_at) == before
        rank = {c: i for i, c in enumerate(sorted(set(col)))}
        parent = [rank[c] for c in col]
        parent[v] = g.n
        rank = {c: i for i, c in enumerate(sorted(set(child_col)))}
        assert [rank[c] for c in child_col] == refine_oracle(keys, parent), (v, parent)
        # each child cell is ascending and holds exactly the vertices of its colour
        for c, cell in enumerate(child_cells):
            assert sorted(cell) == list(cell)
            assert all(child_col[w] == c for w in cell)
        assert sorted(w for cell in child_cells for w in cell) == list(range(g.n))
        return child_col, child_cells

    monkeypatch.setattr(canonical, "_individualize", checked)
    rng = random.Random(name)
    for roots in [()] + root_tuples(g, singles, rng):
        assert _ir_certificate(g, roots)[0] == full_search(name, g, roots), roots


LONG_MARKS = MarkAlphabets(("s", "tt", "uvw"), ("ab", "c", "xyz"))


def test_certificate_matches_oracle():
    # 12 or more vertices, so positions of two digits sort as strings
    rng = random.Random(15)
    for n in (12, 13, 17, 24):
        g = random_marked(rng, n, 0.3, LONG_MARKS)
        for _ in range(6):
            order = list(range(n))
            rng.shuffle(order)
            for roots in ((rng.randrange(n),), (rng.randrange(n), rng.randrange(n))):
                assert _certificate(g, roots, order) == certificate_oracle(g, roots, order)


def relabelled(g, perm):
    marks = {(perm[u], perm[v]): (g.xi[(u, v)], g.xi[(v, u)]) for (u, v) in g.edges}
    tau = [""] * g.n
    for v in range(g.n):
        tau[perm[v]] = g.tau[v]
    return build_graph(g.n, marks, tuple(tau), g.alphabets)


def as_digraph(g, roots):
    d = nx.DiGraph()
    for v in range(g.n):
        d.add_node(v, label=(g.tau[v], tuple(i for i, r in enumerate(roots) if r == v)))
    for (u, v), x in g.xi.items():
        d.add_edge(u, v, x=x)
    return d


def nx_isomorphic(g, roots, h, roots_h):
    return nx.is_isomorphic(
        as_digraph(g, roots),
        as_digraph(h, roots_h),
        node_match=categorical_node_match("label", None),
        edge_match=categorical_edge_match("x", None),
    )


@pytest.mark.parametrize("name,g,singles", [pytest.param(*c, id=c[0]) for c in CASES])
def test_codes_are_relabelling_invariant_and_match_networkx(name, g, singles):
    rng = random.Random(name)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabelled(g, perm)
    for roots in root_tuples(g, singles, rng):
        moved = tuple(perm[r] for r in roots)
        assert canonical_code(g, roots) == canonical_code(h, moved), roots
    # every rooting of g against every rooting of its relabelled copy
    mine = rooted_classes(g)
    theirs = rooted_classes(h)
    for v in range(g.n):
        assert mine[v] == canonicalize(RootedMarkedGraph(g, v))
        for w in range(g.n):
            same = mine[v] == theirs[w]
            assert same == nx_isomorphic(g, (v,), h, (w,)), (v, w)
