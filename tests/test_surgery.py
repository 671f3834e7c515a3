import random

import pytest

from localgraphs.errors import InvalidSequence, NonGraphical
from localgraphs.graphs import DegreeSequence, MarkAlphabets, build_graph
from localgraphs.lp_distance import levy_prokhorov
from localgraphs.measures import empirical_distribution, truncate_measure
from localgraphs.surgery import _ball_volume_cap, modify_graph

AB1 = MarkAlphabets(("s",), ("a",))


def long_path(n):
    return build_graph(
        n, {(i, i + 1): ("a", "a") for i in range(n - 1)}, ("s",) * n, AB1
    )


def random_tree(rng, n, max_degree=3):
    marks = {}
    deg = [0] * n
    for v in range(1, n):
        choices = [u for u in range(v) if deg[u] < max_degree]
        u = rng.choice(choices)
        marks[(u, v)] = ("a", "a")
        deg[u] += 1
        deg[v] += 1
    return build_graph(n, marks, ("s",) * n, AB1)


def test_ball_volume_cap_values():
    assert _ball_volume_cap(2, 1) == 3
    assert _ball_volume_cap(3, 1) == 4
    assert _ball_volume_cap(3, 2) == 10  # 1 + 3 + 6


class CountingRandom(random.Random):
    """A generator that counts its draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()

    def getrandbits(self, k):
        self.draws += 1
        return super().getrandbits(k)


def test_non_graphical_target_fails_before_any_draw():
    # no simple graph has degrees 3, 3, 1, 1, so no draw could pass the filter
    rng = CountingRandom(1)
    with pytest.raises(NonGraphical, match=r"\(3, 3, 1, 1\) is not graphical"):
        modify_graph(long_path(4), DegreeSequence((3, 3, 1, 1)), 1, rng)
    assert rng.draws == 0


@pytest.mark.parametrize("n,degrees", [(2, (2,)), (4, (1, 1))], ids=["non-graphical", "graphical"])
def test_wrong_vertex_count_fails_before_any_draw(n, degrees):
    # the count is checked before graphicality, and before any colouring
    rng = CountingRandom(1)
    with pytest.raises(InvalidSequence, match=f"{len(degrees)} degrees for {n} vertices"):
        modify_graph(long_path(n), DegreeSequence(degrees), 1, rng)
    assert rng.draws == 0


def test_identity_degrees_leave_every_neighborhood():
    rng = random.Random(211)
    g = random_tree(rng, 60)
    ell = DegreeSequence(tuple(g.degree(v) for v in range(g.n)))
    rebuilt, report = modify_graph(g, ell, 1, rng)
    assert report.degree_exact
    assert report.transport_changed == 0
    assert report.modified_vertices == 0
    assert tuple(rebuilt.degree(v) for v in range(g.n)) == ell.ell


def test_small_degree_bump_changes_few_neighborhoods():
    rng = random.Random(223)
    g = random_tree(rng, 120)
    degs = [g.degree(v) for v in range(g.n)]
    leaves = [v for v, d in enumerate(degs) if d == 1]
    degs[leaves[0]] = 3  # grow one leaf, keep the total even
    degs[leaves[1]] = 3
    ell = DegreeSequence(tuple(degs))
    rebuilt, report = modify_graph(g, ell, 1, rng)
    assert report.degree_exact
    assert tuple(rebuilt.degree(v) for v in range(g.n)) == ell.ell
    assert report.modified_vertices <= report.propagated_bound
    assert report.propagated_bound < g.n
    # the depth-1 empirical laws stay close
    d = levy_prokhorov(
        truncate_measure(empirical_distribution(g), 1),
        truncate_measure(empirical_distribution(rebuilt), 1),
    )
    assert d <= report.modified_vertices / g.n + 1e-9


def test_rejects_nonpositive_depth():
    g = long_path(4)
    ell = DegreeSequence(tuple(g.degree(v) for v in range(4)))
    with pytest.raises(ValueError):
        modify_graph(g, ell, 0, random.Random(0))


def test_reports_attempt_count():
    rng = random.Random(227)
    g = long_path(30)
    ell = DegreeSequence(tuple(g.degree(v) for v in range(30)))
    _, report = modify_graph(g, ell, 2, rng)
    assert report.attempts >= 1
    assert report.k == 2 and report.n == 30
