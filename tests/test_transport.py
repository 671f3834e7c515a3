import io
import os
import random
import subprocess
import sys
from itertools import product

import pytest

from localgraphs.colored import (
    ColoredDegreeSequence,
    ColorSet,
    color_graph,
    colored_degree_sequence_of,
    sample_cm,
)
from localgraphs.errors import Infeasible, InvalidSequence
from localgraphs.graphs import DegreeSequence, MarkAlphabets, build_graph
from localgraphs.transport import (
    ColoredModification,
    DegreeMatrix,
    TargetDegrees,
    change_bound,
    changed_columns,
    column_degrees,
    mismatch_columns,
    modify_colored_degrees,
    read_matrix,
    read_targets,
    transport_general,
    write_matrix,
    write_targets,
)
from localgraphs.verify import random_bounded_tree, random_sparse_graph, transport_instance
from oracles import (
    colored_axioms_oracle,
    colored_to_matrix,
    dense_modify_colored_degrees,
    dense_transport,
    matrix_to_colored,
)

AB = MarkAlphabets(("s", "t"), ("a", "b"))


def test_matrix_validation():
    with pytest.raises(InvalidSequence):
        DegreeMatrix(1, 0, ((1, 1, 1),))  # odd row sum for a diagonal row
    with pytest.raises(InvalidSequence):
        DegreeMatrix(0, 1, ((1, 0), (0, 2)))  # unequal pair sums
    with pytest.raises(InvalidSequence):
        DegreeMatrix(0, 1, ((1, 0),))  # row count mismatch
    with pytest.raises(InvalidSequence):
        DegreeMatrix(1, 0, ((1, -1),))


def test_target_validation():
    with pytest.raises(InvalidSequence):
        TargetDegrees.of((1, 1, 1))  # odd sum
    with pytest.raises(InvalidSequence):
        TargetDegrees((3, 1), bound=2)
    assert TargetDegrees.of(()).bound == 0


def test_column_helpers():
    A = DegreeMatrix(1, 0, ((2, 4, 2),))
    beta = TargetDegrees.of((2, 2, 2))
    assert column_degrees(A) == (2, 4, 2)
    assert mismatch_columns(A, beta) == [1]
    out = transport_general(A, beta)
    assert column_degrees(out) == (2, 2, 2)
    assert changed_columns(A, out) == 1


def test_single_row_case_is_direct():
    A = DegreeMatrix(1, 0, ((0, 2, 0, 4),))
    beta = TargetDegrees.of((1, 1, 1, 3))
    out = transport_general(A, beta)
    assert out.a == ((1, 1, 1, 3),)
    assert changed_columns(A, out) <= change_bound(A, beta)


def test_identity_when_already_matching():
    A = DegreeMatrix(0, 1, ((1, 2), (2, 1)))
    beta = TargetDegrees.of(tuple(column_degrees(A)))
    assert transport_general(A, beta) is A


def test_worked_two_by_two_pair():
    A = DegreeMatrix(0, 1, ((1, 1), (1, 1)))
    beta = TargetDegrees.of((2, 4))
    out = transport_general(A, beta)
    assert column_degrees(out) == (2, 4)
    assert sum(out.a[0]) == sum(out.a[1])
    assert all(x >= 0 for row in out.a for x in row)


def test_all_columns_mismatch_is_infeasible():
    A = DegreeMatrix(0, 1, ((1, 1), (1, 1)))
    beta = TargetDegrees.of((3, 3))
    with pytest.raises(Infeasible):
        transport_general(A, beta)


def brute_force_pair_exists(a, beta):
    """Is there any nonneg pair matrix with equal row sums, the given column
    sums, agreeing with a outside the mismatch columns plus one anchor?"""
    n = len(beta)
    deg = [a[0][j] + a[1][j] for j in range(n)]
    mism = [j for j in range(n) if deg[j] != beta[j]]
    free = set(mism)
    anchors = [j for j in range(n) if j not in free]
    if not anchors:
        return False
    for anchor in anchors:
        cols = sorted(free | {anchor})
        ranges = [range(beta[j] + 1) for j in cols]
        for top in product(*ranges):
            b0 = list(a[0])
            b1 = list(a[1])
            for j, t in zip(cols, top):
                b0[j] = t
                b1[j] = beta[j] - t
            if sum(b0) == sum(b1) and all(x >= 0 for x in b0 + b1):
                return True
    return False


def test_pair_case_exhaustive_feasibility_agreement():
    # whenever a solution exists at all, the solver must find one
    rng = random.Random(101)
    checked = solved = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        a = [
            [rng.randint(0, 3) for _ in range(n)],
            [rng.randint(0, 3) for _ in range(n)],
        ]
        diff = sum(a[0]) - sum(a[1])
        if diff != 0:
            a[1][rng.randrange(n)] += diff
            if any(x < 0 for x in a[1]):
                continue
        beta = [rng.randint(0, 4) for _ in range(n)]
        if sum(beta) % 2:
            beta[rng.randrange(n)] += 1
        A = DegreeMatrix(0, 1, (tuple(a[0]), tuple(a[1])))
        tgt = TargetDegrees.of(tuple(beta))
        checked += 1
        try:
            out = transport_general(A, tgt)
        except Infeasible:
            assert not brute_force_pair_exists(a, beta)
            continue
        solved += 1
        assert column_degrees(out) == tuple(beta)
        assert sum(out.a[0]) == sum(out.a[1])
        assert changed_columns(A, out) <= change_bound(A, tgt)
    assert checked > 200 and solved > 50


def test_general_case_randomized_harness():
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(3, 8)
        p = rng.randint(0, 2)
        m = rng.randint(0, 2)
        if p + m == 0:
            p = 1
        rows = []
        for _ in range(p):
            row = [rng.randint(0, 3) for _ in range(n)]
            if sum(row) % 2:
                row[rng.randrange(n)] += 1
            rows.append(tuple(row))
        for _ in range(m):
            r1 = [rng.randint(0, 3) for _ in range(n)]
            r2 = [rng.randint(0, 3) for _ in range(n)]
            diff = sum(r1) - sum(r2)
            if diff > 0:
                r2[rng.randrange(n)] += diff
            elif diff < 0:
                r1[rng.randrange(n)] -= diff
            rows.append(tuple(r1))
            rows.append(tuple(r2))
        A = DegreeMatrix(p, m, tuple(rows))
        deg = list(column_degrees(A))
        # perturb a few entries away from the current degrees, keep parity
        for _ in range(rng.randint(0, 2)):
            j = rng.randrange(1, n)
            k = rng.randrange(1, n)
            deg[j] += 1
            deg[k] += 1
        beta = TargetDegrees.of(tuple(deg))
        try:
            out = transport_general(A, beta)
        except Infeasible:
            continue
        assert column_degrees(out) == beta.beta
        assert changed_columns(A, out) <= change_bound(A, beta)


def test_large_n_changes_stay_local():
    # the number of touched columns must not scale with n
    n = 500
    row = [2] * n
    A = DegreeMatrix(1, 0, (tuple(row),))
    target = list(row)
    target[3] += 1
    target[7] += 1
    beta = TargetDegrees.of(tuple(target))
    out = transport_general(A, beta)
    assert changed_columns(A, out) == 2
    assert change_bound(A, beta) < n


def test_colored_matrix_round_trip():
    rng = random.Random(107)
    for _ in range(10):
        n = rng.randint(3, 7)
        marks = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.4:
                    marks[(u, v)] = (rng.choice(AB.xi), rng.choice(AB.xi))
        tau = tuple(rng.choice(AB.theta) for _ in range(n))
        g = build_graph(n, marks, tau, AB)
        if not g.edges:
            continue  # an edgeless sequence has no rows to encode
        cm, _ = color_graph(g, 1)
        D = colored_degree_sequence_of(cm)
        A, order = colored_to_matrix(D)
        back = matrix_to_colored(A, order, D.colors)
        assert back.degrees == D.degrees


def test_colored_matrix_rows_match_per_vertex_counts():
    rng = random.Random(113)
    # a zero entry, as a cds file may hold, names a colour with no row
    sequences = [
        ColoredDegreeSequence.from_maps(
            ColorSet((("a", b"t0"), ("b", b"t1"))), [{(0, 0): 1, (0, 1): 0}, {(0, 0): 1}]
        )
    ]
    for _ in range(30):
        g = random_sparse_graph(rng, rng.randint(2, 14))
        if g.edges:
            sequences.extend(colored_degree_sequence_of(color_graph(g, k)[0]) for k in (1, 2))
    for D in sequences:
        A, order = colored_to_matrix(D)
        assert A.a == tuple(
            tuple(dict(D.degrees[v]).get(c, 0) for v in range(D.n)) for c in order
        )


def test_modify_colored_degrees_hits_targets():
    rng = random.Random(109)
    done = 0
    for _ in range(100):
        n = rng.randint(4, 8)
        marks = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    marks[(u, v)] = (rng.choice(AB.xi), rng.choice(AB.xi))
        tau = tuple(rng.choice(AB.theta) for _ in range(n))
        g = build_graph(n, marks, tau, AB)
        cm, _ = color_graph(g, 1)
        D = colored_degree_sequence_of(cm)
        deg = [sum(k for _, k in D.degrees[v]) for v in range(n)]
        tweak = list(deg)
        tweak[1] += 1
        tweak[2] += 1
        try:
            ell = DegreeSequence(tuple(tweak))
            mod = modify_colored_degrees(D, ell)
        except Infeasible:
            continue
        assert isinstance(mod, ColoredModification)
        assert tuple(sum(dict(mod.sequence.degrees[v]).values()) for v in range(n)) == ell.ell
        assert mod.changed_vertices <= mod.bound
        # the modified sequence still feeds the configuration model
        colored_axioms_oracle(sample_cm(mod.sequence, rng))
        done += 1
    assert done > 30


def outcome(solve, *args):
    try:
        return solve(*args)
    except Infeasible:
        return Infeasible


def mostly_zero_instance(rng):
    """Up to two diagonal rows and two pairs on at most 6 columns, mostly
    zeros, with every target entry redrawn."""
    n = rng.randint(2, 6)
    p, m = rng.randint(0, 2), rng.randint(0, 2)
    if p + m == 0:
        m = 1

    def row():
        return [rng.choice((0, 0, 0, 1, 2)) for _ in range(n)]

    rows = []
    for _ in range(p):
        r = row()
        r[rng.randrange(n)] += sum(r) % 2
        rows.append(tuple(r))
    for _ in range(m):
        r1, r2 = row(), row()
        diff = sum(r1) - sum(r2)
        (r2 if diff > 0 else r1)[rng.randrange(n)] += abs(diff)
        rows += [tuple(r1), tuple(r2)]
    target = [rng.choice((0, 0, 1, 2, 3)) for _ in range(n)]
    target[rng.randrange(n)] += sum(target) % 2
    return DegreeMatrix(p, m, tuple(rows)), TargetDegrees.of(tuple(target))


def test_sparse_transport_matches_dense_oracle():
    rng = random.Random(1103)
    instances = [transport_instance(rng, i) for i in range(1000)]
    instances += [mostly_zero_instance(rng) for _ in range(400)]
    infeasible = 0
    for A, beta in instances:
        expected = outcome(dense_transport, A, beta)
        assert outcome(transport_general, A, beta) == expected
        infeasible += expected is Infeasible
    assert 50 < infeasible < 200


def test_sparse_colored_transport_matches_dense_oracle():
    # criterion 8's targets: a bounded tree with raised leaves, at depth 1 and 2
    rng = random.Random(1109)
    for _ in range(60):
        g = random_bounded_tree(rng, rng.randint(8, 60))
        ell = list(g.degrees())
        leaves = [v for v in range(g.n) if ell[v] == 1]
        raised = rng.sample(leaves, rng.randint(1, min(3, len(leaves))))
        for v in raised:
            ell[v] = 3 if len(raised) == 1 else rng.randint(2, 3)
        if sum(ell) % 2:
            ell[raised[0]] -= 1
        ell = DegreeSequence(tuple(ell))
        for k in (1, 2):
            D = colored_degree_sequence_of(color_graph(g, k)[0])
            expected = outcome(dense_modify_colored_degrees, D, ell)
            mod = outcome(modify_colored_degrees, D, ell)
            if expected is Infeasible:
                assert mod is Infeasible
            else:
                assert (mod.sequence, mod.changed_vertices, mod.bound) == expected


def test_edgeless_sequence_keeps_its_columns():
    # no colour is present to carry degree; the dense matrix of this sequence
    # had no columns at all, so every target length mismatched
    D = ColoredDegreeSequence.from_maps(ColorSet(()), [{}, {}])
    assert modify_colored_degrees(D, DegreeSequence((0, 0))).sequence is D
    with pytest.raises(Infeasible):
        modify_colored_degrees(D, DegreeSequence((1, 1)))


def test_postconditions_survive_optimized_mode():
    # python -O strips assert statements; the transport checks must still raise
    script = """
from localgraphs import transport
from localgraphs.colored import ColorSet, ColoredDegreeSequence
from localgraphs.errors import LocalGraphsError
from localgraphs.graphs import DegreeSequence

transport._change_bound = lambda blocks, L, M, s: -1
D = ColoredDegreeSequence.from_maps(ColorSet((("a", b""),)), [{(0, 0): 1}, {(0, 0): 1}])
try:
    transport.modify_colored_degrees(D, DegreeSequence((2, 2)))
except LocalGraphsError:
    raise SystemExit(0)
raise SystemExit(3)
"""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert done.returncode == 0


def test_matrix_file_round_trip():
    A = DegreeMatrix(1, 1, ((2, 0, 2), (1, 2, 0), (0, 1, 2)))
    buf = io.StringIO()
    write_matrix(A, buf)
    buf.seek(0)
    assert read_matrix(buf) == A


def test_targets_file_round_trip():
    beta = TargetDegrees.of((3, 1, 2, 0))
    buf = io.StringIO()
    write_targets(beta, buf)
    buf.seek(0)
    back = read_targets(buf)
    assert back.beta == beta.beta


def test_read_matrix_rejects_bad_header():
    with pytest.raises(InvalidSequence):
        read_matrix(io.StringIO("matrix 1 0 2\n1 1\n"))
    with pytest.raises(InvalidSequence):
        read_targets(io.StringIO("betas 2\n1 1\n"))
