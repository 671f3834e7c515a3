"""Pinned output of the `transport` and `surgery` subcommands.

The expected text was recorded with the dense colours x n transport, which
now lives in ``tests/oracles.py``; the sparse transport must reproduce it byte
for byte.  Surgery output holds a whole graph, so it is pinned by its sha256
plus the report lines.
"""
import hashlib
import random

import pytest

from localgraphs.cli import main
from localgraphs.graphs import write_graph
from localgraphs.verify import SURGERY_N, random_bounded_tree

TRANSPORT = {
    # one diagonal row: the row becomes the target
    "p1": (
        "dmat 1 0 4\n0 2 0 4\n",
        "beta 4\n1 1 1 3\n",
        "dmat 1 0 4\n1 1 1 3\nchanged_columns=4\nchange_bound=61\n",
    ),
    # one conjugate pair; column 0 mismatches, so column 1 is the anchor, and
    # the excess moves twice into column 0
    "m1": (
        "dmat 0 1 5\n2 1 0 1 0\n0 1 2 0 1\n",
        "beta 5\n4 2 2 1 3\n",
        "dmat 0 1 5\n2 0 0 1 3\n2 2 2 0 0\nchanged_columns=3\nchange_bound=28\n",
    ),
    # two diagonal rows and a pair; the pair's mass on the mismatch set is
    # odd, so its sub-target takes one unit off column 1
    "p2m1": (
        "dmat 2 1 6\n2 0 2 0 1 1\n0 2 1 1 0 2\n1 0 2 1 0 1\n0 2 0 1 2 0\n",
        "beta 6\n5 4 5 3 3 4\n",
        "dmat 2 1 6\n5 1 2 0 1 1\n0 2 1 1 0 2\n0 1 1 1 0 1\n0 0 1 1 2 0\n"
        "changed_columns=3\nchange_bound=63\n",
    ),
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", list(TRANSPORT))
def test_transport_output_is_pinned(tmp_path, capsys, name):
    matrix, targets, expected = TRANSPORT[name]
    (tmp_path / "A.txt").write_text(matrix)
    (tmp_path / "beta.txt").write_text(targets)
    code, out, err = run(
        capsys, "transport", "--matrix", str(tmp_path / "A.txt"),
        "--targets", str(tmp_path / "beta.txt"),
    )
    assert (code, err) == (0, "")
    assert out == expected


def raised_leaves(tree_seed: int, n: int, first_only: bool, degree: int):
    """random_bounded_tree(Random(tree_seed), n) with its first leaf, and
    unless first_only its last leaf too, raised to the given degree."""
    g = random_bounded_tree(random.Random(tree_seed), n)
    ell = list(g.degrees())
    leaves = [v for v in range(n) if ell[v] == 1]
    for v in leaves[:1] if first_only else (leaves[0], leaves[-1]):
        ell[v] = degree
    return g, ell


#: name: (graph and target degrees, k, seed, stdout sha256, last report lines)
SURGERY = {
    "k1": (
        raised_leaves(61, 60, False, 2), 1, 3,
        "c010e5a06252d61d453cb59b53c7e984ffc44fab467ce9ce8d8e9af9c844e68b",
        "modified_vertices=6\ndegree_exact=True\nattempts=17\ntransport_changed=4\n"
        "transport_bound=250\npropagated_bound=16\n",
    ),
    "k2": (
        raised_leaves(60, 60, False, 2), 2, 7,
        "11bcdd3321631033c86c6dd048172ded5d0663df8cea7268062652b5bfeaf233",
        "modified_vertices=10\ndegree_exact=True\nattempts=1\ntransport_changed=4\n"
        "transport_bound=1425\npropagated_bound=40\n",
    ),
    # criterion 8's instance: tree seed 88, one leaf raised to 3, depth 1
    "criterion8": (
        raised_leaves(88, SURGERY_N, True, 3), 1, 88,
        "0d89be84fe1f4469fec257a32597ee3617816a9e6e128c9174e4b75760340890",
        "modified_vertices=5\ndegree_exact=True\nattempts=13\ntransport_changed=2\n"
        "transport_bound=170\npropagated_bound=8\n",
    ),
}


@pytest.mark.parametrize("name", list(SURGERY))
def test_surgery_output_is_pinned(tmp_path, capsys, name):
    (g, ell), k, seed, digest, report = SURGERY[name]
    (tmp_path / "g.txt").write_text(write_graph(g))
    code, out, err = run(
        capsys, "surgery", "--graph", str(tmp_path / "g.txt"),
        "--degrees", ",".join(map(str, ell)), "--k", str(k), "--seed", str(seed),
    )
    assert (code, err) == (0, "")
    assert out.endswith(report)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
