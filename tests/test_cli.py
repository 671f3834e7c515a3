import math
import re

import pytest

from localgraphs.cli import main
from localgraphs.graphs import MarkAlphabets, build_graph, read_graph
from localgraphs.measures import empirical_distribution, write_measure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_is_deterministic_per_seed(capsys):
    code1, out1, _ = run(capsys, "sample", "--degrees", "1,1,2,2", "--seed", "7")
    code2, out2, _ = run(capsys, "sample", "--degrees", "1,1,2,2", "--seed", "7")
    code3, out3, _ = run(capsys, "sample", "--degrees", "1,1,2,2", "--seed", "8")
    assert code1 == code2 == code3 == 0
    assert out1 == out2
    assert out1.startswith("graph ")
    # a different seed is allowed to differ and usually does
    g = read_graph(out3)
    assert tuple(g.degree(v) for v in range(4)) == (1, 1, 2, 2)


def test_sample_marked_output_parses(capsys):
    code, out, _ = run(
        capsys,
        "sample", "--degrees", "1,1", "--seed", "3",
        "--theta", "s,t", "--xi", "a,b", "--u", "s:1,t:1", "--m", "a.b:1",
    )
    assert code == 0
    g = read_graph(out, MarkAlphabets(("s", "t"), ("a", "b")))
    assert sorted(g.tau) == ["s", "t"]
    assert sorted(g.xi.values()) == ["a", "b"]


def test_sample_partial_mark_flags_fail(capsys):
    code, _, err = run(
        capsys, "sample", "--degrees", "1,1", "--seed", "1", "--theta", "s",
    )
    assert code == 1
    assert "together" in err


def test_sample_nongraphical_exits_one(capsys):
    code, _, err = run(capsys, "sample", "--degrees", "3,1", "--seed", "1")
    assert code == 1
    assert err


def test_enumerate_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--degrees", "1,1,1,1")
    assert code == 0
    assert out.strip() == "count 3"


def test_enumerate_members_streams_them(capsys):
    code, out, _ = run(capsys, "enumerate", "--degrees", "1,1,1,1", "--members")
    assert code == 0
    assert out.count("graph ") == 3
    assert out.strip().endswith("count 3")


#: --u and --m values that are not count vectors over --theta s,t and
#: --xi a,b on two vertices, each with the symbol its error line must name
BAD_MARK_COUNTS = {
    "edge_mark_outside_xi": ("s:1,t:1", "a.c:1", "c"),
    "vertex_mark_outside_theta": ("s:1,q:1", "a.b:1", "q"),
    "vertex_mark_twice": ("s:1,s:1", "a.b:1", "s"),
    "pair_twice": ("s:1,t:1", "a.b:1,a.b:1", "a.b"),
    "pair_in_both_orders": ("s:1,t:1", "a.b:1,b.a:1", "a.b"),
}


@pytest.mark.parametrize("u,m,named", list(BAD_MARK_COUNTS.values()), ids=list(BAD_MARK_COUNTS))
def test_bad_mark_counts_exit_one(capsys, u, m, named):
    code, out, err = run(
        capsys,
        "enumerate", "--degrees", "1,1",
        "--theta", "s,t", "--xi", "a,b", "--u", u, "--m", m,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ")
    assert re.search(rf"\b{re.escape(named)}\b", err)


@pytest.mark.parametrize(
    "option,u,m,item",
    [("--u", "s,t:1", "a.b:1", "'s'"), ("--m", "s:1,t:1", "a.b:x", "'a.b:x'")],
    ids=["u_item_without_count", "m_count_not_an_integer"],
)
def test_mark_count_item_without_a_count_is_named(capsys, option, u, m, item):
    code, out, err = run(
        capsys,
        "enumerate", "--degrees", "1,1",
        "--theta", "s,t", "--xi", "a,b", "--u", u, "--m", m,
    )
    assert code == 1 and out == ""
    assert err == f"error: {option} item {item} needs a count (key:count)\n"
    assert "Traceback" not in err


def test_edge_mark_pair_in_either_order_samples_the_same(capsys):
    outs = set()
    for m in ("a.a:1,b.a:2", "a.a:1,a.b:2"):
        code, out, _ = run(
            capsys,
            "sample", "--degrees", "2,2,2", "--seed", "11",
            "--theta", "s,t", "--xi", "a,b", "--u", "s:2,t:1", "--m", m,
        )
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_verify_runs_a_suite_by_name(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mixture")
    assert code == 0
    assert out.startswith("[PASS] criterion 2 (mixture identity): n=2: 16 outcomes")
    code, _, err = run(capsys, "verify", "--suite", "nosuch")
    assert code == 1
    assert err.startswith("error: unknown suite 'nosuch'")


@pytest.mark.parametrize("number", ["11", "0", "-1"])
def test_verify_unknown_criterion_exits_one(capsys, number):
    code, out, err = run(capsys, "verify", "--criterion", "2", "--criterion", number)
    assert code == 1
    assert out == ""
    assert err == f"error: unknown criterion {number}; choose from 1-10\n"


def test_unknown_flag_exits_one(capsys):
    code, _, err = run(capsys, "enumerate", "--degrees", "1,1", "--bogus")
    assert code == 1
    assert "bogus" in err


def test_unknown_subcommand_exits_one(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_distance_between_measure_files(tmp_path, capsys):
    from localgraphs.graphs import build_graph

    ab = MarkAlphabets(("s",), ("a",))
    g1 = build_graph(2, {(0, 1): ("a", "a")}, ("s", "s"), ab)
    g2 = build_graph(2, {}, ("s", "s"), ab)
    f1 = tmp_path / "m1.txt"
    f2 = tmp_path / "m2.txt"
    f1.write_text(write_measure(empirical_distribution(g1)))
    f2.write_text(write_measure(empirical_distribution(g2)))
    code, out, _ = run(capsys, "distance", str(f1), str(f2))
    assert code == 0
    assert out.strip() == "1/2"
    code0, out0, _ = run(capsys, "distance", str(f1), str(f1))
    assert code0 == 0 and out0.strip() == "0/1"


def test_distance_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "distance", str(tmp_path / "no.txt"), str(tmp_path / "no.txt"))
    assert code == 1


def test_transport_round_trip(tmp_path, capsys):
    mat = tmp_path / "A.txt"
    tgt = tmp_path / "beta.txt"
    mat.write_text("dmat 1 0 3\n2 4 2\n")
    tgt.write_text("beta 3\n2 2 2\n")
    out_path = tmp_path / "out.txt"
    code, out, _ = run(
        capsys, "transport", "--matrix", str(mat), "--targets", str(tgt),
        "--out", str(out_path),
    )
    assert code == 0
    assert "changed_columns=1" in out
    assert out_path.read_text().splitlines()[0] == "dmat 1 0 3"


def test_transport_infeasible_exits_two(tmp_path, capsys):
    mat = tmp_path / "A.txt"
    tgt = tmp_path / "beta.txt"
    mat.write_text("dmat 0 1 2\n1 1\n1 1\n")
    tgt.write_text("beta 2\n3 3\n")
    code, _, err = run(
        capsys, "transport", "--matrix", str(mat), "--targets", str(tgt)
    )
    assert code == 2
    assert err


def test_surgery_end_to_end(tmp_path, capsys):
    from localgraphs.graphs import build_graph, write_graph

    ab = MarkAlphabets(("s",), ("a",))
    n = 40
    g = build_graph(
        n, {(i, i + 1): ("a", "a") for i in range(n - 1)}, ("s",) * n, ab
    )
    gpath = tmp_path / "g.txt"
    gpath.write_text(write_graph(g))
    degs = [g.degree(v) for v in range(n)]
    degrees = ",".join(str(d) for d in degs)
    out_path = tmp_path / "rebuilt.txt"
    code, out, _ = run(
        capsys, "surgery", "--graph", str(gpath), "--degrees", degrees,
        "--k", "1", "--seed", "5", "--out", str(out_path),
    )
    assert code == 0
    assert "degree_exact=True" in out
    assert "modified_vertices=0" in out
    rebuilt = read_graph(out_path.read_text(), ab)
    assert [rebuilt.degree(v) for v in range(n)] == degs


def test_cm_sampling_and_alpha(tmp_path, capsys):
    from localgraphs.colored import (
        color_graph,
        colored_degree_sequence_of,
        write_cds,
    )
    from localgraphs.graphs import build_graph

    ab = MarkAlphabets(("s",), ("a",))
    g = build_graph(
        4, {(0, 1): ("a", "a"), (1, 2): ("a", "a"), (2, 3): ("a", "a")},
        ("s",) * 4, ab,
    )
    cm, _ = color_graph(g, 1)
    cds_path = tmp_path / "d.cds"
    cds_path.write_text(write_cds(colored_degree_sequence_of(cm)))
    code, out, _ = run(capsys, "cm", "--cds", str(cds_path), "--seed", "11")
    assert code == 0
    assert out.startswith("edge ")
    code2, out2, _ = run(
        capsys, "cm", "--cds", str(cds_path), "--seed", "11", "--trials", "200",
        "--girth", "3",
    )
    assert code2 == 0
    assert "estimate=" in out2 and "trials=200" in out2


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cm_without_positive_trials_exits_one(tmp_path, capsys, trials):
    cds_path = tmp_path / "d.cds"
    cds_path.write_text("cds 2 1\ncolor 1 a - a - 1\nv 1 1:1\nv 2 1:1\n")
    code, out, err = run(capsys, "cm", "--cds", str(cds_path), "--seed", "1", "--trials", trials)
    assert (code, out, err) == (1, "", "error: trials must be >= 1\n")


def test_entropy_from_inputs_file(tmp_path, capsys):
    inputs = tmp_path / "rates.txt"
    inputs.write_text(
        "P=2:1\nQ=s:1\nvartheta=s:1\nchi=a:1\nd=a.a:2\n"
        "Sigma=0.0\nSigma.provenance=supplied\nJ1=0.0\nJ1.provenance=supplied\n"
    )
    code, out, _ = run(capsys, "entropy", "--inputs", str(inputs))
    assert code == 0
    assert "H_Q=" in out and "I_dQ=" in out


def test_entropy_full_rate_on_a_marked_measure(tmp_path, capsys):
    # vertex and edge marks both vary, so both Sanov terms of lambda are positive
    ab = MarkAlphabets(("s", "t"), ("a", "b"))
    g = build_graph(
        4,
        {(0, 1): ("a", "b"), (1, 2): ("a", "a"), (2, 3): ("b", "a"), (3, 0): ("b", "b")},
        ("s", "s", "t", "s"),
        ab,
    )
    measure = tmp_path / "mu.txt"
    measure.write_text(write_measure(empirical_distribution(g)))
    inputs = tmp_path / "rates.txt"
    inputs.write_text(
        "P=2:1\nQ=s:3/4,t:1/4\nvartheta=s:1/3,t:2/3\nchi=a:1/4,b:3/4\nd=a.a:2\n"
        "Sigma=0.25\nSigma.provenance=supplied\nJ1=0.125\nJ1.provenance=supplied\n"
    )
    code, out, _ = run(capsys, "entropy", "--inputs", str(inputs), "--measure", str(measure))
    assert code == 0
    (line,) = [ln for ln in out.splitlines() if ln.startswith("lambda=")]
    # recorded from the earlier inline sum (base + A) + B; base + (A + B) may
    # round the last bit differently
    assert math.isclose(float(line[len("lambda="):]), 2.78115474653985, rel_tol=1e-12)


@pytest.mark.parametrize("count", ["0", "-2"])
def test_sample_without_positive_count_exits_one(capsys, count):
    code, out, err = run(capsys, "sample", "--degrees", "1,1", "--seed", "1", "--count", count)
    assert (code, out, err) == (1, "", "error: count must be >= 1\n")


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_sample_config_without_positive_trials_exits_one(tmp_path, capsys, trials):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        f"degrees=1,1\ntheta=s\nxi=a\nvartheta=s:1\nchi=a:1\nseed=2\ntrials={trials}\n"
    )
    code, out, err = run(capsys, "sample", "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: trials must be >= 1\n")


def test_sample_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "degrees=1,1\ntheta=s\nxi=a\nvartheta=s:1\nchi=a:1\nseed=2\ntrials=3\n"
    )
    code, out, _ = run(capsys, "sample", "--config", str(cfg))
    assert code == 0
    assert out.count("graph ") == 3


#: the code of one vertex marked s, in hex
SINGLE = b"n=1;r=0;t=s;e=".hex()

# one malformed record per case, each in an otherwise valid file
MALFORMED = {
    "graph_header_without_count": ("graph", "graph \nv 1 s\n"),
    "vertex_without_mark": ("graph", "graph 2\nv 1 s\nv 2\ne 1 2 a a\n"),
    "vertex_with_two_marks": ("graph", "graph 2\nv 1 s\nv 2 s\nv 1 t\ne 1 2 a a\n"),
    "edge_with_two_marks": ("graph", "graph 2\nv 1 s\nv 2 s\ne 1 2 x y\ne 2 1 x x\n"),
    "measure_header_without_count": ("measure", "measure \natom 1/1 00\n"),
    "atom_without_code": ("measure", "measure 1\natom 1/1\n"),
    "atom_weight_over_zero": ("measure", "measure 1\natom 1/0 00\n"),
    "atom_weight_decimal": ("measure", "measure 1\natom 0.5 00\n"),
    "measure_count_not_an_int": ("measure", "measure x\natom 1/1 00\n"),
    "atom_code_not_a_code": ("measure", "measure 1\natom 1/1 00\n"),
    "atom_code_not_hex": ("measure", "measure 1\natom 1/1 zz\n"),
    "atom_code_given_twice": ("measure", f"measure 2\natom 1/2 {SINGLE}\natom 1/2 {SINGLE}\n"),
    "unknown_color": ("cds", "cds 2 1\ncolor 1 a - a - 1\nv 1 2:1\nv 2 1:1\n"),
    "vertex_out_of_range": ("cds", "cds 2 1\ncolor 1 a - a - 1\nv 1 1:1\nv 2 1:1\nv 7 1:2\n"),
    "color_without_conjugate": ("cds", "cds 2 1\ncolor 1 a - a -\nv 1 1:1\nv 2 1:1\n"),
    "negative_count": ("cds", "cds 2 1\ncolor 1 a - a - 1\nv 1 1:-1\nv 2 1:-1\n"),
    "repeated_vertex": ("cds", "cds 2 1\ncolor 1 a - a - 1\nv 1 1:1\nv 2 1:1\nv 1 1:3\n"),
    "repeated_color": (
        "cds", "cds 2 1\ncolor 1 a - a - 1\ncolor 1 b - b - 1\nv 1 1:1\nv 2 1:1\n"
    ),
    "color_repeated_in_vertex": ("cds", "cds 2 1\ncolor 1 a - a - 1\nv 1 1:1 1:1\nv 2 1:2\n"),
}


@pytest.mark.parametrize("kind,text", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_record_is_a_format_error(tmp_path, capsys, kind, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    p = str(path)
    argv = {
        "graph": ("surgery", "--graph", p, "--degrees", "1,1", "--k", "1", "--seed", "1"),
        "measure": ("distance", p, p),
        "cds": ("cm", "--cds", p, "--seed", "1"),
    }[kind]
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "text,line,problem",
    [
        ("measure x\natom 1/1 00\n", "measure x", "atom count is not a nonnegative int"),
        ("measure 1\natom 1/1 00\n", "atom 1/1 00", "code is not a canonical code in hex"),
        ("measure 1\natom 1/1 zz\n", "atom 1/1 zz", "code is not a canonical code in hex"),
        (
            f"measure 2\natom 1/2 {SINGLE}\natom 1/2 {SINGLE}\n",
            f"atom 1/2 {SINGLE}",
            "code given twice",
        ),
    ],
    ids=["count", "code", "hex", "twice"],
)
def test_malformed_measure_line_is_named(tmp_path, capsys, text, line, problem):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, out, err = run(capsys, "distance", str(path), str(path))
    assert (code, out, err) == (1, "", f"error: {problem}: {line!r}\n")
