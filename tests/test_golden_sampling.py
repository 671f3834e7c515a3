"""Pinned output of the seeded sampling subcommands.

Every pairing draw goes through ``colored._draw``, so these digests pin the
random stream the configuration-model samplers consume, not only their
determinism: a draw that pairs half-edges with other index draws, in another
order, or that stops at another pair, changes the bytes.  Outputs hold whole graphs
or pairings, so each is pinned by the sha256 of its standard output.
"""
import hashlib
import random

import pytest

from localgraphs.cli import main
from localgraphs.colored import color_graph, colored_degree_sequence_of, write_cds
from localgraphs.graphs import DegreeSequence
from localgraphs.marks import CountVectors
from localgraphs.samplers import sample_uniform_marked
from localgraphs.verify import AB2, _alpha_profile

#: a 3-regular sequence on 300 vertices
CUBIC = ",".join(["3"] * 300)
#: 40 vertices of degrees 1, 2, 3, 2 in turn: 80 half-edges, 40 edges
MIXED = ",".join(str((1, 2, 3, 2)[v % 4]) for v in range(40))
MARKS = ("--theta", "s,t", "--xi", "a,b", "--u", "s:25,t:15", "--m", "a.a:20,a.b:12,b.b:8")
CONFIG = (
    f"degrees={MIXED}\ntheta=s,t\nxi=a,b\nvartheta=s:1/3,t:2/3\n"
    "chi=a:3/4,b:1/4\nseed=17\ntrials=2\n"
)


def colored_sample_cds() -> str:
    """The depth-1 colored degree sequence of one uniform marked sample."""
    ell = DegreeSequence(tuple(int(d) for d in MIXED.split(",")))
    cv = CountVectors(AB2, {"s": 25, "t": 15}, {("a", "a"): 20, ("a", "b"): 12, ("b", "b"): 8})
    g = sample_uniform_marked(ell, cv, random.Random(23))
    return write_cds(colored_degree_sequence_of(color_graph(g, 1)[0]))


#: name: (argv with {file} for the input file, input text or None, stdout sha256)
CASES = {
    "sample-degrees": (
        ("sample", "--degrees", CUBIC, "--seed", "5", "--count", "2"), None,
        "1e8dbfb923af952882355bd2f1ec1c2e3eea29711d8ac4991cd10c41d6348364",
    ),
    "sample-theta": (
        ("sample", "--degrees", MIXED, "--seed", "6") + MARKS, None,
        "abcacd4e0978a53c29d3b4bad9d0f3720cdaf5efd720f20fbce9207de92ffe3d",
    ),
    "sample-config": (
        ("sample", "--config", "{file}"), CONFIG,
        "77b82dcafe8782e8bcb704853e88df529a1980839e4bf8a02f9b1166a9058efe",
    ),
    "cm-sample": (
        ("cm", "--cds", "{file}", "--seed", "7"), colored_sample_cds(),
        "18eb2b7faedf7f216fdd67fbd5251edd84663dcb6a100f9f0845b9d4264c7105",
    ),
    # criterion 9's profile at n = 200, at the girth it checks and above
    "cm-trials-girth3": (
        ("cm", "--cds", "{file}", "--seed", "8", "--trials", "200", "--girth", "3"),
        write_cds(_alpha_profile(200)),
        "d999080a4e04761da0c24cd3de626e891f0969a56e57ddb5d5f875bff282ef81",
    ),
    "cm-trials-girth5": (
        ("cm", "--cds", "{file}", "--seed", "8", "--trials", "200", "--girth", "5"),
        write_cds(_alpha_profile(200)),
        "03c190c33fb3e8da39fa050541cda64fe89ed63f94953e6ed1088ccfba68ded6",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_sampling_output_is_pinned(tmp_path, capsys, name):
    argv, text, digest = CASES[name]
    if text is not None:
        (tmp_path / "in.txt").write_text(text)
    code = main([a.format(file=tmp_path / "in.txt") for a in argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert hashlib.sha256(captured.out.encode()).hexdigest() == digest


def test_criterion9_detail_is_pinned(criterion9):
    passed, detail = criterion9.passed, criterion9.detail
    assert passed
    assert detail == (
        "n=200: 0.0609 [0.0564, 0.0658]; n=400: 0.0624 [0.0578, 0.0673]; "
        "n=800: 0.0636 [0.0590, 0.0686]"
    )
