"""Pinned output of the seeded sampling subcommands.

Every pairing draw goes through ``colored._draw``, so these digests pin the
random stream the configuration-model samplers consume, not only their
determinism: a sampler that permutes with other random numbers, or with the
same numbers in another order, changes the bytes.  Outputs hold whole graphs
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
from localgraphs.verify import AB2, _alpha_profile, suite_alpha

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
        "cae3f842b7384b27a8771b1a21474ccbc63aa0174b8b4b74b998e7599d533742",
    ),
    "sample-theta": (
        ("sample", "--degrees", MIXED, "--seed", "6") + MARKS, None,
        "ede0b15bb394262122b6eb973a3f03336ac065e901fb8d167351bc82fa12e5da",
    ),
    "sample-config": (
        ("sample", "--config", "{file}"), CONFIG,
        "986f8dc093210c690ad3c2303e6394b5667435663bb5ff85188aaf88c02b200a",
    ),
    "cm-sample": (
        ("cm", "--cds", "{file}", "--seed", "7"), colored_sample_cds(),
        "049828f3eb277b75314850961b4a2524f97eb301a28e2383feb1ea6f64ad27bd",
    ),
    # criterion 9's profile at n = 200, at the girth it checks and above
    "cm-trials-girth3": (
        ("cm", "--cds", "{file}", "--seed", "8", "--trials", "200", "--girth", "3"),
        write_cds(_alpha_profile(200)),
        "5e1ba24e68463c9c36c1ddaaea4d4b56a3c34d75782df7942caee7bce93dc143",
    ),
    "cm-trials-girth5": (
        ("cm", "--cds", "{file}", "--seed", "8", "--trials", "200", "--girth", "5"),
        write_cds(_alpha_profile(200)),
        "2f10b9fcc51010c53593517d3e9a9c3d2296c9773641ff00576d68e70194d234",
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


def test_criterion9_detail_is_pinned():
    passed, detail = suite_alpha()
    assert passed
    assert detail == (
        "n=200: 0.0599 [0.0554, 0.0647]; n=400: 0.0589 [0.0545, 0.0637]; "
        "n=800: 0.0633 [0.0587, 0.0682]"
    )
