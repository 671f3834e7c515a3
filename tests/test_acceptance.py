"""End-to-end acceptance runs.

One test per numbered verification suite; each prints its pass/fail line so a
plain ``pytest tests/test_acceptance.py -s`` reads as a checklist.  Every suite
runs from a fixed seed, so its detail string is pinned verbatim: a suite that
draws other random numbers, or checks other code with the same numbers,
changes it.
"""
import pytest

from localgraphs.verify import SUITES, format_result, run_suites

DETAILS = {
    1: "22 instances",
    2: "n=2: 16 outcomes, total 1; n=4: 768 outcomes, total 1",
    3: "plain: 3 outcomes, worst 1.03 se; marked: 4 outcomes, worst 1.48 se",
    4: "200 pairs, 0 mismatches",
    5: "500 random graphs, 0 failures; crafted witness found: True",
    6: "50 pairs, 0 failures",
    7: "1000 instances, 0 failures; worked example ok: True",
    8: "modified 5/200 (bound 8), transport changed 2, d_LP 1/40, attempts 16",
    9: (
        "n=200: 0.0609 [0.0564, 0.0658]; n=400: 0.0624 [0.0578, 0.0673]; "
        "n=800: 0.0636 [0.0590, 0.0686]"
    ),
    10: "7/7 checks; gap sequence ['1.016', '0.679', '0.518']",
}


@pytest.mark.parametrize("number", sorted(SUITES))
def test_criterion(number, capsys, request):
    result = request.getfixturevalue("criterion9") if number == 9 else run_suites([number])[0]
    with capsys.disabled():
        print(format_result(result))
    assert (result.number, result.name) == (number, SUITES[number][1])
    assert result.passed, result.detail
    assert result.detail == DETAILS[number]
