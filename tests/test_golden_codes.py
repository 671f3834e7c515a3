"""Pinned canonical code bytes.

Measure files store atoms as code hex, so a change to the bytes of any code
makes files written earlier unreadable as the same measures.  The expected
values are the per-vertex classes ``canonicalize(rooted_component(g, v))``.
"""
from localgraphs.canonical import canonicalize_pair
from localgraphs.graphs import MarkAlphabets, build_graph
from localgraphs.measures import empirical_distribution, read_measure, write_measure

AB = MarkAlphabets(("s", "t"), ("a", "b"))

# vertices 2 and 3 are twin leaves of vertex 1
TREE = build_graph(
    6,
    {(0, 1): ("a", "b"), (1, 2): ("a", "a"), (1, 3): ("a", "a"), (0, 4): ("b", "a"), (4, 5): ("b", "b")},
    ("s", "t", "s", "s", "t", "s"),
    AB,
)
# a marked 4-cycle with pendants at two opposite vertices
UNICYCLIC = build_graph(
    6,
    {(0, 1): ("a", "b"), (1, 2): ("a", "a"), (2, 3): ("b", "a"), (3, 0): ("a", "a"), (0, 4): ("b", "b"), (2, 5): ("a", "b")},
    ("s", "s", "t", "s", "t", "s"),
    AB,
)
# two triangles sharing vertex 0
WINDMILL = build_graph(
    5,
    {(0, 1): ("a", "a"), (1, 2): ("a", "a"), (0, 2): ("a", "a"), (0, 3): ("a", "a"), (3, 4): ("a", "a"), (0, 4): ("a", "a")},
    ("s",) * 5,
    AB,
)

TREE_MEASURE = (
    "measure 5\n"
    "atom 1/3 6e3d363b723d303b743d732c742c732c732c742c733b653d302e312e612e617c312e322e612e617c312e332e622e617c332e342e622e617c342e352e622e62\n"
    "atom 1/6 6e3d363b723d303b743d732c742c732c732c742c733b653d302e312e612e627c302e342e622e617c312e322e612e617c312e332e612e617c342e352e622e62\n"
    "atom 1/6 6e3d363b723d303b743d732c742c732c742c732c733b653d302e312e622e627c312e322e612e627c322e332e612e627c332e342e612e617c332e352e612e61\n"
    "atom 1/6 6e3d363b723d303b743d742c732c732c732c742c733b653d302e312e612e617c302e322e612e617c302e332e622e617c332e342e622e617c342e352e622e62\n"
    "atom 1/6 6e3d363b723d303b743d742c732c742c732c732c733b653d302e312e612e627c302e352e622e627c312e322e612e627c322e332e612e617c322e342e612e61\n"
)

UNICYCLIC_MEASURE = (
    "measure 6\n"
    "atom 1/6 6e3d363b723d353b743d732c732c732c732c742c743b653d302e312e612e617c302e322e612e627c302e342e622e627c312e352e612e627c322e352e612e617c332e352e622e61\n"
    "atom 1/6 6e3d363b723d353b743d732c732c732c732c742c743b653d302e312e612e617c302e322e612e627c302e352e622e627c312e342e612e627c322e342e612e617c332e342e622e61\n"
    "atom 1/6 6e3d363b723d353b743d732c732c732c742c742c733b653d302e312e612e617c302e322e612e627c302e342e622e627c312e332e612e627c322e332e612e617c332e352e612e62\n"
    "atom 1/6 6e3d363b723d353b743d732c732c732c742c742c733b653d302e312e612e617c302e332e612e627c312e342e622e627c312e352e612e627c322e332e622e617c332e352e612e61\n"
    "atom 1/6 6e3d363b723d353b743d732c732c732c742c742c733b653d302e312e622e617c302e332e612e617c312e342e622e627c312e352e612e617c322e332e622e617c332e352e622e61\n"
    "atom 1/6 6e3d363b723d353b743d732c732c732c742c742c733b653d302e332e612e617c302e352e622e617c312e332e612e627c312e352e612e617c322e332e622e617c342e352e622e62\n"
)

WINDMILL_MEASURE = (
    "measure 2\n"
    "atom 1/5 6e3d353b723d323b743d732c732c732c732c733b653d302e322e612e617c302e342e612e617c312e322e612e617c312e332e612e617c322e332e612e617c322e342e612e61\n"
    "atom 4/5 6e3d353b723d333b743d732c732c732c732c733b653d302e312e612e617c302e342e612e617c312e322e612e617c312e332e612e617c312e342e612e617c322e332e612e61\n"
)

TREE_PAIR_1_5 = "6e3d363b723d302c353b743d742c732c732c732c742c733b653d302e312e612e617c302e322e612e617c302e332e622e617c332e342e622e617c342e352e622e62"
UNICYCLIC_PAIR_0_0 = "6e3d363b723d352c353b743d732c732c732c742c742c733b653d302e332e612e617c302e352e622e617c312e332e612e627c312e352e612e617c322e332e622e617c342e352e622e62"


def test_empirical_measure_texts_are_pinned():
    for g, text in ((TREE, TREE_MEASURE), (UNICYCLIC, UNICYCLIC_MEASURE), (WINDMILL, WINDMILL_MEASURE)):
        mu = empirical_distribution(g)
        assert write_measure(mu) == text
        assert read_measure(text) == mu


def test_pair_codes_are_pinned():
    assert canonicalize_pair(TREE, 1, 5).hex() == TREE_PAIR_1_5
    assert canonicalize_pair(UNICYCLIC, 0, 0).hex() == UNICYCLIC_PAIR_0_0
