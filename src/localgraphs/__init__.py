"""Toolkit for marked random graphs with given degrees in the local topology."""

from .canonical import CanonicalClass, canonicalize, local_distance
from .graphs import (
    DegreeSequence,
    MarkAlphabets,
    MarkedGraph,
    RootedMarkedGraph,
    build_graph,
    read_graph,
    rooted_component,
    truncate,
    write_graph,
)
from .lp_distance import levy_prokhorov
from .measures import (
    LocalMeasure,
    check_unimodular,
    empirical_distribution,
    read_measure,
    write_measure,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalClass",
    "DegreeSequence",
    "LocalMeasure",
    "MarkAlphabets",
    "MarkedGraph",
    "RootedMarkedGraph",
    "build_graph",
    "canonicalize",
    "check_unimodular",
    "empirical_distribution",
    "levy_prokhorov",
    "local_distance",
    "read_graph",
    "read_measure",
    "rooted_component",
    "truncate",
    "write_graph",
    "write_measure",
    "__version__",
]
