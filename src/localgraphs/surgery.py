"""Local graph surgery: rebuild a marked graph on a new degree sequence while
keeping almost every depth-k neighborhood intact.

Pipeline: color the graph by depth-k directed types, transport the colored
degrees onto the target sequence, resample the colored half-edge model until
the short-cycle filter passes, then reconstruct marks color-blindly.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .canonical import depth_classes
from .colored import color_graph, colored_degree_sequence_of, mcb, sample_filtered_cm
from .errors import InvalidSequence
from .graphs import DegreeSequence, MarkedGraph
from .transport import modify_colored_degrees

DEFAULT_SURGERY_ATTEMPTS = 10**5


@dataclass(frozen=True)
class SurgeryReport:
    n: int
    k: int
    modified_vertices: int
    degree_exact: bool
    attempts: int
    transport_changed: int
    transport_bound: int
    propagated_bound: int  # changed vertices times a depth-k ball volume cap


def _ball_volume_cap(max_degree: int, k: int) -> int:
    """Most vertices a depth-k ball can hold at the given degree bound."""
    total, frontier = 1, max_degree
    for _ in range(k):
        total += frontier
        frontier *= max(1, max_degree - 1)
    return total


def modify_graph(
    gamma: MarkedGraph,
    ell: DegreeSequence,
    k: int,
    rng: random.Random,
    max_attempts: int = DEFAULT_SURGERY_ATTEMPTS,
) -> tuple[MarkedGraph, SurgeryReport]:
    """Return a graph with degrees exactly ell whose depth-k neighborhoods
    agree with gamma's outside a reported set of vertices.

    The short-cycle filter keeps only colored samples with no cycle of length
    at most 2k+1, which is what makes the reconstructed neighborhoods match.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if ell.n != gamma.n:
        raise InvalidSequence(f"vertex count mismatch: {ell.n} degrees for {gamma.n} vertices")
    # no simple graph has a non-graphical ell, so no draw could pass the filter
    ell.require_graphical()
    colored, _ = color_graph(gamma, k)
    D = colored_degree_sequence_of(colored)
    mod = modify_colored_degrees(D, ell)

    h, attempts = sample_filtered_cm(mod.sequence, 2 * k + 1, rng, max_attempts)
    rebuilt = mcb(gamma.tau, h, gamma.alphabets)
    degree_exact = all(rebuilt.degree(v) == ell.ell[v] for v in range(ell.n))
    modified = sum(
        1 for a, b in zip(depth_classes(rebuilt, k), depth_classes(gamma, k)) if a != b
    )
    # a vertex's depth-k class can move only if its ball reaches a vertex
    # whose colored degree the transport touched
    propagated = mod.changed_vertices * _ball_volume_cap(ell.bound, k)
    report = SurgeryReport(
        n=gamma.n,
        k=k,
        modified_vertices=modified,
        degree_exact=degree_exact,
        attempts=attempts,
        transport_changed=mod.changed_vertices,
        transport_bound=mod.bound,
        propagated_bound=propagated,
    )
    return rebuilt, report
