"""Parallel sorting motif — §4 future work.

A parallel mergesort: split the list, sort the halves (one shipped to a
random processor), merge the results.  The list primitives are user
procedures (typically foreign, with costs proportional to list length):

* ``halve(Xs, A, B)``           — split in two;
* ``merge_sorted(A, B, Out)``   — merge two sorted lists;
* ``sort_seq(Xs, Out)``         — sequential sort for small inputs.

``psort(Xs, Out, Depth)`` splits in parallel for the first ``Depth``
levels, then falls back to ``sort_seq``.
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.motifs.random_map import random_stack

__all__ = ["SORT_LIBRARY", "sort_motif", "sort_stack"]

SORT_LIBRARY = """
% psort(Xs, Out, Depth): parallel mergesort with a depth bound.
psort(Xs, Out, D) :- D > 0 |
    halve(Xs, A, B),
    D1 := D - 1,
    psort(B, SB, D1) @ random,
    psort(A, SA, D1),
    merge_sorted(SA, SB, Out).
psort(Xs, Out, 0) :- sort_seq(Xs, Out).
"""


def sort_motif() -> Motif:
    """Library-only parallel mergesort motif."""
    return Motif(name="sort", library=SORT_LIBRARY)


def sort_stack(
    *,
    termination: bool = True,
    server_library: str = "ports",
) -> ComposedMotif:
    """``Server ∘ Rand ∘ [ShortCircuit ∘] Sort``.

    Entry message: ``boot(Xs, Out, Depth, Done)`` with termination, else
    ``psort(Xs, Out, Depth)``.
    """
    return random_stack(sort_motif(), ("psort", 3),
                        {("merge_sorted", 3): 2, ("sort_seq", 2): 1},
                        termination=termination, server_library=server_library)
