"""Task-farm (parallel map) motif — §4 future work ("areas in which motifs
seem appropriate").

A farm applies a user worker procedure ``f(X, Y)`` to every element of a
list, producing results in input order.  Parallelism comes from the paper's
own Random motif: each element's application is annotated ``@ random``, so
``Farm(f) = Server ∘ Rand ∘ FarmLib(f)``.

The library is *generated* around the worker's name — a small example of a
parameterized motif (reuse through modification, mechanized).
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.motifs.random_map import random_stack

__all__ = ["farm_library_source", "farm_motif", "farm_stack"]


def farm_library_source(worker: str = "f") -> str:
    """The farm library specialized to a worker procedure name.

    ``fmap(Xs, Ys)`` maps ``worker/2`` over ``Xs``; each application is
    dispatched to a random processor.
    """
    return f"""
fmap([X | Xs], Ys) :-
    Ys := [Y | Ys1],
    {worker}(X, Y) @ random,
    fmap(Xs, Ys1).
fmap([], Ys) :- Ys := [].
"""


def farm_motif(worker: str = "f") -> Motif:
    """Library-only farm motif over ``worker/2``."""
    return Motif(name=f"farm[{worker}]", library=farm_library_source(worker))


def farm_stack(
    worker: str = "f",
    *,
    termination: bool = True,
    server_library: str = "ports",
) -> ComposedMotif:
    """``Server ∘ Rand ∘ [ShortCircuit ∘] Farm(worker)``.

    Entry message: ``boot(Xs, Ys, Done)`` with termination, else
    ``fmap(Xs, Ys)``.
    """
    return random_stack(farm_motif(worker), ("fmap", 2), {(worker, 2): 1},
                        termination=termination, server_library=server_library)
