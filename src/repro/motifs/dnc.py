"""Generic divide-and-conquer motif — §4 future work.

The user supplies four procedures (Strand or foreign):

* ``is_base(P, Flag)``  — ``Flag := true/false``: is the problem trivial?
* ``base(P, R)``        — solve a trivial problem;
* ``split(P, P1, P2)``  — divide;
* ``combine(R1, R2, R)``— conquer.

The motif dispatches one branch of every split to a random processor —
``Tree1`` (§3.4) is exactly this motif specialized to tree structure, which
is why the paper lists divide and conquer among the motif candidates.

The library is the plain recursion; :mod:`repro.motifs.grain` adds the
``Depth`` argument that bounds remote dispatch to the first levels.
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.motifs.grain import grain_motif
from repro.motifs.random_map import random_stack

__all__ = ["DNC_LIBRARY", "dnc_motif", "dnc_stack"]

DNC_LIBRARY = """
% dnc(Problem, Result): parallel divide and conquer.
dnc(P, R) :- is_base(P, Flag), dnc1(Flag, P, R).
dnc1(true, P, R) :- base(P, R).
dnc1(false, P, R) :-
    split(P, P1, P2),
    dnc(P2, R2) @ random,
    dnc(P1, R1),
    combine(R1, R2, R).
"""


def dnc_motif() -> ComposedMotif:
    """``Grain ∘ DnC``: ``dnc(P, R, Depth)``."""
    return grain_motif() @ Motif(name="dnc", library=DNC_LIBRARY)


def dnc_stack(
    *,
    termination: bool = True,
    server_library: str = "ports",
) -> ComposedMotif:
    """``Server ∘ Rand ∘ [ShortCircuit ∘] DnC``.

    With termination, the entry message is ``boot(P, R, Depth, Done)``;
    without, ``dnc(P, R, Depth)``.  The short circuit waits on the outputs
    of the user's ``base/2`` and ``combine/3``, which the application
    supplies as foreign procedures.
    """
    return random_stack(dnc_motif(), ("dnc", 3), {("combine", 3): 2, ("base", 2): 1},
                        termination=termination, server_library=server_library)
