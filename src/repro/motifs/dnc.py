"""Generic divide-and-conquer motif — §4 future work.

The user supplies four procedures (Strand or foreign):

* ``is_base(P, Flag)``  — ``Flag := true/false``: is the problem trivial?
* ``base(P, R)``        — solve a trivial problem;
* ``split(P, P1, P2)``  — divide;
* ``combine(R1, R2, R)``— conquer.

The motif dispatches one branch of every split to a random processor —
``Tree1`` (§3.4) is exactly this motif specialized to tree structure, which
is why the paper lists divide and conquer among the motif candidates.

A depth bound keeps message grain sensible: below ``Depth`` remaining
levels of parallel splitting, recursion stays local (``ldnc``).
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.motifs.random_map import random_stack

__all__ = ["DNC_LIBRARY", "dnc_motif", "dnc_stack"]

DNC_LIBRARY = """
% dnc(Problem, Result, Depth): parallel divide and conquer with a depth
% bound on remote dispatch.
dnc(P, R, D) :- is_base(P, Flag), dnc1(Flag, P, R, D).
dnc1(true, P, R, _) :- base(P, R).
dnc1(false, P, R, D) :- D > 0 |
    split(P, P1, P2),
    D1 := D - 1,
    dnc(P2, R2, D1) @ random,
    dnc(P1, R1, D1),
    combine(R1, R2, R).
dnc1(false, P, R, 0) :- ldnc(P, R).

% Local (sequential) divide and conquer below the depth bound.
ldnc(P, R) :- is_base(P, Flag), ldnc1(Flag, P, R).
ldnc1(true, P, R) :- base(P, R).
ldnc1(false, P, R) :-
    split(P, P1, P2),
    ldnc(P1, R1),
    ldnc(P2, R2),
    combine(R1, R2, R).
"""


def dnc_motif() -> Motif:
    """Library-only generic divide-and-conquer motif."""
    return Motif(name="dnc", library=DNC_LIBRARY)


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
