"""Source-level pragmas.

A pragma is an ``@`` annotation with no engine semantics — it exists to be
erased by a transformation (the paper's ``@ random``).  Placements onto
*numeric* processor expressions (``@ J``) are a language feature, not a
pragma, and run directly.
"""

from __future__ import annotations

from repro.strand.terms import Atom

__all__ = ["RANDOM", "TASK"]

#: ``Goal @ random`` — dispatch to a randomly selected processor (§3.3).
RANDOM = Atom("random")

#: ``Goal @ task`` — hand the goal to the scheduler motif as a task ([6]).
TASK = Atom("task")

