"""Transformation base classes.

A transformation is a pure function ``Program -> Program``.  Motif
composition (paper §2.2) interleaves transformations with library linking,

    M₂ ∘ M₁ (A) = T₂( T₁(A) ∪ L₁ ) ∪ L₂

so stacks compose as motifs, ``m2 @ m1`` (a
:class:`~repro.core.motif.ComposedMotif`), never by chaining bare
transformations.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.strand.program import Program

__all__ = ["Transformation", "Identity"]


class Transformation(ABC):
    """A source-to-source program transformation."""

    name: str = "transformation"

    @abstractmethod
    def apply(self, program: Program) -> Program:
        """Return the transformed program (the input is never mutated)."""

    def __call__(self, program: Program) -> Program:
        return self.apply(program)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Identity(Transformation):
    """The identity transformation (used by library-only motifs such as
    ``Tree1``, §3.4)."""

    name = "identity"

    def apply(self, program: Program) -> Program:
        return program.copy()
