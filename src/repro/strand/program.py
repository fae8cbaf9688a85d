"""Program representation: rules, procedures, programs.

A Strand program is a collection of guarded rules

    H :- G1, ..., Gm | B1, ..., Bn.

grouped into *procedures* by the head's name/arity.  Programs are plain data
(terms), which is what makes the paper's source-to-source transformations
possible: "Programs are represented as structured terms and transformations
as programs that manipulate these terms" (§2.2).

``Program.union`` implements the ``T(A) ∪ L`` step of motif application.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import MotifError
from repro.strand.terms import Cons, Struct, Term, Tup, Var, deref, rename_term

__all__ = ["Rule", "Procedure", "Program", "rule_key"]


def _canon(term: Term, numbering: dict[int, int]) -> tuple:
    """A hashable canonical form with variables numbered by first
    occurrence, so two renamings of one rule produce equal keys.  A list
    becomes its flat tuple of elements plus its tail: the spine is walked
    in a loop, and the key does not nest once per element."""
    term = deref(term)
    tt = type(term)
    if tt is Var:
        index = numbering.get(id(term))
        if index is None:
            index = len(numbering)
            numbering[id(term)] = index
        return ("v", index)
    if tt is Struct:
        return ("f", term.functor,
                tuple(_canon(a, numbering) for a in term.args))
    if tt is Tup:
        return ("t", tuple(_canon(a, numbering) for a in term.args))
    if tt is Cons:
        heads = []
        while type(term) is Cons:
            heads.append(_canon(term.head, numbering))
            term = deref(term.tail)
        return ("l", tuple(heads), _canon(term, numbering))
    if hasattr(term, "name"):  # Atom
        return ("a", term.name)
    return ("k", type(term).__name__, term)


def rule_key(rule: "Rule") -> tuple:
    """Structural identity of a rule modulo variable naming.

    Motif application compares output rules against input rules with this
    key to decide which rules a transformation actually *rewrote* — those
    get stamped with the transforming motif's name (see
    :meth:`repro.core.motif.Motif._apply_impl`).
    """
    numbering: dict[int, int] = {}
    return (
        _canon(rule.head, numbering),
        tuple(_canon(g, numbering) for g in rule.guards),
        tuple(_canon(b, numbering) for b in rule.body),
    )


@dataclass
class Rule:
    """One guarded rule.  ``guards`` may be empty (guard ``true``); ``body``
    may be empty (a fact, e.g. ``consumer([]).``).

    ``motif`` is the rule's provenance tag: the name of the motif layer
    whose library or transformation produced it, or ``None`` for rules the
    application programmer wrote.  Stamped during motif application (see
    :mod:`repro.core.motif`) and carried through copies, it is what lets
    traces and profiles attribute runtime cost back to a motif layer.
    """

    head: Struct
    guards: list[Term] = field(default_factory=list)
    body: list[Term] = field(default_factory=list)
    motif: str | None = None

    @property
    def indicator(self) -> tuple[str, int]:
        return self.head.indicator

    def rename(self) -> "Rule":
        """A copy of the rule with fresh variables (consistent across
        head, guards and body); provenance is preserved."""
        mapping: dict = {}
        head = rename_term(self.head, mapping)
        guards = [rename_term(g, mapping) for g in self.guards]
        body = [rename_term(b, mapping) for b in self.body]
        return Rule(head, guards, body, motif=self.motif)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from repro.strand.pretty import format_rule

        return format_rule(self)


@dataclass
class Procedure:
    """All rules sharing one head name/arity (``p/k`` in the paper)."""

    name: str
    arity: int
    rules: list[Rule] = field(default_factory=list)

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)

    def add(self, rule: Rule) -> None:
        if rule.indicator != self.indicator:
            raise ValueError(
                f"rule for {rule.indicator} added to procedure {self.indicator}"
            )
        self.rules.append(rule)


class Program:
    """A set of procedures, ordered by first definition.

    Supports the operations motifs need: lookup, iteration, structural
    copies, and union (with collision detection, because silently merging two
    different definitions of the same procedure is how composition bugs
    hide).
    """

    def __init__(self, rules: Iterable[Rule] = (), name: str = "program"):
        self.name = name
        self._procs: dict[tuple[str, int], Procedure] = {}
        # Bumped on every structural change; compiled artifacts (symbol
        # tables, rule indexes) are cached against this stamp.
        self._version = 0
        for rule in rules:
            self.add_rule(rule)

    @property
    def version(self) -> int:
        """Monotone structural-modification counter (cache invalidation)."""
        return self._version

    def __getstate__(self):
        # Compiled artifacts are cached as dynamic attributes keyed on the
        # version stamp; they hold generated functions and are rebuilt on
        # demand, so they must not (and cannot) cross process boundaries
        # when the parallel backend ships programs to workers.
        state = self.__dict__.copy()
        state.pop("_compiled_cache", None)
        return state

    # -- construction -----------------------------------------------------
    def add_rule(self, rule: Rule) -> None:
        key = rule.indicator
        proc = self._procs.get(key)
        if proc is None:
            proc = Procedure(key[0], key[1])
            self._procs[key] = proc
        proc.add(rule)
        self._version += 1

    # -- queries -----------------------------------------------------------
    def procedure(self, name: str, arity: int) -> Procedure | None:
        return self._procs.get((name, arity))

    def __contains__(self, indicator: tuple[str, int]) -> bool:
        return indicator in self._procs

    def __iter__(self) -> Iterator[Procedure]:
        return iter(self._procs.values())

    def __len__(self) -> int:
        return len(self._procs)

    @property
    def indicators(self) -> list[tuple[str, int]]:
        return list(self._procs.keys())

    def rules(self) -> Iterator[Rule]:
        for proc in self._procs.values():
            yield from proc.rules

    def rule_count(self) -> int:
        return sum(len(p.rules) for p in self._procs.values())

    def goal_count(self) -> int:
        return sum(len(r.guards) + len(r.body) for r in self.rules())

    # -- transformation support ---------------------------------------------
    def copy(self, name: str | None = None) -> "Program":
        """A deep structural copy with fresh variables, so transformations
        never mutate their input program."""
        out = Program(name=name or self.name)
        for rule in self.rules():
            out.add_rule(rule.rename())
        return out

    def union(self, other: "Program", name: str | None = None) -> "Program":
        """``self ∪ other`` — motif application's linking step.

        Raises :class:`MotifError` if both programs define the same
        procedure (the paper's libraries and applications have disjoint
        procedure sets by construction).
        """
        out = self.copy(name=name or f"{self.name}+{other.name}")
        for proc in other:
            if proc.indicator in out._procs:
                raise MotifError(
                    f"procedure {_fmt(proc.indicator)} defined by both "
                    f"{self.name!r} and {other.name!r}"
                )
            for rule in proc.rules:
                out.add_rule(rule.rename())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Program({self.name!r}, {self.rule_count()} rules)"

    def pretty(self) -> str:
        from repro.strand.pretty import format_program

        return format_program(self)


def _fmt(indicator: tuple[str, int]) -> str:
    return f"{indicator[0]}/{indicator[1]}"
