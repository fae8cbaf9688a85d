"""Static checks for Strand programs.

Committed-choice languages fail at run time where Prolog would just
backtrack, so static lint pays for itself quickly.  Checks:

* ``undefined-call`` — a body goal's procedure is neither defined in the
  program, a builtin, a declared foreign, nor a declared service hook
  (usually a typo or a missing motif);
* ``singleton-variable`` — a named variable used exactly once in a rule
  (either a typo or noise; write ``_`` for deliberate don't-cares);
* ``unused-procedure`` — defined but unreachable from any entry point;
* ``unbound-output`` — a rule whose head repeats no variable into the body
  and assigns nothing (often a stub);
* ``pragma-without-motif`` — an ``@ random`` / ``@ task`` pragma in a
  program that is about to be executed directly.

The linter is advisory: it returns warnings, it never rejects.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from repro.strand.builtins import BUILTINS
from repro.strand.program import Program, Rule
from repro.strand.terms import Atom, Cons, Struct, Term, Tup, Var, deref
from repro.transform.callgraph import CallGraph
from repro.transform.rewrite import strip_placement

__all__ = ["LintWarning", "lint_program", "GUARD_BUILTINS"]

#: Guard goals are not calls; they are checked against this set instead.
GUARD_BUILTINS = frozenset(
    {"<", ">", "=<", ">=", "==", "\\==", "=\\=", "=:=", "true", "otherwise", "known"}
    | {"integer", "number", "float", "atom", "string", "list", "tuple"}
)


@dataclass(frozen=True)
class LintWarning:
    """One finding: category, the procedure it is in, and a message."""

    category: str
    procedure: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - display helper
        return f"[{self.category}] {self.procedure}: {self.message}"


def lint_program(
    program: Program,
    *,
    foreign: Iterable[tuple[str, int]] = (),
    entries: Iterable[tuple[str, int]] = (),
    allow_pragmas: bool = False,
) -> list[LintWarning]:
    """Lint a program.  ``foreign`` declares Python procedures; ``entries``
    declares the roots for reachability (defaults to every procedure, which
    disables the unused check unless entries are given)."""
    warnings: list[LintWarning] = []
    known = set(program.indicators) | set(BUILTINS) | set(foreign)

    for proc in program:
        label = f"{proc.name}/{proc.arity}"
        for index, rule in enumerate(proc.rules, start=1):
            where = f"{label} rule {index}"
            warnings.extend(_check_rule(rule, known, where, allow_pragmas))

    warnings.extend(_check_unused(program, entries))
    return warnings


def _check_rule(rule: Rule, known: set, where: str,
                allow_pragmas: bool) -> list[LintWarning]:
    warnings: list[LintWarning] = []
    # Undefined calls & pragmas.
    for goal in rule.body:
        inner, placement = strip_placement(goal)
        if placement is not None and type(deref(placement)) is Atom:
            if not allow_pragmas:
                warnings.append(LintWarning(
                    "pragma-without-motif", where,
                    f"'@ {deref(placement).name}' has no meaning without the "
                    f"matching motif transformation",
                ))
        indicator = inner.indicator
        if indicator not in known:
            warnings.append(LintWarning(
                "undefined-call", where,
                f"call to undefined procedure {indicator[0]}/{indicator[1]}",
            ))
    for guard in rule.guards:
        guard = deref(guard)
        name = guard.name if type(guard) is Atom else (
            guard.functor if type(guard) is Struct else None
        )
        if name is not None and name not in GUARD_BUILTINS:
            warnings.append(LintWarning(
                "undefined-call", where,
                f"unknown guard {name}",
            ))
    # Singleton variables.
    counts: Counter[int] = Counter()
    names: dict[int, str] = {}
    for term in (rule.head, *rule.guards, *rule.body):
        _count_vars(term, counts, names)
    for key, count in counts.items():
        name = names[key]
        if count == 1 and not name.startswith("_"):
            warnings.append(LintWarning(
                "singleton-variable", where,
                f"variable {name} occurs only once (use _{name} if deliberate)",
            ))
    return warnings


def _count_vars(term: Term, counts: Counter, names: dict[int, str]) -> None:
    term = deref(term)
    t = type(term)
    if t is Var:
        counts[id(term)] += 1
        names[id(term)] = term.name
    elif t is Struct or t is Tup:
        for arg in term.args:
            _count_vars(arg, counts, names)
    elif t is Cons:
        _count_vars(term.head, counts, names)
        _count_vars(term.tail, counts, names)


def _check_unused(program: Program,
                  entries: Iterable[tuple[str, int]]) -> list[LintWarning]:
    entries = set(entries)
    if not entries:
        return []
    graph = CallGraph(program)
    reachable = graph.reachable_from(entries)
    warnings = []
    for proc in program:
        if proc.indicator not in reachable:
            warnings.append(LintWarning(
                "unused-procedure", f"{proc.name}/{proc.arity}",
                "not reachable from any declared entry point",
            ))
    return warnings
