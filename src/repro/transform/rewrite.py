"""Rewriting combinators over programs, rules, and goals.

These are the building blocks motif transformations are written with.  All
combinators are *pure*: they operate on a copy of the input program, so a
transformation can never corrupt the application it was applied to (motifs
must be re-applicable to the same application with different parameters —
the paper's "experiment with alternative motifs in a single application").
"""

from __future__ import annotations

from typing import Callable

from repro.strand.program import Program, Rule
from repro.strand.terms import Atom, Struct, Term, deref

__all__ = [
    "goal_struct",
    "goal_indicator",
    "strip_placement",
    "with_placement",
    "rewrite_body",
    "map_body_goals",
    "map_rules",
]


def goal_struct(goal: Term) -> Struct:
    """Normalize a body goal to a Struct (zero-arity atoms become
    ``name()``)."""
    goal = deref(goal)
    if type(goal) is Atom:
        return Struct(goal.name, ())
    if type(goal) is Struct:
        return goal
    raise TypeError(f"not a goal: {goal!r}")


def strip_placement(goal: Term) -> tuple[Struct, Term | None]:
    """Split ``Goal @ Where`` into ``(Goal, Where)``; plain goals give
    ``(Goal, None)``.  Nested annotations collapse left-to-right."""
    goal = goal_struct(goal)
    where: Term | None = None
    while goal.functor == "@" and len(goal.args) == 2:
        where = goal.args[1]
        goal = goal_struct(goal.args[0])
    return goal, where


def with_placement(goal: Struct, where: Term | None) -> Term:
    """Re-attach a placement annotation (no-op when ``where`` is None)."""
    if where is None:
        return goal
    return Struct("@", (goal, where))


def goal_indicator(goal: Term) -> tuple[str, int]:
    """The called procedure's ``name/arity``, looking through ``@``."""
    inner, _ = strip_placement(goal)
    return inner.indicator


def rewrite_body(
    rule: Rule, fn: Callable[[Term, Rule], Term | list[Term]]
) -> Rule:
    """Rewrite each body goal of ``rule`` with ``fn(goal, rule)``, which
    returns a replacement goal or a list of goals (an empty list deletes
    the goal).  When every call returns its goal object unchanged, ``rule``
    itself comes back, provenance tag included; a rewritten rule carries no
    tag, so motif application stamps it with the rewriting layer.  Guards
    are left alone — motif transformations in the paper only restructure
    bodies."""
    body: list[Term] = []
    changed = False
    for goal in rule.body:
        result = fn(goal, rule)
        if isinstance(result, list):
            body.extend(result)
            changed = True
        else:
            body.append(result)
            changed = changed or result is not goal
    if not changed:
        return rule
    return Rule(rule.head, rule.guards, body)


def map_body_goals(
    program: Program,
    fn: Callable[[Term, Rule], Term | list[Term]],
    name: str | None = None,
) -> Program:
    """:func:`rewrite_body` over every rule (each a fresh-variable copy)."""
    return map_rules(program, lambda rule: rewrite_body(rule, fn), name)


def map_rules(
    program: Program,
    fn: Callable[[Rule], Rule | list[Rule]],
    name: str | None = None,
) -> Program:
    """Rewrite whole rules; ``fn`` gets a fresh-variable copy."""
    out = Program(name=name or program.name)
    for rule in program.rules():
        result = fn(rule.rename())
        if isinstance(result, list):
            for new_rule in result:
                out.add_rule(new_rule)
        else:
            out.add_rule(result)
    return out

