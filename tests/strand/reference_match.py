"""The reference matcher: the seed interpreter's head matching, guard
evaluation and body instantiation, kept as the tests' oracle.

The runtime executes the compiled plans of :mod:`repro.strand.compile`.
This module walks rule terms directly instead, one definition per outcome,
so tests can run each matching case through both and check the compiled
selection against it on generated programs.  Head and body structure,
type tests and comparisons are read independently (the guard tables
below); repeated head variables and ``==``/``\\==`` use the runtime's own
helpers, imported below.

The paper (§2.1): "Conditions expressed by non-variable terms in a rule head
define dataflow constraints: A rule cannot be used to reduce a process until
a process's arguments match its own."

For one rule and one process goal there are three outcomes:

* **match** — every head position matches; rule variables are bound in an
  environment (never the caller's variables: matching is strictly one-way);
* **fail** — some position definitely clashes; the rule can never apply;
* **suspend** — some position needs a caller variable to be bound first;
  the blocking variables are reported so the engine can wait on them.

Guard goals are evaluated under the environment with the same three-valued
logic.
"""

from __future__ import annotations

import operator

from repro.strand.arith import ArithFail, Suspend, eval_arith
from repro.strand.compile import _match_values
from repro.strand.terms import (
    NIL,
    Atom,
    Cons,
    Struct,
    Term,
    Tup,
    Var,
    _ground_equal,
    copy_term,
    deref,
)

__all__ = ["MatchResult", "match_head", "eval_guards", "instantiate"]

#: Arithmetic comparison guards over evaluated operands.
_COMPARISONS = {
    "<": operator.lt,
    ">": operator.gt,
    "=<": operator.le,
    ">=": operator.ge,
    "=\\=": operator.ne,
    "=:=": operator.eq,
}

#: Type-test guards over a dereffed, bound operand.
GUARD_TESTS = {
    "integer": lambda t: type(t) is int,
    "number": lambda t: type(t) is int or type(t) is float,
    "float": lambda t: type(t) is float,
    "atom": lambda t: type(t) is Atom,
    "string": lambda t: type(t) is str,
    "list": lambda t: type(t) is Cons or t is NIL,
    "tuple": lambda t: type(t) is Tup,
}


class MatchResult:
    """Outcome of matching one rule against one goal."""

    __slots__ = ("status", "env", "blocked")

    MATCHED = "matched"
    FAILED = "failed"
    SUSPENDED = "suspended"

    def __init__(self, status: str, env: dict[int, Term] | None = None,
                 blocked: list[Var] | None = None):
        self.status = status
        self.env = env
        self.blocked = blocked

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MatchResult({self.status})"


def match_head(head: Struct, goal: Struct) -> MatchResult:
    """Match a rule head against a process goal (same name/arity assumed)."""
    env: dict[int, Term] = {}
    blocked: list[Var] = []
    for pattern, arg in zip(head.args, goal.args):
        if not _match(pattern, arg, env, blocked):
            return MatchResult(MatchResult.FAILED)
    if blocked:
        return MatchResult(MatchResult.SUSPENDED, blocked=blocked)
    return MatchResult(MatchResult.MATCHED, env=env)


def _match(pattern: Term, arg: Term, env: dict[int, Term], blocked: list[Var]) -> bool:
    """Returns False on definite mismatch; accumulates blocking vars.

    Iterative (explicit pair stack) so goals carrying deep lists cannot blow
    the interpreter stack; children are pushed reversed to keep the original
    left-to-right order of env bindings and blocked-variable accumulation.
    """
    stack = [(pattern, arg)]
    while stack:
        pattern, arg = stack.pop()
        pattern = deref(pattern)
        pt = type(pattern)
        if pt is Var:
            bound = env.get(id(pattern))
            if bound is None:
                env[id(pattern)] = arg
                continue
            # Non-linear head (same variable twice): both occurrences must
            # match the same value.  Unbound caller variables block the
            # decision unless they are identical.
            if not _match_values(bound, arg, blocked):
                return False
            continue
        arg = deref(arg)
        at = type(arg)
        if at is Var:
            blocked.append(arg)
            continue  # cannot decide yet; not a definite mismatch
        if pt is Atom:
            if pattern is not arg:
                return False
        elif pt is int or pt is float:
            if not ((at is int or at is float) and pattern == arg):
                return False
        elif pt is str:
            if not (at is str and pattern == arg):
                return False
        elif pt is Cons:
            if at is not Cons:
                return False
            stack.append((pattern.tail, arg.tail))
            stack.append((pattern.head, arg.head))
        elif pt is Tup:
            if at is not Tup or len(pattern.args) != len(arg.args):
                return False
            stack.extend(zip(reversed(pattern.args), reversed(arg.args)))
        elif pt is Struct:
            if at is not Struct or pattern.functor != arg.functor or len(
                pattern.args
            ) != len(arg.args):
                return False
            stack.extend(zip(reversed(pattern.args), reversed(arg.args)))
        else:
            raise TypeError(f"bad pattern term {pattern!r}")
    return True


def instantiate(term: Term, env: dict[int, Term], fresh: dict[int, Var]) -> Term:
    """Build a body/guard goal instance: rule variables become their matched
    values, unmatched rule variables become fresh shared variables.

    Copying is delegated to the iterative :func:`repro.strand.terms.copy_term`
    so reductions over 100k-element lists cannot raise ``RecursionError``.
    """

    def image(var: Var) -> Term:
        bound = env.get(id(var))
        if bound is not None:
            return bound
        new = fresh.get(id(var))
        if new is None:
            new = Var(var.name)
            fresh[id(var)] = new
            env[id(var)] = new
        return new

    return copy_term(term, image)


def eval_guards(guards: list[Term], env: dict[int, Term]) -> MatchResult:
    """Evaluate a rule's guard conjunction under a head-match environment.

    Guard goals never bind caller variables; they only observe.  A fresh-var
    table is threaded so guards mentioning head-only variables still share
    them (rare but legal).
    """
    blocked: list[Var] = []
    fresh: dict[int, Var] = {}
    for guard in guards:
        goal = instantiate(guard, env, fresh)
        outcome = _eval_guard(goal, blocked)
        if outcome is False:
            return MatchResult(MatchResult.FAILED)
    if blocked:
        return MatchResult(MatchResult.SUSPENDED, blocked=blocked)
    return MatchResult(MatchResult.MATCHED, env=env)


def _eval_guard(goal: Term, blocked: list[Var]) -> bool:
    goal = deref(goal)
    if type(goal) is Atom:
        if goal.name == "true":
            return True
        if goal.name == "otherwise":
            # `otherwise` succeeds; rule ordering gives it its meaning.
            return True
        return False
    if type(goal) is not Struct:
        return False
    name, arity = goal.functor, len(goal.args)
    if arity == 2 and name in _COMPARISONS:
        try:
            a = eval_arith(goal.args[0])
            b = eval_arith(goal.args[1])
        except Suspend as s:
            blocked.extend(s.variables)
            return True  # undecided
        except ArithFail:
            return False
        return _COMPARISONS[name](a, b)
    if arity == 2 and name in ("==", "\\=="):
        a, b = deref(goal.args[0]), deref(goal.args[1])
        decided, equal = _ground_equal(a, b, blocked)
        if not decided:
            return True  # undecided; blocked vars recorded
        return equal if name == "==" else not equal
    if arity == 1 and name in GUARD_TESTS:
        arg = deref(goal.args[0])
        if type(arg) is Var:
            blocked.append(arg)
            return True
        return GUARD_TESTS[name](arg)
    if arity == 1 and name == "known":
        arg = deref(goal.args[0])
        if type(arg) is Var:
            blocked.append(arg)
            return True
        return True
    return False
