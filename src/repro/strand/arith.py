"""Dataflow arithmetic evaluation.

Arithmetic in this dialect is demand-driven: an expression evaluates to a
number once every variable in it is bound, and *suspends* (reporting the
blocking variables) until then.  This is what gives ``N1 := N - 1`` in
Figure 1 its synchronizing behaviour.
"""

from __future__ import annotations

from typing import Callable

from repro.strand.terms import Atom, Struct, Term, Var, deref

__all__ = ["Suspend", "ArithFail", "eval_arith", "is_arith_expr", "ARITH_FUNCTORS"]


class Suspend(Exception):
    """Evaluation blocked on unbound variables; carries the variables."""

    def __init__(self, variables: list[Var]):
        # Suspensions are hot and their text is rarely read: it is built
        # on demand by ``__str__``.
        self.variables = variables

    def __str__(self) -> str:
        return f"suspended on {[v.name for v in self.variables]}"


class ArithFail(Exception):
    """The term is not an arithmetic expression (e.g. an atom operand)."""


def _div(a, b):
    if b == 0:
        raise ArithFail("division by zero")
    return a / b


def _intdiv(a, b):
    if b == 0:
        raise ArithFail("division by zero")
    return a // b


def _mod(a, b):
    if b == 0:
        raise ArithFail("modulo by zero")
    return a % b


_BINARY: dict[str, Callable] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _div,
    "//": _intdiv,
    "mod": _mod,
    "min": min,
    "max": max,
}

_UNARY: dict[str, Callable] = {
    "-": lambda a: -a,
    "abs": abs,
    "float": float,
    "truncate": int,
}

#: Functors recognized as arithmetic when they appear as the right-hand side
#: of ``:=`` (other structures are built, not evaluated).
ARITH_FUNCTORS = frozenset(
    {(f, 2) for f in _BINARY} | {(f, 1) for f in _UNARY}
)


def is_arith_expr(term: Term) -> bool:
    """True if a (dereffed) term is an arithmetic expression *shape* —
    a Struct whose functor/arity is an arithmetic operator."""
    return type(term) is Struct and (term.functor, len(term.args)) in ARITH_FUNCTORS


def eval_arith(term: Term) -> int | float:
    """Evaluate an arithmetic expression to a Python number.

    Raises :class:`Suspend` if the expression contains unbound variables
    (collecting *all* blocking variables, so the caller can wait on any of
    them), or :class:`ArithFail` if a bound sub-term is not numeric.
    """
    blocked: list[Var] = []
    value = _eval(term, blocked)
    if blocked:
        raise Suspend(blocked)
    assert value is not None
    return value


def _eval(term: Term, blocked: list[Var]) -> int | float | None:
    term = deref(term)
    t = type(term)
    if t is int or t is float:
        return term
    if t is Var:
        blocked.append(term)
        return None
    if t is Struct:
        key = (term.functor, len(term.args))
        if len(term.args) == 2 and key in ARITH_FUNCTORS:
            a = _eval(term.args[0], blocked)
            b = _eval(term.args[1], blocked)
            if a is None or b is None:
                return None
            return _BINARY[term.functor](a, b)
        if len(term.args) == 1 and key in ARITH_FUNCTORS:
            a = _eval(term.args[0], blocked)
            if a is None:
                return None
            return _UNARY[term.functor](a)
        raise ArithFail(f"not an arithmetic operator: {term.functor}/{len(term.args)}")
    if t is Atom:
        raise ArithFail(f"atom {term.name!r} in arithmetic expression")
    raise ArithFail(f"non-numeric term {term!r} in arithmetic expression")
