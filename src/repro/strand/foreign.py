"""Foreign (Python) procedures — the dialect's multilingual interface.

The paper (§2.1) assumes "a multilingual approach to parallel programming, in
which low level, computationally-intensive components of applications are
implemented in low level languages" (there: C; here: Python/NumPy), with the
high-level language coordinating them.  A foreign procedure is registered
under a ``name/arity`` and called like any Strand goal; the engine

1. waits (dataflow-suspends) until the declared *input* argument positions
   are fully ground,
2. converts them to Python values,
3. calls the function,
4. binds the returned values to the *output* argument positions, and
5. charges the declared virtual cost to the executing processor.

The cost hook is what lets experiments model non-uniform node evaluation
times ("the time required at each node is non-uniform and cannot easily be
predicted", §3.1) without wall-clock noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ForeignProcedureError
from repro.strand.terms import (
    Atom,
    Cons,
    NIL,
    Struct,
    Term,
    Tup,
    Var,
    deref,
    make_list,
)

__all__ = [
    "ForeignProcedure",
    "ForeignRegistry",
    "to_python",
    "from_python",
    "NotGround",
]


class NotGround(Exception):
    """Raised during term→Python conversion when an unbound variable is
    found; carries the variable so the engine can suspend on it."""

    def __init__(self, variable: Var):
        self.variable = variable
        super().__init__(f"unbound variable {variable.name}")


def to_python(term: Term) -> Any:
    """Deep-convert a ground term to Python data.

    lists → ``list``; tuples → ``tuple``; numbers/strings unchanged;
    atoms stay :class:`Atom` (they are interned and hashable); other
    structures stay as raw :class:`Struct` terms.
    """
    term = deref(term)
    t = type(term)
    if t is Var:
        raise NotGround(term)
    if t is Cons:
        out = []
        while type(term) is Cons:
            out.append(to_python(term.head))
            term = deref(term.tail)
            if type(term) is Var:
                raise NotGround(term)
        if term is not NIL:
            raise ForeignProcedureError(f"improper list passed to foreign code: {term!r}")
        return out
    if term is NIL:
        return []
    if t is Tup:
        return tuple(to_python(a) for a in term.args)
    if t is Struct:
        return Struct(term.functor, tuple(_to_python_keep_ground(a) for a in term.args))
    return term  # int, float, str, Atom


def _to_python_keep_ground(term: Term) -> Term:
    """Ground-check a struct argument without losing term structure.  List
    spines are walked in a loop, so a long list does not recurse."""
    term = deref(term)
    t = type(term)
    if t is Var:
        raise NotGround(term)
    if t is Struct:
        return Struct(term.functor, tuple(_to_python_keep_ground(a) for a in term.args))
    if t is Cons:
        heads = []
        while type(term) is Cons:
            heads.append(_to_python_keep_ground(term.head))
            term = deref(term.tail)
        return make_list(heads, _to_python_keep_ground(term))
    if t is Tup:
        return Tup([_to_python_keep_ground(a) for a in term.args])
    return term


def from_python(value: Any) -> Term:
    """Convert a Python value returned by foreign code into a term."""
    if isinstance(value, (Atom, Struct, Tup, Cons, Var)):
        return value
    if isinstance(value, bool):
        return Atom("true") if value else Atom("false")
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, list):
        return make_list([from_python(v) for v in value])
    if isinstance(value, tuple):
        return Tup([from_python(v) for v in value])
    if value is None:
        return Atom("nil")
    raise ForeignProcedureError(
        f"cannot convert Python value of type {type(value).__name__} to a term"
    )


@dataclass
class ForeignProcedure:
    """A registered Python procedure.

    ``inputs``/``outputs`` are argument positions (0-based).  ``cost`` is a
    number, or a callable over the converted input values returning the
    virtual time charged for the call (default 1.0).

    With ``raw=True`` the procedure follows the builtin contract instead:
    ``fn(engine, process, args, now) -> cost`` receives the goal's
    unconverted argument terms, binds and spawns through ``engine`` itself,
    raises :class:`~repro.strand.arith.Suspend` to wait on variables, and
    returns the virtual cost to charge.  Motifs ship their runtime
    primitives this way (see ``motifs/reliable.py``).  The engine takes its
    table of raw procedures when it is constructed.
    """

    name: str
    arity: int
    fn: Callable
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    cost: float | Callable[..., float] = 1.0
    raw: bool = False

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)

    def cost_for(self, converted_inputs: Sequence[Any]) -> float:
        if callable(self.cost):
            return float(self.cost(*converted_inputs))
        return float(self.cost)


class ForeignRegistry:
    """Foreign procedures keyed by ``name/arity``."""

    def __init__(self) -> None:
        self._procs: dict[tuple[str, int], ForeignProcedure] = {}

    def register(
        self,
        name: str,
        arity: int,
        fn: Callable,
        *,
        inputs: Sequence[int] | None = None,
        outputs: Sequence[int] | None = None,
        cost: float | Callable[..., float] = 1.0,
        raw: bool = False,
    ) -> ForeignProcedure:
        """Register ``fn`` as ``name/arity``.

        By default the last argument is the single output and all others are
        inputs — the common shape of the paper's ``eval(V, LV, RV, Value)``.
        """
        if (name, arity) in self._procs:
            raise ForeignProcedureError(f"foreign procedure {name}/{arity} already registered")
        if not raw:
            if outputs is None:
                outputs = (arity - 1,) if arity > 0 else ()
            if inputs is None:
                inputs = tuple(i for i in range(arity) if i not in set(outputs))
            bad = [i for i in (*inputs, *outputs) if not 0 <= i < arity]
            if bad:
                raise ForeignProcedureError(
                    f"argument positions {bad} out of range for {name}/{arity}"
                )
            overlap = set(inputs) & set(outputs)
            if overlap:
                raise ForeignProcedureError(
                    f"argument positions {sorted(overlap)} are both input and output"
                )
        else:
            inputs = tuple(inputs or ())
            outputs = tuple(outputs or ())
        proc = ForeignProcedure(
            name, arity, fn, tuple(inputs), tuple(outputs), cost, raw
        )
        self._procs[(name, arity)] = proc
        return proc

    def register_primitives(self, table: dict[tuple[str, int], Callable]) -> None:
        """Register every ``(name, arity) -> fn`` entry of ``table`` as a raw
        procedure — how a motif's ``foreign_setup`` ships its primitives."""
        for (name, arity), fn in table.items():
            self.register(name, arity, fn, raw=True)

    def raw_table(self) -> dict[tuple[str, int], Callable]:
        """``name/arity -> fn`` for every raw procedure."""
        return {ind: fp.fn for ind, fp in self._procs.items() if fp.raw}

    def lookup(self, name: str, arity: int) -> ForeignProcedure | None:
        return self._procs.get((name, arity))

    def __contains__(self, indicator: tuple[str, int]) -> bool:
        return indicator in self._procs

    def copy(self) -> "ForeignRegistry":
        out = ForeignRegistry()
        out._procs = dict(self._procs)
        return out

    def indicators(self) -> list[tuple[str, int]]:
        return list(self._procs.keys())
