"""The compile layer between :class:`Program` and the runtime.

The paper's pitch is that a motif's output "is itself a program" cheap
enough to run everywhere (§2.1).  The seed interpreter took that literally:
every reduction re-scanned the procedure's rule list, re-dispatched on the
shape of every head pattern, and rebuilt every body goal by interpreting the
rule term.  This module inserts the compile/link stage that skeleton systems
in the related literature all have: a :class:`CompiledProgram` is built once
per :class:`Program` (cached against the program's version stamp) and the
scheduler/reducer core consumes only the compiled form.

Every procedure becomes one generated Python function, ``select(args,
blocked)``: rule selection, head match, guards and body build in one, with
the rules' variables as Python locals (:mod:`repro.strand.codegen` writes
the text; this module holds the helpers it calls and loads it).  The text
is compiled eagerly by :func:`compile_program` and registered in
:mod:`linecache` under ``<this file>:name/arity#hash`` (a hash of the
text), so that tracebacks show it and profiles charge it to this module;
it is kept as :attr:`CompiledProcedure.source`, the function as
:attr:`CompiledProcedure.choose`.  :meth:`CompiledProcedure.select`, the
entry point the reducer calls, is a thin call of it.

A goal that cannot commit yet is Strand's normal dataflow path, so it is
reported by return, not by an exception: selection returns ``None`` and
leaves the variables the goal waits on in ``blocked``.  ``None`` with an
empty ``blocked`` is definite failure.

With :mod:`repro.strand.codegen`, this module is the runtime's one
matcher: the two own the rule semantics (head matching, guards, the
switch).  The seed's interpretive matcher is kept only as the tests'
oracle (``tests/strand/reference_match.py``).

Committed choice must commit on the first *textually* matching rule, and a
goal that cannot commit yet must wait on the variables a rule-by-rule scan
would have met, in the order it met them (the scheduler keeps that order,
and wake order follows it).  Keeping to both, the generated function
tests what several rules share once:

* it **switches** on the first argument whose head patterns tell the rules
  apart (``filter/3``'s stream, not its first argument).  Skipping a rule is
  sound only when its head could neither match *nor suspend*: exactly the
  rules whose pattern there has a different principal functor from the
  goal's (bound) argument.  A value that is not a term (a port) has no
  principal functor and only variable patterns match it.  A rule with a
  variable at the switch argument, or with other head arguments to test,
  is written once between the switch's branches and reached by every
  goal; an unbound switch argument is appended once, where the first
  switched rule would have appended it;
* consecutive rules whose heads are equal up to renaming **match the head
  once**.

A procedure with nothing to switch on (arity 0, one rule, or no argument
whose patterns differ) tries its groups in textual order.
"""

from __future__ import annotations

import linecache
import zlib
from typing import Any, Callable

from repro.strand.arith import ArithFail, _eval
from repro.strand.codegen import OPERATORS, ProcedureWriter
from repro.strand.program import Procedure, Program, Rule
from repro.strand.terms import (
    _UNBOUND,
    NIL,
    Atom,
    Cons,
    Struct,
    Term,
    Tup,
    Var,
    _ground_equal,
    deref,
)

__all__ = [
    "CompiledRule",
    "CompiledProcedure",
    "CompiledProgram",
    "compile_program",
]

# ---------------------------------------------------------------------------
# Runtime helpers of the generated rule functions
# ---------------------------------------------------------------------------

def _match_values(a: Term, b: Term, blocked: list[Var]) -> bool:
    """Compare two caller-side terms for the non-linear-head case; unbound
    variables block unless identical.  Iterative for deep-list safety.

    With a ground ``a`` this is exactly the head match of pattern ``a``, so
    the generated code also matches ground head subterms with it."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        a, b = deref(a), deref(b)
        if a is b:
            continue
        ta, tb = type(a), type(b)
        if ta is Var:
            blocked.append(a)
            continue
        if tb is Var:
            blocked.append(b)
            continue
        if ta is Cons and tb is Cons:
            stack.append((a.tail, b.tail))
            stack.append((a.head, b.head))
        elif ta is Struct and tb is Struct:
            if a.functor != b.functor or len(a.args) != len(b.args):
                return False
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        elif ta is Tup and tb is Tup:
            if len(a.args) != len(b.args):
                return False
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if a != b:
                return False
        elif not (a == b if ta is tb else False):
            return False
    return True


#: What a subpattern reads once its parent or list spine blocked: its
#: tests are skipped (neither matched nor failed).
_SKIPPED = object()


def _match_run(heads: tuple, cell: Term, blocked: list) -> Term:
    """Match the ground list elements ``heads`` against successive cells.

    Returns the list after them; ``_SKIPPED`` when the spine is unbound
    (the variable is appended to ``blocked``) or was skipped already;
    ``None`` on a definite mismatch.
    """
    if cell is _SKIPPED:
        return cell
    for head in heads:
        cell = deref(cell)
        if type(cell) is not Cons:
            if type(cell) is Var:
                blocked.append(cell)
                return _SKIPPED
            return None
        if not _match_values(head, cell.head, blocked):
            return None
        cell = cell.tail
    return cell


def _prepend(heads: tuple, tail: Term) -> Term:
    """Fresh list cells holding ``heads`` (given last first) before ``tail``."""
    for head in heads:
        tail = Cons(head, tail)
    return tail


#: The globals of all generated code (see :mod:`repro.strand.codegen`);
#: each procedure adds its constants.
_HELPERS = {
    "Var": Var, "Struct": Struct, "Tup": Tup, "Cons": Cons, "Atom": Atom, "NIL": NIL,
    "ArithFail": ArithFail, "_U": _UNBOUND, "_S": _SKIPPED,
    "_mv": _match_values, "_mr": _match_run, "_pre": _prepend,
    "_ge": _ground_equal, "_ev": _eval, **OPERATORS,
}


# ---------------------------------------------------------------------------
# Loading generated code
# ---------------------------------------------------------------------------

def _source_name(name: str, arity: int, text: str) -> str:
    """The filename of a procedure's generated code: under this module, so
    profiles charge it to the compile layer, and tagged with a hash of the
    text, so that procedures of the same name keep their own lines."""
    digest = zlib.crc32(text.encode())
    return f"{__file__}:{name.replace('/', '%2F')}/{arity}#{digest:08x}"


def _generate(proc: Procedure, rules: tuple[CompiledRule, ...]) -> tuple[str, Callable]:
    """Generate, compile and load one procedure's selection function.

    Its text is registered in :mod:`linecache` under :func:`_source_name`,
    so tracebacks and profiles show the generated lines; the compiled
    rules are its globals ``r<order>``.
    """
    ns = _Namespace()
    text = ProcedureWriter(proc.rules, proc.arity, ns.const).source()
    ns.update((f"r{crule.order}", crule) for crule in rules)
    filename = _source_name(proc.name, proc.arity, text)
    exec(compile(text, filename, "exec"), ns)
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    return text, ns["select"]


class _Namespace(dict):
    """The globals of one procedure's generated code: the helpers plus the
    constants its rules share (ints are written inline instead)."""

    def __init__(self):
        super().__init__(_HELPERS)
        self.names: dict[int, str] = {}

    def const(self, value: Any) -> str:
        if type(value) is int:
            return repr(value)
        name = self.names.get(id(value))
        if name is None:
            name = self.names[id(value)] = f"k{len(self.names)}"
            self[name] = value
        return name


# ---------------------------------------------------------------------------
# Rules, procedures, programs
# ---------------------------------------------------------------------------

class CompiledRule:
    """One rule of a compiled procedure: what selection returns for the
    rule that commits, with a back-pointer to its source rule."""

    __slots__ = ("rule", "order")

    def __init__(self, rule: Rule, order: int):
        self.rule = rule
        self.order = order  # textual position within the procedure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledRule #{self.order} {self.rule.indicator}>"


class CompiledProcedure:
    """All compiled rules of one procedure and its generated selection
    function ``choose(args, blocked)``, whose text is :attr:`source`."""

    __slots__ = ("name", "arity", "rules", "source", "choose")

    def __init__(self, proc: Procedure):
        self.name = proc.name
        self.arity = proc.arity
        self.rules = tuple(CompiledRule(rule, order) for order, rule in enumerate(proc.rules))
        self.source, self.choose = _generate(proc, self.rules)

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)

    def select(self, goal_args: tuple, blocked: list) -> tuple[CompiledRule, tuple] | None:
        """Committed choice: the first textually-matching rule and its
        instantiated body goals, or ``None`` when no rule matches.  The
        variables a rule-by-rule scan would wait on are appended to
        ``blocked`` in the order it meets them; after ``None``, a non-empty
        ``blocked`` means the goal suspends and an empty one means definite
        failure."""
        return self.choose(goal_args, blocked)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledProcedure {self.name}/{self.arity} {len(self.rules)} rules>"


class CompiledProgram:
    """A program lowered for execution: one :class:`CompiledProcedure` per
    procedure."""

    __slots__ = ("program", "procedures", "motif_of")

    def __init__(self, program: Program):
        self.program = program
        self.procedures: dict[tuple[str, int], CompiledProcedure] = {}
        # Provenance view: indicator -> motif tag of its first rule
        # (``None`` for user-written procedures).  Per-rule tags stay on
        # ``CompiledRule.rule.motif``; this map answers the common "which
        # layer owns this procedure?" query without touching rules.
        self.motif_of: dict[tuple[str, int], str | None] = {}
        for proc in program:
            self.procedures[proc.indicator] = CompiledProcedure(proc)
            self.motif_of[proc.indicator] = proc.rules[0].motif if proc.rules else None

    def procedure(self, indicator: tuple[str, int]) -> CompiledProcedure | None:
        return self.procedures.get(indicator)

    def __contains__(self, indicator: tuple[str, int]) -> bool:
        return indicator in self.procedures

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledProgram {self.program.name!r} {len(self.procedures)} procedures>"


def compile_program(program: Program) -> CompiledProgram:
    """Compile ``program`` (cached per program instance and version)."""
    cached = getattr(program, "_compiled_cache", None)
    if cached is not None and cached[0] == program.version:
        return cached[1]
    compiled = CompiledProgram(program)
    program._compiled_cache = (program.version, compiled)
    return compiled
