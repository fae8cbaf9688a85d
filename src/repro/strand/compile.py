"""The compile layer between :class:`Program` and the runtime.

The paper's pitch is that a motif's output "is itself a program" cheap
enough to run everywhere (§2.1).  The seed interpreter took that literally:
every reduction re-scanned the procedure's rule list, re-dispatched on the
shape of every head pattern, and rebuilt every body goal by interpreting the
rule term.  This module inserts the compile/link stage that skeleton systems
in the related literature all have: a :class:`CompiledProgram` is built once
per :class:`Program` (cached against the program's version stamp) and the
scheduler/reducer core consumes only the compiled form.

Every rule becomes one generated Python function, ``commit(args,
blocked)``: head match, guards and body build in one, with the rule's
variables as Python locals (:mod:`repro.strand.codegen` writes the text;
this module holds the helpers it calls and loads it).  One procedure's
functions share one source text, compiled eagerly by
:func:`compile_program` and registered in :mod:`linecache` under
``<this file>:name/arity#hash`` (a hash of the text), so that tracebacks
show it and profiles charge it to this module; each rule's text is kept as
:attr:`CompiledRule.source`.

With :mod:`repro.strand.codegen`, this module is the runtime's one
matcher: the two own the rule semantics (head matching, guards,
first-argument index keys).  The seed's interpretive matcher is kept only
as the tests' oracle (``tests/strand/reference_match.py``).

Per procedure, rules are bucketed by **first-argument principal functor**
(an order-preserving first-argument index).  Committed choice must commit on
the first *textually* matching rule, so buckets preserve textual order and
rules whose first head argument is a variable appear in every bucket; a goal
whose first argument is unbound considers the full rule list.  Skipping a
rule is sound only when its head could neither match *nor suspend* — which
is exactly the rules whose first pattern has a different principal functor
from the goal's (already bound) first argument.  A value that is not a term
(a port) has no principal functor and only variable patterns match it, so
such a goal considers the wildcard rules.  A procedure whose rules
cannot be told apart by first argument (arity 0, one rule, or every first
argument a variable) keeps its plain rule list.
"""

from __future__ import annotations

import linecache
import zlib
from typing import Any, Callable

from repro.strand.arith import ArithFail, Suspend, _eval
from repro.strand.codegen import OPERATORS, RuleWriter
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

#: Bucket keys of the first-argument index; ``None`` = variable (wildcard).
IndexKey = Any


def index_key(term: Term) -> IndexKey:
    """The bucket key of an already dereffed head pattern or goal argument.

    ``None`` for a variable and for any value that is not a term (a port,
    say): no head pattern but a variable can match those, so a goal
    carrying one falls back to the wildcard rules.
    """
    tt = type(term)
    if tt is Atom:
        return ("a", term.name)
    if tt is int or tt is float:
        # 1 and 1.0 hash/compare equal, which is exactly right: numeric
        # head patterns match goals across int/float.
        return ("n", term)
    if tt is str:
        return ("s", term)
    if tt is Cons:
        return ("c",)
    if tt is Tup:
        return ("t", len(term.args))
    if tt is Struct:
        return ("f", term.functor, len(term.args))
    return None


class CompiledRule:
    """One rule's generated ``commit`` function plus a back-pointer to its
    source rule.

    ``commit(goal_args, blocked)`` is head match, guards and body build in
    one: it returns the tuple of the instantiated body goals when the rule
    commits.  Otherwise it returns ``None``, having appended the blocking
    caller variables of an undecided match or guard to ``blocked`` (a
    definite failure contributes nothing).  ``source`` is its Python text.
    """

    __slots__ = ("rule", "order", "commit", "source", "index_key")

    def __init__(self, rule: Rule, order: int, commit: Callable, source: str):
        self.rule = rule
        self.order = order  # textual position within the procedure
        self.commit = commit
        self.source = source
        args = rule.head.args
        self.index_key = index_key(deref(args[0])) if args else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledRule #{self.order} {self.rule.indicator}>"


def _generate(proc: Procedure) -> tuple[CompiledRule, ...]:
    """Generate, compile and load one procedure's rule functions.

    The procedure's rules share one source text and one namespace; the
    text is registered in :mod:`linecache` under :func:`_source_name`, so
    tracebacks and profiles show the generated lines.
    """
    ns = _Namespace()
    sources = [RuleWriter(rule, ns.const).source(f"commit_{order}")
               for order, rule in enumerate(proc.rules)]
    text = "".join(sources)
    filename = _source_name(proc.name, proc.arity, text)
    exec(compile(text, filename, "exec"), ns)
    linecache.cache[filename] = (len(text), None, text.splitlines(True), filename)
    return tuple(
        CompiledRule(rule, order, ns[f"commit_{order}"], source)
        for order, (rule, source) in enumerate(zip(proc.rules, sources))
    )


class CompiledProcedure:
    """All compiled rules of one procedure, with first-argument buckets.

    ``indexed`` is False when the rules cannot be told apart by first
    argument (arity 0, one rule, or every first argument a variable):
    selection then tries the plain rule list."""

    __slots__ = ("name", "arity", "rules", "buckets", "wildcards", "indexed")

    def __init__(self, proc: Procedure):
        self.name = proc.name
        self.arity = proc.arity
        self.rules = _generate(proc)
        keys = {r.index_key for r in self.rules}
        self.indexed = self.arity > 0 and len(self.rules) > 1 and keys != {None}
        if self.indexed:
            # Wildcard rules (var-headed first argument) appear in every
            # bucket; textual order within each bucket is preserved, so the
            # committed rule is always the first textual match.
            self.wildcards = tuple(r for r in self.rules if r.index_key is None)
            buckets: dict[IndexKey, list[CompiledRule]] = {}
            for key in keys:
                if key is None:
                    continue
                buckets[key] = [
                    r for r in self.rules
                    if r.index_key is None or r.index_key == key
                ]
            self.buckets = {key: tuple(rules) for key, rules in buckets.items()}
        else:
            self.wildcards = self.rules
            self.buckets = {}

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)

    def candidates(self, goal_args: tuple) -> tuple[CompiledRule, ...]:
        """The (ordered) rules that could match or suspend on this goal."""
        if not self.indexed:
            return self.rules
        first = deref(goal_args[0])
        if type(first) is Var:
            return self.rules
        return self.buckets.get(index_key(first), self.wildcards)

    def select(self, goal_args: tuple) -> tuple[CompiledRule, tuple] | None:
        """Committed choice: the first textually-matching rule and its
        instantiated body goals.  Raises :class:`Suspend` when no rule
        matches yet but some could; returns ``None`` on definite failure."""
        blocked: list = []
        for crule in self.candidates(goal_args):
            goals = crule.commit(goal_args, blocked)
            if goals is not None:
                return crule, goals
        if blocked:
            raise Suspend(blocked)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "indexed" if self.indexed else "linear"
        return f"<CompiledProcedure {self.name}/{self.arity} {mode} {len(self.rules)} rules>"


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
