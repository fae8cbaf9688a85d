"""The compile layer between :class:`Program` and the runtime.

The paper's pitch is that a motif's output "is itself a program" cheap
enough to run everywhere (§2.1).  The seed interpreter took that literally:
every reduction re-scanned the procedure's rule list, re-dispatched on the
shape of every head pattern, and rebuilt every body goal by interpreting the
rule term.  This module inserts the compile/link stage that skeleton systems
in the related literature all have: a :class:`CompiledProgram` is built once
per :class:`Program` (cached against the program's version stamp) and the
scheduler/reducer core consumes only the compiled form.

Three things are precompiled per rule:

* **head-match plans** — each head argument pattern becomes a closure tree
  built once, so matching does no per-reduction dispatch on pattern shape;
* **guard plans** — each guard becomes a closure over the match environment
  (comparisons, type tests, ``==``/``\\==``, ``known``, ``otherwise``);
* **body templates** — each body goal becomes a builder closure replacing
  the interpretive ``instantiate`` walk (ground subterms are shared).

These plans are the runtime's one matcher: this module owns the rule
semantics (head matching, guards, first-argument index keys).  The seed's
interpretive matcher is kept only as the tests' oracle
(``tests/strand/reference_match.py``).

Per procedure, rules are bucketed by **first-argument principal functor**
(order-preserving first-argument indexing).  Committed choice must commit on
the first *textually* matching rule, so buckets preserve textual order and
rules whose first head argument is a variable appear in every bucket; a goal
whose first argument is unbound considers the full rule list.  Skipping a
rule is sound only when its head could neither match *nor suspend* — which
is exactly the rules whose first pattern has a different principal functor
from the goal's (already bound) first argument.  A value that is not a term
(a port) has no principal functor and only variable patterns match it, so
such a goal considers the wildcard rules.

:class:`SymbolTable` is the shared interned name/arity view of a program
(indicators, functors, per-procedure callees); the linter, call-graph, and
complexity accounting consume it instead of re-deriving their own maps.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.strand.arith import ArithFail, Suspend, eval_arith
from repro.strand.program import Procedure, Program, Rule
from repro.strand.terms import (
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
    "SymbolTable",
    "symbol_table",
    "CompiledRule",
    "CompiledProcedure",
    "CompiledProgram",
    "compile_program",
    "COMPILE_STATS",
    "reset_compile_stats",
]

#: Process-wide compilation counters (observable by tests and benchmarks):
#: ``programs`` counts full compilations, ``hits`` cache reuses, ``rules``
#: total rules compiled.
COMPILE_STATS = {"programs": 0, "hits": 0, "rules": 0, "symbol_tables": 0}


def reset_compile_stats() -> None:
    for key in COMPILE_STATS:
        COMPILE_STATS[key] = 0


# ---------------------------------------------------------------------------
# Interned symbol tables
# ---------------------------------------------------------------------------

class SymbolTable:
    """Interned name/arity view of one program.

    * ``indicators``  — ``(name, arity) -> dense id`` in definition order;
      the *keys* are the canonical interned indicator tuples, so every
      consumer shares one tuple per procedure instead of re-deriving its own;
    * ``functors``    — ``name -> dense id`` over head functors;
    * ``calls``       — per-procedure callee indicators, in rule/body order,
      with placement annotations (``Goal @ Where``) looked through;
    * ``rule_counts`` / ``goal_counts`` — per-procedure sizes (goals counts
      guards + body goals, matching ``Program.goal_count``).
    """

    __slots__ = ("indicators", "functors", "calls", "rule_counts",
                 "goal_counts", "_canon")

    def __init__(self, program: Program):
        COMPILE_STATS["symbol_tables"] += 1
        self._canon: dict[tuple[str, int], tuple[str, int]] = {}
        self.indicators: dict[tuple[str, int], int] = {}
        self.functors: dict[str, int] = {}
        self.calls: dict[tuple[str, int], tuple[tuple[str, int], ...]] = {}
        self.rule_counts: dict[tuple[str, int], int] = {}
        self.goal_counts: dict[tuple[str, int], int] = {}
        for proc in program:
            self._add_procedure(proc)

    def _add_procedure(self, proc: Procedure) -> None:
        indicator = self.intern(proc.name, proc.arity)
        callees: list[tuple[str, int]] = []
        goals = 0
        for rule in proc.rules:
            goals += len(rule.guards) + len(rule.body)
            for goal in rule.body:
                callee = _call_indicator(goal)
                if callee is not None:
                    callees.append(self.intern(*callee))
        self.calls[indicator] = tuple(callees)
        self.rule_counts[indicator] = len(proc.rules)
        self.goal_counts[indicator] = goals

    def intern(self, name: str, arity: int) -> tuple[str, int]:
        """The canonical tuple for ``name/arity`` (registering it if new).
        Every intern of the same pair returns the same tuple object."""
        indicator = (name, arity)
        canon = self._canon.get(indicator)
        if canon is None:
            self._canon[indicator] = indicator
            self.indicators[indicator] = len(self.indicators)
            if name not in self.functors:
                self.functors[name] = len(self.functors)
            canon = indicator
        return canon

    @property
    def defined(self) -> set[tuple[str, int]]:
        """Indicators of procedures defined by the program."""
        return set(self.calls)

    def callees(self, indicator: tuple[str, int]) -> tuple[tuple[str, int], ...]:
        return self.calls.get(indicator, ())

    def total_rules(self) -> int:
        return sum(self.rule_counts.values())

    def total_goals(self) -> int:
        return sum(self.goal_counts.values())

    def __contains__(self, indicator: tuple[str, int]) -> bool:
        return indicator in self.calls

    def __len__(self) -> int:
        return len(self.calls)


def _call_indicator(goal: Term) -> tuple[str, int] | None:
    """``name/arity`` a body goal calls, looking through ``@`` placement."""
    goal = deref(goal)
    while type(goal) is Struct and goal.functor == "@" and len(goal.args) == 2:
        goal = deref(goal.args[0])
    if type(goal) is Struct:
        return (goal.functor, len(goal.args))
    if type(goal) is Atom:
        return (goal.name, 0)
    return None


def symbol_table(program: Program) -> SymbolTable:
    """The program's :class:`SymbolTable`, cached against its version."""
    cached = getattr(program, "_symbol_cache", None)
    if cached is not None and cached[0] == program.version:
        return cached[1]
    table = SymbolTable(program)
    program._symbol_cache = (program.version, table)
    return table


# ---------------------------------------------------------------------------
# Template compilation (body/guard instantiation plans)
# ---------------------------------------------------------------------------

def _term_is_shareable(term: Term) -> bool:
    """Ground and free of mutable cells (``Tup`` is mutated by put_arg)."""
    stack = [term]
    while stack:
        t = deref(stack.pop())
        tt = type(t)
        if tt is Var or tt is Tup:
            return False
        if tt is Struct:
            stack.extend(t.args)
        elif tt is Cons:
            stack.append(t.tail)
            stack.append(t.head)
    return True


def compile_template(term: Term) -> Callable[[dict, dict], Term]:
    """Compile a rule term into a builder ``build(env, fresh) -> Term``.

    Rule variables become their matched values; unmatched rule variables
    become fresh variables shared (via ``fresh``/``env``) across the rule's
    goals.  Ground subterms are built once and shared.
    """
    term = deref(term)
    t = type(term)
    if t is Var:
        key = id(term)
        name = term.name

        def build_var(env: dict, fresh: dict) -> Term:
            bound = env.get(key)
            if bound is not None:
                return bound
            var = fresh.get(key)
            if var is None:
                var = Var(name)
                fresh[key] = var
                env[key] = var
            return var

        return build_var
    if t is Struct:
        if _term_is_shareable(term):
            return lambda env, fresh: term
        functor = term.functor
        subs = tuple(compile_template(a) for a in term.args)
        return lambda env, fresh: Struct(functor, [s(env, fresh) for s in subs])
    if t is Tup:
        subs = tuple(compile_template(a) for a in term.args)
        return lambda env, fresh: Tup([s(env, fresh) for s in subs])
    if t is Cons:
        return _compile_list(term)
    # Atoms, numbers, strings are immutable — share.
    return lambda env, fresh: term


def _compile_list(term: Cons) -> Callable[[dict, dict], Term]:
    """A list literal's builder, compiled in one pass over its spine.

    Each element up to the longest shareable suffix gets a builder; the
    suffix (the tail when nothing is shareable) is built once and shared.
    The builder fills each fresh cell's ``tail`` in place, calling the
    element builders left to right and the tail's last, so long literals
    neither recurse nor build an intermediate list.
    """
    cells = []
    while type(term) is Cons:
        cells.append(term)
        term = deref(term.tail)
    rest = term
    if _term_is_shareable(rest):
        while cells and _term_is_shareable(cells[-1].head):
            rest = cells.pop()
    if not cells:
        return lambda env, fresh: rest
    build_tail = compile_template(rest)
    first, *others = [compile_template(cell.head) for cell in cells]

    def build_list(env: dict, fresh: dict) -> Term:
        head = cell = Cons(first(env, fresh), None)
        for build in others:
            cell.tail = cell = Cons(build(env, fresh), None)
        cell.tail = build_tail(env, fresh)
        return head

    return build_list


# ---------------------------------------------------------------------------
# Head-match plans
# ---------------------------------------------------------------------------

def _match_values(a: Term, b: Term, blocked: list[Var]) -> bool:
    """Compare two caller-side terms for the non-linear-head case; unbound
    variables block unless identical.  Iterative for deep-list safety."""
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


def compile_pattern(pattern: Term) -> Callable[[Term, dict, list], bool]:
    """Compile one head-argument pattern into ``m(arg, env, blocked)``.

    Returns ``False`` on definite mismatch; appends to ``blocked`` (and
    returns ``True``) when an unbound caller variable defers the decision.
    A head (all its argument plans) therefore has three outcomes: *match*,
    with the rule's variables bound in ``env`` and never the caller's
    (matching is one-way, §2.1); *fail*, on a definite clash; or *suspend*,
    with the blocking caller variables in ``blocked``.
    """
    pattern = deref(pattern)
    pt = type(pattern)
    if pt is Var:
        key = id(pattern)

        def match_var(arg: Term, env: dict, blocked: list) -> bool:
            bound = env.get(key)
            if bound is None:
                env[key] = arg
                return True
            # Non-linear head: both occurrences must agree.
            return _match_values(bound, arg, blocked)

        return match_var
    if pt is Atom:

        def match_atom(arg: Term, env: dict, blocked: list) -> bool:
            arg = deref(arg)
            if arg is pattern:
                return True
            if type(arg) is Var:
                blocked.append(arg)
                return True
            return False

        return match_atom
    if pt is int or pt is float:

        def match_number(arg: Term, env: dict, blocked: list) -> bool:
            arg = deref(arg)
            at = type(arg)
            if at is Var:
                blocked.append(arg)
                return True
            return (at is int or at is float) and pattern == arg

        return match_number
    if pt is str:

        def match_string(arg: Term, env: dict, blocked: list) -> bool:
            arg = deref(arg)
            at = type(arg)
            if at is Var:
                blocked.append(arg)
                return True
            return at is str and pattern == arg

        return match_string
    if pt is Cons:
        # One matcher per element and one for the tail; the spine is walked
        # in a loop, both here and in the match, so long lists do not recurse.
        heads = []
        while type(pattern) is Cons:
            heads.append(compile_pattern(pattern.head))
            pattern = deref(pattern.tail)
        heads = tuple(heads)
        match_tail = compile_pattern(pattern)

        def match_list(arg: Term, env: dict, blocked: list) -> bool:
            for match_head in heads:
                arg = deref(arg)
                at = type(arg)
                if at is not Cons:
                    if at is Var:
                        blocked.append(arg)
                        return True
                    return False
                if not match_head(arg.head, env, blocked):
                    return False
                arg = arg.tail
            return match_tail(arg, env, blocked)

        return match_list
    if pt is Tup:
        subs = tuple(compile_pattern(a) for a in pattern.args)
        want = len(pattern.args)

        def match_tuple(arg: Term, env: dict, blocked: list) -> bool:
            arg = deref(arg)
            at = type(arg)
            if at is Var:
                blocked.append(arg)
                return True
            if at is not Tup or len(arg.args) != want:
                return False
            return all(m(a, env, blocked) for m, a in zip(subs, arg.args))

        return match_tuple
    if pt is Struct:
        subs = tuple(compile_pattern(a) for a in pattern.args)
        functor = pattern.functor
        want = len(pattern.args)

        def match_struct(arg: Term, env: dict, blocked: list) -> bool:
            arg = deref(arg)
            at = type(arg)
            if at is Var:
                blocked.append(arg)
                return True
            if at is not Struct or arg.functor != functor or len(arg.args) != want:
                return False
            return all(m(a, env, blocked) for m, a in zip(subs, arg.args))

        return match_struct
    raise TypeError(f"bad pattern term {pattern!r}")


# ---------------------------------------------------------------------------
# Guard plans
# ---------------------------------------------------------------------------

def _test_integer(t: Term) -> bool:
    return type(t) is int


def _test_number(t: Term) -> bool:
    return type(t) is int or type(t) is float


def _test_float(t: Term) -> bool:
    return type(t) is float


def _test_atom(t: Term) -> bool:
    return type(t) is Atom


def _test_string(t: Term) -> bool:
    return type(t) is str


def _test_list(t: Term) -> bool:
    return type(t) is Cons or t is NIL


def _test_tuple(t: Term) -> bool:
    return type(t) is Tup


#: Type-test guards: ``name -> predicate over the dereffed, bound argument``.
GUARD_TESTS: dict[str, Any] = {
    "integer": _test_integer,
    "number": _test_number,
    "float": _test_float,
    "atom": _test_atom,
    "string": _test_string,
    "list": _test_list,
    "tuple": _test_tuple,
}

_COMPARISONS = {
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "=\\=": lambda a, b: a != b,
    "=:=": lambda a, b: a == b,
}


def compile_guard(guard: Term) -> Callable[[dict, dict, list], bool] | None:
    """Compile one guard goal into ``g(env, fresh, blocked)``.

    ``None`` means the guard is trivially true (``true`` / ``otherwise``)
    and can be dropped from the plan.  ``False`` return = definite failure;
    appending to ``blocked`` (returning ``True``) = undecided.
    """
    guard = deref(guard)
    if type(guard) is Atom:
        if guard.name in ("true", "otherwise"):
            return None
        return lambda env, fresh, blocked: False
    if type(guard) is not Struct:
        return lambda env, fresh, blocked: False
    name, arity = guard.functor, len(guard.args)
    if arity == 2 and name in _COMPARISONS:
        op = _COMPARISONS[name]
        lhs = compile_template(guard.args[0])
        rhs = compile_template(guard.args[1])

        def guard_compare(env: dict, fresh: dict, blocked: list) -> bool:
            try:
                a = eval_arith(lhs(env, fresh))
                b = eval_arith(rhs(env, fresh))
            except Suspend as s:
                blocked.extend(s.variables)
                return True
            except ArithFail:
                return False
            return op(a, b)

        return guard_compare
    if arity == 2 and name in ("==", "\\=="):
        want_equal = name == "=="
        lhs = compile_template(guard.args[0])
        rhs = compile_template(guard.args[1])

        def guard_equality(env: dict, fresh: dict, blocked: list) -> bool:
            decided, equal = _ground_equal(
                deref(lhs(env, fresh)), deref(rhs(env, fresh)), blocked
            )
            if not decided:
                return True
            return equal if want_equal else not equal

        return guard_equality
    if arity == 1 and name in GUARD_TESTS:
        test = GUARD_TESTS[name]
        operand = compile_template(guard.args[0])

        def guard_test(env: dict, fresh: dict, blocked: list) -> bool:
            arg = deref(operand(env, fresh))
            if type(arg) is Var:
                blocked.append(arg)
                return True
            return test(arg)

        return guard_test
    if arity == 1 and name == "known":
        operand = compile_template(guard.args[0])

        def guard_known(env: dict, fresh: dict, blocked: list) -> bool:
            arg = deref(operand(env, fresh))
            if type(arg) is Var:
                blocked.append(arg)
                return True
            return True

        return guard_known
    return lambda env, fresh, blocked: False


# ---------------------------------------------------------------------------
# Rules, procedures, programs
# ---------------------------------------------------------------------------

#: Bucket keys for first-argument indexing; ``None`` = variable (wildcard).
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
    """One rule's precompiled plans plus a back-pointer to its source."""

    __slots__ = ("rule", "order", "matchers", "guards", "body", "index_key")

    def __init__(self, rule: Rule, order: int):
        COMPILE_STATS["rules"] += 1
        self.rule = rule
        self.order = order  # textual position within the procedure
        self.matchers = tuple(compile_pattern(a) for a in rule.head.args)
        self.guards = tuple(
            g for g in (compile_guard(guard) for guard in rule.guards)
            if g is not None
        )
        self.body = tuple(compile_template(goal) for goal in rule.body)
        args = rule.head.args
        self.index_key = index_key(deref(args[0])) if args else None

    def try_commit(self, goal_args: tuple, blocked: list) -> dict | None:
        """Head-match + guard-check against one goal.

        Returns the match environment on commit, ``None`` otherwise;
        blocking variables of an undecided match/guard are appended to
        ``blocked``.  Definite failures contribute nothing.
        """
        env: dict = {}
        rule_blocked: list = []
        for matcher, arg in zip(self.matchers, goal_args):
            if not matcher(arg, env, rule_blocked):
                return None  # definite head mismatch: discard blockers
        if rule_blocked:
            blocked.extend(rule_blocked)
            return None
        if self.guards:
            fresh: dict = {}
            guard_blocked: list = []
            for guard in self.guards:
                if not guard(env, fresh, guard_blocked):
                    return None  # definite guard failure: discard blockers
            if guard_blocked:
                blocked.extend(guard_blocked)
                return None
        return env

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledRule #{self.order} {self.rule.indicator}>"


class CompiledProcedure:
    """All compiled rules of one procedure, with first-argument buckets."""

    __slots__ = ("name", "arity", "rules", "buckets", "wildcards", "indexed")

    def __init__(self, proc: Procedure, index: bool = True):
        self.name = proc.name
        self.arity = proc.arity
        self.rules = tuple(
            CompiledRule(rule, order) for order, rule in enumerate(proc.rules)
        )
        keys = {r.index_key for r in self.rules}
        self.indexed = (
            index
            and self.arity > 0
            and len(self.rules) > 1
            and keys != {None}
        )
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

    def select(self, goal_args: tuple) -> tuple[CompiledRule, dict] | None:
        """Committed choice: the first textually-matching rule and its
        environment.  Raises :class:`Suspend` when no rule matches yet but
        some could; returns ``None`` on definite failure."""
        blocked: list = []
        for crule in self.candidates(goal_args):
            env = crule.try_commit(goal_args, blocked)
            if env is not None:
                return crule, env
        if blocked:
            raise Suspend(blocked)
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "indexed" if self.indexed else "linear"
        return f"<CompiledProcedure {self.name}/{self.arity} {mode} {len(self.rules)} rules>"


class CompiledProgram:
    """A program lowered for execution: interned symbol table plus one
    :class:`CompiledProcedure` per procedure."""

    __slots__ = ("program", "symbols", "procedures", "indexed", "motif_of")

    def __init__(self, program: Program, *, index: bool = True):
        COMPILE_STATS["programs"] += 1
        self.program = program
        self.indexed = index
        self.symbols = symbol_table(program)
        self.procedures: dict[tuple[str, int], CompiledProcedure] = {}
        # Provenance view: indicator -> motif tag of its first rule
        # (``None`` for user-written procedures).  Per-rule tags stay on
        # ``CompiledRule.rule.motif``; this map answers the common "which
        # layer owns this procedure?" query without touching rules.
        self.motif_of: dict[tuple[str, int], str | None] = {}
        for indicator in self.symbols.indicators:
            proc = program.procedure(*indicator)
            if proc is not None:
                self.procedures[indicator] = CompiledProcedure(proc, index=index)
                self.motif_of[indicator] = (
                    proc.rules[0].motif if proc.rules else None
                )

    def procedure(self, indicator: tuple[str, int]) -> CompiledProcedure | None:
        return self.procedures.get(indicator)

    def __contains__(self, indicator: tuple[str, int]) -> bool:
        return indicator in self.procedures

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "indexed" if self.indexed else "linear"
        return f"<CompiledProgram {self.program.name!r} {mode} {len(self.procedures)} procedures>"


def compile_program(program: Program, *, index: bool = True) -> CompiledProgram:
    """Compile ``program`` (cached per program instance and version).

    Two cache slots per program — indexed and linear — so the benchmark
    ablation can hold both without recompiling either.
    """
    cache = getattr(program, "_compiled_cache", None)
    if cache is None:
        cache = {}
        program._compiled_cache = cache
    entry = cache.get(index)
    if entry is not None and entry[0] == program.version:
        COMPILE_STATS["hits"] += 1
        return entry[1]
    compiled = CompiledProgram(program, index=index)
    cache[index] = (program.version, compiled)
    return compiled
