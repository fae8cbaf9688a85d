"""The compile layer: one generated selection function per procedure.

The load-bearing property: selection must be observationally identical to
the seed engine's linear scan — same committed rule (the first *textual*
match), same body, the same suspension variables in the same first-seen
order, same definite failures — on arbitrary programs and goals, whatever
the switch and the shared heads do.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import measure
from repro.strand import parse_program, parse_rule, parse_term, run_query
from repro.strand.compile import CompiledProcedure, compile_program
from repro.strand.pretty import format_term
from repro.strand.program import Procedure, Rule
from repro.strand.streams import PortRef
from repro.strand.terms import (
    Atom,
    Cons,
    NIL,
    Struct,
    Tup,
    Var,
    copy_term,
    deref,
    make_list,
    term_vars,
)
from repro.transform.callgraph import CallGraph
from tests.strand.matchers import COMPILED, distinct
from tests.strand.reference_match import (
    MatchResult,
    eval_guards,
    instantiate,
    match_head,
)
from tests.strand.test_deep_terms import DEEP, deep_list


# ---------------------------------------------------------------------------
# Reference selector: the seed engine's linear scan, verbatim semantics
# ---------------------------------------------------------------------------

def _goal_var_ids(term):
    ids = set()
    stack = [term]
    while stack:
        t = deref(stack.pop())
        tt = type(t)
        if tt is Var:
            ids.add(id(t))
        elif tt is Struct or tt is Tup:
            stack.extend(t.args)
        elif tt is Cons:
            stack.append(t.head)
            stack.append(t.tail)
    return ids


def _suspension(blocked, goal):
    """The distinct blocking variables of the goal, in first-seen order.

    Guards may also block on rule-fresh variables; those have per-run
    identities, so the comparison is restricted to variables of the goal
    (the only ones a binding can ever wake)."""
    goal_vars = _goal_var_ids(goal)
    return ("suspend", tuple(id(v) for v in distinct(blocked) if id(v) in goal_vars))


def reference_select(rules, goal):
    """("commit", index) | ("suspend", (blocked goal-var ids, in order)) | ("fail",)"""
    blocked = []
    for index, rule in enumerate(rules):
        m = match_head(rule.head, goal)
        if m.status == MatchResult.FAILED:
            continue
        if m.status == MatchResult.SUSPENDED:
            blocked.extend(m.blocked)
            continue
        g = eval_guards(rule.guards, m.env)
        if g.status == MatchResult.FAILED:
            continue
        if g.status == MatchResult.SUSPENDED:
            blocked.extend(g.blocked)
            continue
        return ("commit", index)
    return _suspension(blocked, goal) if blocked else ("fail",)


def reference_body(rule, goal):
    """The oracle's instance of ``rule``'s body for ``goal`` (which commits)."""
    m = match_head(rule.head, goal)
    eval_guards(rule.guards, m.env)  # may give guard-only variables fresh values
    fresh = {}
    return [instantiate(term, m.env, fresh) for term in rule.body]


def compiled_body(compiled: CompiledProcedure, goal):
    crule, goals = compiled.select(goal.args, [])
    return list(goals)


def is_variant(a, b) -> bool:
    """Equal up to a one-to-one renaming of unbound variables."""
    forward, backward = {}, {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x, y = deref(x), deref(y)
        tx, ty = type(x), type(y)
        if tx is not ty:
            return False
        if tx is Var:
            if forward.setdefault(id(x), y) is not y:
                return False
            if backward.setdefault(id(y), x) is not x:
                return False
        elif tx is Struct:
            if x.functor != y.functor or len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
        elif tx is Tup:
            if len(x.args) != len(y.args):
                return False
            stack.extend(zip(x.args, y.args))
        elif tx is Cons:
            stack.append((x.tail, y.tail))
            stack.append((x.head, y.head))
        elif x != y:
            return False
    return True


def compiled_select(compiled: CompiledProcedure, goal):
    blocked: list = []
    selected = compiled.select(goal.args, blocked)
    if selected is not None:
        return ("commit", selected[0].order)
    return _suspension(blocked, goal) if blocked else ("fail",)


def check_selection(proc, goal):
    """Selection equals the reference: rule, suspension order and body."""
    compiled = CompiledProcedure(proc)
    expected = reference_select(proc.rules, goal)
    assert compiled_select(compiled, goal) == expected, compiled.source
    if expected[0] == "commit":
        body = Tup(reference_body(proc.rules[expected[1]], goal))
        assert is_variant(Tup(compiled_body(compiled, goal)), body), compiled.source


# Head-pattern strategy: atoms, numbers, strings, vars, and nested
# structures sharing a small vocabulary so collisions are common.
_ATOMS = [Atom("a"), Atom("b"), Atom("c"), NIL]

#: Ground list prefixes at least ``codegen._RUN`` (4) elements long: a list
#: pattern with one of them before a variable element matches the whole
#: run with one ``_mr`` (``compile._match_run``) call.
_GROUND_RUNS = [(0, 1, 2, 3), (0, 1, 2, 3, 4), (0, 1, 2, Atom("a"))]


def _run_lists(tail):
    """``[g1, …, gk, E | T]``: a drawn ground run, a fresh variable ``E``
    and a drawn tail."""
    return st.builds(lambda run, tail: make_list([*run, Var()], tail),
                     st.sampled_from(_GROUND_RUNS), tail)


def _patterns(depth):
    leaf = st.one_of(
        st.sampled_from(_ATOMS),
        st.integers(min_value=0, max_value=3),
        st.sampled_from([1.0, 2.5]),
        st.sampled_from(["s1", "s2"]),
        st.builds(lambda: Var()),
    )
    if depth == 0:
        return leaf
    sub = _patterns(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda a: Struct("f", (a,)), sub),
        st.builds(lambda a, b: Struct("g", (a, b)), sub, sub),
        st.builds(Cons, sub, sub),
        st.builds(lambda a: Tup([a]), sub),
        _run_lists(st.one_of(st.just(NIL), sub)),
    )


_GUARDS = st.sampled_from([None, (">", 1), ("<", 3), ("==", Atom("a"))])


#: Placeholders for a rule's variables in generated bodies; each rule maps
#: them onto its own head variables and body-only (fresh) variables.
_SLOTS = [Var(f"V{i}") for i in range(4)]


def _body_terms(depth):
    """Body arguments: structures, tuples, variables, and list literals,
    some longer than the recursion limit."""
    leaf = st.one_of(
        st.sampled_from(_ATOMS),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(_SLOTS),
    )
    if depth == 0:
        return leaf
    sub = _body_terms(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda a, b: Struct("h", (a, b)), sub, sub),
        st.builds(lambda a: Tup([a]), sub),
        st.builds(
            lambda n, last, tail: make_list([*range(n), last], tail),
            st.sampled_from([0, 2, 1500]),
            sub,
            st.one_of(st.just(NIL), st.sampled_from(_SLOTS)),
        ),
    )


# Strategies are built once: building them per draw dominates the run time.
_HEAD_PATTERNS = _patterns(2)
#: Goal lists against ground-run patterns: whole runs (matching or not),
#: runs cut short by an unbound spine, and runs holding an unbound element.
_RUN_GOALS = st.one_of(
    _run_lists(st.one_of(st.just(NIL), st.builds(lambda: Var()), st.just(make_list([5])))),
    st.builds(lambda run, k: make_list(run[:k], Var()),
              st.sampled_from(_GROUND_RUNS), st.integers(0, 5)),
    st.builds(lambda run, k: make_list([*run[:k], Var(), *run[k + 1:], 7]),
              st.sampled_from(_GROUND_RUNS), st.integers(0, 3)),
)
_BODIES = st.lists(
    st.builds(lambda a, b: Struct("q", (a, b)), _body_terms(2), _body_terms(2)),
    max_size=3,
)


@st.composite
def _procedures(draw):
    n_rules = draw(st.integers(min_value=1, max_value=8))
    proc = Procedure("p", 2)
    for i in range(n_rules):
        pat = draw(_HEAD_PATTERNS)
        second = Var("X")
        out = Var("Out")
        guard_spec = draw(_GUARDS)
        guards = []
        if guard_spec is not None:
            name, operand = guard_spec
            guards = [Struct(name, (second, operand))]
        head = Struct("p", (pat, draw(st.sampled_from([second, out]))))
        # Slots name head variables first, then variables only the body has.
        rule_vars = term_vars(head) + [Var("F"), Var("G")]
        slot_vars = {id(slot): var for slot, var in zip(_SLOTS, rule_vars)}
        body = [copy_term(goal, lambda slot: slot_vars.get(id(slot), rule_vars[-1]))
                for goal in draw(_BODIES)]
        proc.add(Rule(head=head, guards=guards, body=body))
    return proc


@st.composite
def _goals(draw):
    first = draw(st.one_of(
        _HEAD_PATTERNS,
        st.builds(lambda: PortRef(Var(), owner=1)),
        _RUN_GOALS,
    ))
    second = draw(st.one_of(
        st.integers(min_value=0, max_value=4),
        st.sampled_from(_ATOMS),
        st.builds(lambda: Var()),
    ))
    return Struct("p", (first, second))


#: Guard operands over the rule's second head variable X and a guard-only
#: variable W: numbers, atoms, arithmetic (``mod 0`` included) and a
#: structure that is not arithmetic.
_X, _W = Var("X"), Var("W")
_OPERANDS = st.one_of(
    st.sampled_from([_X, _W, 0, 2, 2.0, -1, Atom("foo")]),
    st.builds(lambda a, b: Struct("mod", (a, b)), st.sampled_from([_X, 5]),
              st.sampled_from([_X, 0, 2])),
    st.builds(lambda a, op: Struct(op, (a, 1)), st.sampled_from([_X, _W]),
              st.sampled_from(["+", "-", "*", "//", "max"])),
    st.builds(lambda a: Struct("-", (a,)), st.sampled_from([_X, 3])),
    st.builds(lambda a: Struct("f", (a,)), st.sampled_from([_X, 1])),
)

_COMPARISONS = st.sampled_from(["<", ">", "=<", ">=", "=\\=", "=:=", "==", "\\=="])
_RICH_GUARDS = st.one_of(
    st.builds(lambda op, a, b: Struct(op, (a, b)), _COMPARISONS, _OPERANDS, _OPERANDS),
    st.builds(lambda op, a: Struct(op, (a,)),
              st.sampled_from(["integer", "number", "float", "atom", "list", "known"]),
              _OPERANDS),
    st.sampled_from([Atom("otherwise"), Atom("fail")]),
)
#: A comparison of a ground operand pair that is equal (``1`` against
#: ``1.0`` too) or one apart.
_GROUND_COMPARISON = st.builds(
    lambda op, pair: Struct(op, pair), _COMPARISONS,
    st.sampled_from([(1, 1), (1, 1.0), (2.0, 2), (0, 1), (1, 0)]),
)


@st.composite
def _guarded_procedures(draw):
    proc = Procedure("p", 2)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            # Any goal matches the head, so the comparison alone decides
            # whether the rule commits: each operator can decide the selection.
            head = Struct("p", (Var("A"), _X))
            guards = [draw(_GROUND_COMPARISON)]
        else:
            head = Struct("p", (draw(_HEAD_PATTERNS), _X))
            guards = draw(st.lists(_RICH_GUARDS, min_size=1, max_size=3))
        rule = Rule(head, guards, [Struct("q", (_X, _W, Var("F")))])
        proc.add(rule.rename())
    return proc


#: Heads of ``p/3`` as ``(first, second, third)`` argument texts.  The
#: second argument tells the rules apart.  The first is mostly a plain
#: variable in every rule, so the rules are switched on the second; in
#: some procedures every head tests it first (``f(P)``), in others it
#: varies by rule.  The third sometimes repeats a variable (``X``).
_FIRST = ["P", "P", "P", "P", "P", "f(P)", "mixed"]
_MIXED_FIRST = ["P", "P", "a", "f(P)"]
_SECOND = ["[X | Xs]", "[X | Xs]", "[]", "[X, Y | Xs]", "[X]", "[a | Xs]",
           "f(X)", "g(X, Y)", "a", "0", "L", "L"]
_THIRD = ["B", "B", "B", "B", "X", "b"]
#: Compound operands the guards share; each names the variables it needs.
_SHARED = [("X mod P", "XP"), ("X + 1", "X"), ("P - X", "XP"), ("B mod P", "BP"),
           ("X * 2", "X"), ("P mod 0", "P"), ("B + P", "BP")]
_GUARD_FORMS = ["{e} =:= 0", "{e} =\\= 0", "{e} > 1", "{e} < 2", "0 < {e}", "{e} >= {e}",
                "P > {e}", "P > {e}"]
_PLAIN_GUARDS = [("B > 0", "B"), ("B > 0", "B"), ("P < 2", "P"), ("known(B)", "B"),
                 ("integer(X)", "X"), ("X == a", "X"), ("Y > foo", "Y"), ("fail", ""),
                 ("fail", "")]


@st.composite
def _shared_procedures(draw):
    """Consecutive rules that share head patterns and guard operands, told
    apart (mostly) by their second argument.  A rule's guards are drawn
    from a comparison of the procedure's favourite shared operand and two
    other guards, in any order, so that a shared operand is read first by
    some rules and after a blocking or failing guard by others."""
    first = draw(st.sampled_from(_FIRST))
    favourite = draw(st.sampled_from(_SHARED))[0]
    proc = Procedure("p", 3)
    head = None
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        if head is None or draw(st.integers(0, 3)) == 0:
            head = (draw(st.sampled_from(_MIXED_FIRST)) if first == "mixed" else first,
                    draw(st.sampled_from(_SECOND)), draw(st.sampled_from(_THIRD)))
        text = "p({}, {}, {})".format(*head)
        names = {c for c in "PXYB" if c in text.replace("Xs", "")}
        shared = [e for e, needs in _SHARED if set(needs) <= names]
        plain = [g for g, needs in _PLAIN_GUARDS if set(needs) <= names]
        pool = []
        if shared:
            operand = favourite if favourite in shared else draw(st.sampled_from(shared))
            forms = [f for f in _GUARD_FORMS if "P" not in f or "P" in names]
            pool.append(draw(st.sampled_from(forms)).format(e=operand))
        pool += [draw(st.sampled_from(plain)) for _ in range(2)]
        guards = [g for g in draw(st.permutations(pool)) if draw(st.integers(0, 4)) < 3]
        body = "q({}, F)".format(", ".join(sorted(names)) or "0")
        proc.add(parse_rule(f"{text} :- {', '.join(guards) or 'true'} | {body}."))
    return proc


def _case(source, goal):
    """A procedure and a goal from their text."""
    return parse_program(source).procedure("p", 3), parse_term(goal)


#: What a head variable becomes in a goal built from the head: a value,
#: or an unbound goal variable (half the time).
_GOAL_VALUES = ["0", "1", "2", "3", "a", "[]", "[4 | T9]", "U", "U", "U", "U", "U", "U", "U"]


@st.composite
def _shared_cases(draw):
    """A procedure and a goal, half the time an instance of one of its
    heads, so that heads match and guards decide."""
    proc = draw(_shared_procedures())
    if draw(st.booleans()):
        return proc, draw(_shared_goals())
    head = format_term(draw(st.sampled_from(proc.rules)).head)
    values: dict[str, str] = {}

    def value(match):
        name = match.group(0)
        if name not in values:
            values[name] = draw(st.sampled_from(_GOAL_VALUES)).replace("U", f"U{len(values)}")
        return values[name]

    return proc, parse_term(re.sub(r"\b_?[A-Z][A-Za-z0-9_]*", value, head))


#: Goal arguments, several of them unbound.
_GOAL_FIRST = ["0", "1", "2", "3", "U1", "U1", "a", "f(1)", "f(U2)"]
_GOAL_ELEMENTS = ["0", "1", "2", "3", "E1", "E1", "a"]
_GOAL_THIRD = ["W", "W", "W", "0", "1", "a", "b"]


@st.composite
def _shared_goals(draw):
    element = draw(st.sampled_from(_GOAL_ELEMENTS))
    tail = draw(st.sampled_from(["T", "[]", "[2]", "[E2 | T]"]))
    second = draw(st.sampled_from([
        f"[{element} | {tail}]", "[]", f"f({element})", f"g({element}, 1)", "a", "0",
        "S", "S",
    ]))
    return parse_term("p({}, {}, {})".format(
        draw(st.sampled_from(_GOAL_FIRST)), second, draw(st.sampled_from(_GOAL_THIRD))))


class TestIndexedEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_procedures(), _goals())
    def test_indexed_selection_matches_linear_and_reference(self, proc, goal):
        # The reference is the seed's linear scan of the rules.
        check_selection(proc, goal)

    @settings(max_examples=200, deadline=None)
    @given(_guarded_procedures(), _goals(), st.one_of(
        st.integers(min_value=-1, max_value=3), st.sampled_from([2.0, Atom("a"), NIL]),
        st.builds(lambda: Var("U")), st.builds(lambda: Struct("+", (1, Var("V")))),
    ))
    def test_guards_match_the_reference(self, proc, goal, second):
        # Arithmetic, equality, type and ``known`` guards, with blocked,
        # non-arithmetic and guard-only operands, decide as the oracle does.
        check_selection(proc, Struct("p", (goal.args[0], second)))

    @settings(max_examples=300, deadline=None)
    @given(_shared_cases())
    @example(_case("""
        p(P, [X | Xs], B) :- X mod P =:= 0, fail | q.
        p(P, [X | Xs], B) :- B > 0, X mod P =\\= 0 | q.
        """, "p(3, [U | T], V)"))
    @example(_case("""
        p(P, [X | Xs], B) :- X mod P =:= 0 | q.
        p(P, [X | Xs], B) :- B > X mod P | q.
        """, "p(0, [5 | T], V)"))
    def test_shared_heads_and_guards_match_the_reference(self, case):
        # Shared heads and guard operands, a switch on the second argument,
        # several unbound goal arguments: same rule, same body, same
        # blocking variables in the same order.
        check_selection(*case)

    def test_port_first_argument_falls_back_to_wildcards(self):
        # A port matches only a variable head argument; indexed selection
        # must offer the wildcard rules rather than reject the port.
        src = """
        go(Out, S) :- open_port(P, S), p(P, Out).
        p(none, Out) :- Out := no.
        p(P, Out) :- Out := yes.
        """
        result = run_query(parse_program(src), "go(Out, S)")
        assert deref(result.bindings["Out"]) is Atom("yes")

    def test_var_headed_rules_stay_in_every_bucket(self):
        # A variable-headed rule between indexed ones is tried for every
        # first argument, in textual order, and written once.
        proc = Procedure("p", 1)
        proc.add(Rule(head=Struct("p", (Atom("a"),)), body=[]))
        proc.add(Rule(head=Struct("p", (Var("X"),)), body=[]))
        proc.add(Rule(head=Struct("p", (Atom("b"),)), body=[]))
        compiled = CompiledProcedure(proc)
        assert compiled.source.count("return r1,") == 1
        for first, order in [(Atom("a"), 0), (Atom("b"), 1), (Atom("zzz"), 1), (Var(), 1)]:
            assert compiled.select((first,), [])[0].order == order

    def test_many_atomic_keys_match_the_reference(self):
        # A long switch chain of atomic keys must pick what the textual
        # scan picks, numbers across int/float included, and leave other
        # values to the other rules.
        keys = ["0", "1", "2.5", "a", "b", "c", "d", '"s"', "'[]'", "7"]
        program = parse_program("\n".join(
            [f"p({key}, X, R) :- X > 0 | R := {n}." for n, key in enumerate(keys)]
            + ["p(f(Y), X, R) :- R := f.", "p(Z, X, R) :- R := other."]
        ))
        proc = program.procedure("p", 3)
        values = [*keys, "1.0", "2.5", "e", '"t"', "[]", "f(1)", "g(1)", "U", "[1]"]
        for value in values:
            for second in ("1", "0", "V"):
                goal = parse_term(f"p({value}, {second}, R)")
                check_selection(proc, goal)
        port = PortRef(Var(), owner=1)
        check_selection(proc, Struct("p", (port, 1, Var("R"))))

    def test_variable_first_arguments_keep_the_rule_list(self):
        # Nothing to switch on: selection tries the rules in textual order.
        program = parse_program("""
        p(X, Out) :- X > 0 | Out := pos.
        p(X, Out) :- X < 0 | Out := neg.
        p(_, Out) :- Out := zero.
        """)
        proc = program.procedure("p", 2)
        compiled = CompiledProcedure(proc)
        assert "blocked.append" not in compiled.source
        for first in (3, -2, 0, Atom("a"), Var("U")):
            goal = Struct("p", (first, Var("Out")))
            assert compiled_select(compiled, goal) == reference_select(proc.rules, goal)

    def test_commit_order_preserved_within_bucket(self):
        # Two rules with the same key: the textually-first one commits.
        src = """
        p(k, Out) :- Out := first.
        p(k, Out) :- Out := second.
        """
        result = run_query(parse_program(src), "p(k, Out)")
        assert deref(result.bindings["Out"]) is Atom("first")

    def test_numeric_keys_cross_int_float(self):
        src = """
        p(1, Out) :- Out := one.
        p(2, Out) :- Out := two.
        """
        program = parse_program(src)
        assert deref(run_query(program, "p(1.0, Out)")["Out"]) is Atom("one")
        assert deref(run_query(program, "p(2, Out)")["Out"]) is Atom("two")


class TestCompileCache:
    def test_same_program_compiles_once(self):
        program = parse_program("p(a).\np(b).")
        first = compile_program(program)
        second = compile_program(program)
        assert second is first

    def test_mutation_invalidates(self):
        program = parse_program("p(a).")
        first = compile_program(program)
        program.add_rule(parse_program("p(b).").procedure("p", 1).rules[0])
        second = compile_program(program)
        assert second is not first
        assert len(second.procedure(("p", 1)).rules) == 2


class TestSymbolTable:
    """A program's symbol facts — what it defines, what each procedure
    calls, how large it is — as the compiler and the analyses read them."""

    def test_interned_indicators_are_shared(self):
        program = parse_program("go :- work, work.\nwork.")
        compiled = compile_program(program)
        assert compiled.procedure(("work", 0)) is compiled.procedure(("work", 0))
        assert ("go", 0) in compiled and ("work", 0) in compiled
        graph = CallGraph(program)
        assert graph.defined == {("go", 0), ("work", 0)}
        assert graph.callees(("go", 0)) == {("work", 0)}

    def test_calls_look_through_placement(self):
        program = parse_program("go :- work @ 2.\nwork.")
        assert CallGraph(program).callees(("go", 0)) == {("work", 0)}

    def test_counts_match_program(self):
        program = parse_program("""
        go(N) :- N > 0 | work, go(N).
        go(0).
        work.
        """)
        size = measure(program)
        assert (size.procedures, size.rules, size.goals) == (2, 3, 3)
        assert size.rules == program.rule_count()
        assert size.goals == program.goal_count()


class TestTemplates:
    """Body building, through a one-rule procedure's generated code."""

    def test_ground_structs_are_shared(self):
        term = Struct("point", (1, 2))
        assert COMPILED.instantiate(term, {}, {}) is term

    def test_tuples_are_never_shared(self):
        # Tup cells are mutable (put_arg), so each instantiation is fresh.
        term = Tup([1, 2])
        first = COMPILED.instantiate(term, {}, {})
        second = COMPILED.instantiate(term, {}, {})
        assert first is not second and first is not term

    def test_list_literal_shares_its_ground_suffix(self):
        x = Var("X")
        term = make_list([x, Tup([]), 1, 2], Cons(3, NIL))
        env = {id(x): 7}
        first = COMPILED.instantiate(term, env, {})
        second = COMPILED.instantiate(term, env, {})
        assert first.head == 7 and first.tail is not second.tail
        suffix = deref(deref(term.tail).tail)
        assert first.tail.tail is suffix and second.tail.tail is suffix

    def test_fresh_vars_shared_across_goals_of_a_rule(self):
        shared = Var("S")
        env, fresh = {}, {}
        one = COMPILED.instantiate(Struct("f", (shared,)), env, fresh)
        two = COMPILED.instantiate(Struct("g", (shared,)), env, fresh)
        assert one.args[0] is two.args[0]


class TestGeneratedCode:
    SRC = """
    filter(P, [X | Xs], Ys) :- X mod P =\\= 0 | Ys := [X | Ys1], filter(P, Xs, Ys1).
    filter(P, [X | Xs], Ys) :- X mod P =:= 0 | filter(P, Xs, Ys).
    filter(_, [], Ys) :- Ys := [].
    """

    def test_rule_functions_are_filed_under_compile_py(self):
        # Profiles charge code to a layer by its file: the generated
        # function must sit under compile.py, with its text readable.
        import linecache

        import repro.strand.compile as compile_module

        proc = compile_program(parse_program(self.SRC)).procedure(("filter", 3))
        code = proc.choose.__code__
        assert code.co_filename.startswith(f"{compile_module.__file__}:filter/3#")
        assert proc.source.startswith(f"def {code.co_name}(args, blocked):")
        line = linecache.getline(code.co_filename, code.co_firstlineno)
        assert line == proc.source.splitlines(True)[0]

    def test_same_indicator_keeps_its_own_lines(self):
        import linecache

        one = compile_program(parse_program("p(X) :- q(X).")).procedure(("p", 1))
        two = compile_program(parse_program("p(a) :- r.")).procedure(("p", 1))
        assert one.choose.__code__.co_filename != two.choose.__code__.co_filename
        for proc in (one, two):
            lines = linecache.getlines(proc.choose.__code__.co_filename)
            assert lines == proc.source.splitlines(True)

    def test_shared_head_is_written_once(self):
        # filter/3 switches on its stream: the [X | Xs] unpack is written
        # once, each rule computes its own X mod P, and an unbound stream
        # is one append.
        source = compile_program(parse_program(self.SRC)).procedure(("filter", 3)).source
        assert source.count(".head") == 1
        assert source.count("_b5(") == 2
        assert source.count("while type(a1) is Var") == 1
        assert "if type(a1) is Var: blocked.append(a1)" in source

    def test_long_ground_literal_is_one_prepend_call(self):
        # A body list literal of DEEP ground elements is built by _prepend
        # calls, not one cell at a time: a cell-by-cell build writes one
        # line per few cells and takes minutes to compile at this size.
        proc = Procedure("p", 1)
        proc.add(Rule(Struct("p", (Var("X"),)), [],
                      [Struct("q", (deep_list(DEEP, tail=Var("T")),))]))
        source = CompiledProcedure(proc).source
        assert "_pre(" in source
        assert len(source.splitlines()) <= 10

    def test_long_literals_do_not_nest(self):
        xs = [Var(f"X{i}") for i in range(2000)]
        rule = Rule(Struct("p", (make_list(xs),)), [], [Struct("q", (make_list(xs[::-1]),))])
        proc = Procedure("p", 1)
        proc.add(rule)
        source = CompiledProcedure(proc).source
        depth = max(len(line) - len(line.lstrip()) for line in source.splitlines()) // 4
        assert depth <= 3
        assert max(line.count("(") for line in source.splitlines()) < 100
