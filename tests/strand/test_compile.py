"""The compile layer: generated rule functions and first-argument indexing.

The load-bearing property: indexed rule selection must be observationally
identical to the seed engine's linear scan — same committed rule (the first
*textual* match), same suspension variables, same definite failures — on
arbitrary programs and goals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.complexity import measure
from repro.strand import parse_program, run_query
from repro.strand.arith import Suspend
from repro.strand.compile import CompiledProcedure, compile_program
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
from tests.strand.matchers import COMPILED
from tests.strand.reference_match import (
    MatchResult,
    eval_guards,
    instantiate,
    match_head,
)


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


def reference_select(rules, goal):
    """("commit", index) | ("suspend", {blocked goal-var ids}) | ("fail",)

    Guards may also block on rule-fresh variables; those have per-run
    identities, so the comparison is restricted to variables of the goal
    (the only ones a binding can ever wake).
    """
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
    if blocked:
        goal_vars = _goal_var_ids(goal)
        return ("suspend", frozenset(id(v) for v in blocked) & goal_vars)
    return ("fail",)


def reference_body(rule, goal):
    """The oracle's instance of ``rule``'s body for ``goal`` (which commits)."""
    m = match_head(rule.head, goal)
    eval_guards(rule.guards, m.env)  # may give guard-only variables fresh values
    fresh = {}
    return [instantiate(term, m.env, fresh) for term in rule.body]


def compiled_body(compiled: CompiledProcedure, goal):
    crule, goals = compiled.select(goal.args)
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
    try:
        selected = compiled.select(goal.args)
    except Suspend as s:
        goal_vars = _goal_var_ids(goal)
        return ("suspend",
                frozenset(id(deref(v)) for v in s.variables) & goal_vars)
    if selected is None:
        return ("fail",)
    return ("commit", selected[0].order)


def linear_select(compiled: CompiledProcedure, goal):
    """The compiled rules tried in textual order, ignoring the buckets."""
    blocked = []
    for crule in compiled.rules:
        if crule.commit(goal.args, blocked) is not None:
            return ("commit", crule.order)
    if blocked:
        goal_vars = _goal_var_ids(goal)
        return ("suspend", frozenset(id(deref(v)) for v in blocked) & goal_vars)
    return ("fail",)


# Head-pattern strategy: atoms, numbers, strings, vars, and nested
# structures sharing a small vocabulary so collisions are common.
_ATOMS = [Atom("a"), Atom("b"), Atom("c"), NIL]


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


class TestIndexedEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_procedures(), _goals())
    def test_indexed_selection_matches_linear_and_reference(self, proc, goal):
        compiled = CompiledProcedure(proc)
        expected = reference_select(proc.rules, goal)
        assert linear_select(compiled, goal) == expected
        assert compiled_select(compiled, goal) == expected
        if expected[0] == "commit":
            body = Tup(reference_body(proc.rules[expected[1]], goal))
            assert is_variant(Tup(compiled_body(compiled, goal)), body)

    @settings(max_examples=200, deadline=None)
    @given(_guarded_procedures(), _goals(), st.one_of(
        st.integers(min_value=-1, max_value=3), st.sampled_from([2.0, Atom("a"), NIL]),
        st.builds(lambda: Var("U")), st.builds(lambda: Struct("+", (1, Var("V")))),
    ))
    def test_guards_match_the_reference(self, proc, goal, second):
        # Arithmetic, equality, type and ``known`` guards, with blocked,
        # non-arithmetic and guard-only operands, decide as the oracle does.
        goal = Struct("p", (goal.args[0], second))
        expected = reference_select(proc.rules, goal)
        compiled = CompiledProcedure(proc)
        assert compiled_select(compiled, goal) == expected
        if expected[0] == "commit":
            body = Tup(reference_body(proc.rules[expected[1]], goal))
            assert is_variant(Tup(compiled_body(compiled, goal)), body)

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
        proc = Procedure("p", 1)
        proc.add(Rule(head=Struct("p", (Atom("a"),)), body=[]))
        wildcard = Rule(head=Struct("p", (Var("X"),)), body=[])
        proc.add(wildcard)
        proc.add(Rule(head=Struct("p", (Atom("b"),)), body=[]))
        compiled = CompiledProcedure(proc)
        assert compiled.indexed
        for key, bucket in compiled.buckets.items():
            assert any(r.rule is wildcard for r in bucket), key
        # Textual order inside the bucket: a-rule before the wildcard.
        a_bucket = compiled.buckets[("a", "a")]
        assert [r.order for r in a_bucket] == [0, 1]
        # Unseen key → only the wildcard can match.
        assert [r.order for r in compiled.candidates((Atom("zzz"),))] == [1]
        # Unbound first argument → the full rule list, in order.
        assert [r.order for r in compiled.candidates((Var(),))] == [0, 1, 2]

    def test_variable_first_arguments_keep_the_rule_list(self):
        # Nothing to index on: selection scans the rules in textual order.
        program = parse_program("""
        p(X, Out) :- X > 0 | Out := pos.
        p(X, Out) :- X < 0 | Out := neg.
        p(_, Out) :- Out := zero.
        """)
        proc = program.procedure("p", 2)
        compiled = CompiledProcedure(proc)
        assert compiled.indexed is False
        assert compiled.candidates((Atom("a"), Var())) == compiled.rules
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
        # functions must sit under compile.py, with their text readable.
        import linecache

        import repro.strand.compile as compile_module

        proc = compile_program(parse_program(self.SRC)).procedure(("filter", 3))
        for crule in proc.rules:
            code = crule.commit.__code__
            assert code.co_filename.startswith(f"{compile_module.__file__}:filter/3#")
            assert crule.source.startswith(f"def {code.co_name}(args, blocked):")
            line = linecache.getline(code.co_filename, code.co_firstlineno)
            assert line == crule.source.splitlines(True)[0]

    def test_same_indicator_keeps_its_own_lines(self):
        import linecache

        one = compile_program(parse_program("p(X) :- q(X).")).procedure(("p", 1)).rules[0]
        two = compile_program(parse_program("p(a) :- r.")).procedure(("p", 1)).rules[0]
        assert one.commit.__code__.co_filename != two.commit.__code__.co_filename
        for crule in (one, two):
            lines = linecache.getlines(crule.commit.__code__.co_filename)
            assert lines == crule.source.splitlines(True)

    def test_long_literals_do_not_nest(self):
        xs = [Var(f"X{i}") for i in range(2000)]
        rule = Rule(Struct("p", (make_list(xs),)), [], [Struct("q", (make_list(xs[::-1]),))])
        proc = Procedure("p", 1)
        proc.add(rule)
        source = CompiledProcedure(proc).rules[0].source
        depth = max(len(line) - len(line.lstrip()) for line in source.splitlines()) // 4
        assert depth <= 3
        assert max(line.count("(") for line in source.splitlines()) < 100

