"""The compile layer: symbol tables, plans, and first-argument indexing.

The load-bearing property: indexed rule selection must be observationally
identical to the seed engine's linear scan — same committed rule (the first
*textual* match), same suspension variables, same definite failures — on
arbitrary programs and goals.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.strand import parse_program, run_query
from repro.strand.arith import Suspend
from repro.strand.compile import (
    COMPILE_STATS,
    CompiledProcedure,
    compile_program,
    compile_template,
    symbol_table,
)
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
    crule, env = compiled.select(goal.args)
    fresh = {}
    return [build(env, fresh) for build in crule.body]


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


class TestIndexedEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_procedures(), _goals())
    def test_indexed_selection_matches_linear_and_reference(self, proc, goal):
        indexed = CompiledProcedure(proc, index=True)
        linear = CompiledProcedure(proc, index=False)
        expected = reference_select(proc.rules, goal)
        assert compiled_select(linear, goal) == expected
        assert compiled_select(indexed, goal) == expected
        if expected[0] == "commit":
            body = Tup(reference_body(proc.rules[expected[1]], goal))
            assert is_variant(Tup(compiled_body(indexed, goal)), body)
            assert is_variant(Tup(compiled_body(linear, goal)), body)

    def test_port_first_argument_falls_back_to_wildcards(self):
        # A port matches only a variable head argument; indexed selection
        # must offer the wildcard rules rather than reject the port.
        src = """
        go(Out, S) :- open_port(P, S), p(P, Out).
        p(none, Out) :- Out := no.
        p(P, Out) :- Out := yes.
        """
        program = parse_program(src)
        for indexing in (True, False):
            result = run_query(program, "go(Out, S)", indexing=indexing)
            assert deref(result.bindings["Out"]) is Atom("yes"), indexing

    def test_var_headed_rules_stay_in_every_bucket(self):
        proc = Procedure("p", 1)
        proc.add(Rule(head=Struct("p", (Atom("a"),)), body=[]))
        wildcard = Rule(head=Struct("p", (Var("X"),)), body=[])
        proc.add(wildcard)
        proc.add(Rule(head=Struct("p", (Atom("b"),)), body=[]))
        compiled = CompiledProcedure(proc, index=True)
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
        hits = COMPILE_STATS["hits"]
        second = compile_program(program)
        assert second is first
        assert COMPILE_STATS["hits"] == hits + 1

    def test_indexed_and_linear_cached_separately(self):
        program = parse_program("p(a).\np(b).")
        indexed = compile_program(program, index=True)
        linear = compile_program(program, index=False)
        assert indexed is not linear
        assert compile_program(program, index=True) is indexed
        assert compile_program(program, index=False) is linear

    def test_mutation_invalidates(self):
        program = parse_program("p(a).")
        first = compile_program(program)
        program.add_rule(parse_program("p(b).").procedure("p", 1).rules[0])
        second = compile_program(program)
        assert second is not first
        assert len(second.procedure(("p", 1)).rules) == 2


class TestSymbolTable:
    def test_interned_indicators_are_shared(self):
        program = parse_program("go :- work, work.\nwork.")
        table = symbol_table(program)
        assert table.intern("work", 0) is table.intern("work", 0)
        assert ("go", 0) in table and ("work", 0) in table
        assert table.callees(("go", 0)) == (("work", 0), ("work", 0))

    def test_calls_look_through_placement(self):
        program = parse_program("go :- work @ 2.\nwork.")
        table = symbol_table(program)
        assert table.callees(("go", 0)) == (("work", 0),)

    def test_counts_match_program(self):
        program = parse_program("""
        go(N) :- N > 0 | work, go(N).
        go(0).
        work.
        """)
        table = symbol_table(program)
        assert table.total_rules() == program.rule_count()
        assert table.total_goals() == program.goal_count()

    def test_cached_per_version(self):
        program = parse_program("p.")
        first = symbol_table(program)
        assert symbol_table(program) is first
        program.add_rule(parse_program("q.").procedure("q", 0).rules[0])
        assert symbol_table(program) is not first


class TestTemplates:
    def test_ground_structs_are_shared(self):
        term = Struct("point", (1, 2))
        build = compile_template(term)
        assert build({}, {}) is term

    def test_tuples_are_never_shared(self):
        # Tup cells are mutable (put_arg), so each instantiation is fresh.
        term = Tup([1, 2])
        build = compile_template(term)
        first = build({}, {})
        second = build({}, {})
        assert first is not second and first is not term

    def test_list_literal_shares_its_ground_suffix(self):
        x = Var("X")
        term = make_list([x, Tup([]), 1, 2], Cons(3, NIL))
        build = compile_template(term)
        env, fresh = {id(x): 7}, {}
        first, second = build(env, fresh), build(env, fresh)
        assert first.head == 7 and first.tail is not second.tail
        suffix = deref(deref(term.tail).tail)
        assert first.tail.tail is suffix and second.tail.tail is suffix

    def test_fresh_vars_shared_across_goals_of_a_rule(self):
        shared = Var("S")
        build_one = compile_template(Struct("f", (shared,)))
        build_two = compile_template(Struct("g", (shared,)))
        env, fresh = {}, {}
        one = build_one(env, fresh)
        two = build_two(env, fresh)
        assert one.args[0] is two.args[0]


class TestEngineIndexingFlag:
    def test_linear_mode_semantics_identical(self):
        src = """
        classify(0, Out) :- Out := zero.
        classify(N, Out) :- N > 0 | Out := pos.
        classify(N, Out) :- N < 0 | Out := neg.
        """
        program = parse_program(src)
        for value, expect in ((0, "zero"), (7, "pos"), (-2, "neg")):
            on = run_query(program, f"classify({value}, Out)", indexing=True)
            off = run_query(program, f"classify({value}, Out)", indexing=False)
            assert deref(on.bindings["Out"]) is Atom(expect)
            assert deref(off.bindings["Out"]) is Atom(expect)
            assert on.metrics.reductions == off.metrics.reductions
