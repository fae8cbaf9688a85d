"""Unit tests for one-way head matching and guard evaluation.

Each class runs its cases on the compiled path the runtime executes; its
``…Oracle`` subclass runs the same cases on the reference matcher.
"""

from repro.strand.foreign import to_python
from repro.strand.parser import parse_program, parse_rule, parse_term
from repro.strand.terms import NIL, Atom, Cons, Struct, Var, deref, make_list
from tests.strand.matchers import COMPILED, ORACLE
from tests.strand.reference_match import MatchResult


class TestHeadMatching:
    matcher = COMPILED

    def match(self, head_src: str, goal_src: str) -> MatchResult:
        return self.matcher.match(parse_term(head_src), parse_term(goal_src))

    def test_variables_match_anything(self):
        m = self.match("p(X)", "p(f(1))")
        assert m.status == MatchResult.MATCHED

    def test_constant_match(self):
        assert self.match("p(0)", "p(0)").status == MatchResult.MATCHED
        assert self.match("p(a)", "p(a)").status == MatchResult.MATCHED

    def test_constant_clash_fails(self):
        assert self.match("p(0)", "p(1)").status == MatchResult.FAILED
        assert self.match("p(a)", "p(b)").status == MatchResult.FAILED

    def test_atom_vs_string_fails(self):
        assert self.match("p(a)", 'p("a")').status == MatchResult.FAILED

    def test_structure_decomposition(self):
        m = self.match("p(tree(V, L, R))", "p(tree(add, leaf(1), leaf(2)))")
        assert m.status == MatchResult.MATCHED

    def test_functor_clash_fails(self):
        assert self.match("p(tree(V, L, R))", "p(leaf(1))").status == MatchResult.FAILED

    def test_arity_clash_fails(self):
        assert self.match("p(f(X))", "p(f(1, 2))").status == MatchResult.FAILED

    def test_unbound_goal_arg_suspends(self):
        head = parse_term("p(0)")
        goal_var = Var("G")
        m = self.matcher.match(head, Struct("p", (goal_var,)))
        assert m.status == MatchResult.SUSPENDED
        assert goal_var in m.blocked

    def test_nested_unbound_suspends(self):
        head = parse_term("p(f(0))")
        inner = Var("I")
        m = self.matcher.match(head, Struct("p", (Struct("f", (inner,)),)))
        assert m.status == MatchResult.SUSPENDED
        assert inner in m.blocked

    def test_definite_clash_beats_suspension(self):
        # One position clashes outright: the rule fails even though
        # another position would have to wait.
        head = parse_term("p(0, a)")
        m = self.matcher.match(head, Struct("p", (Var("U"), Atom("b"))))
        assert m.status == MatchResult.FAILED

    def test_list_patterns(self):
        assert self.match("p([X | Xs])", "p([1, 2])").status == MatchResult.MATCHED
        assert self.match("p([])", "p([])").status == MatchResult.MATCHED
        assert self.match("p([X | Xs])", "p([])").status == MatchResult.FAILED

    def test_nonlinear_head_equal(self):
        assert self.match("p(X, X)", "p(3, 3)").status == MatchResult.MATCHED

    def test_nonlinear_head_unequal(self):
        assert self.match("p(X, X)", "p(3, 4)").status == MatchResult.FAILED

    def test_nonlinear_head_suspends_on_unbound(self):
        head = parse_term("p(X, X)")
        u = Var("U")
        m = self.matcher.match(head, Struct("p", (3, u)))
        assert m.status == MatchResult.SUSPENDED

    def test_nonlinear_same_unbound_var_matches(self):
        head = parse_term("p(X, X)")
        u = Var("U")
        m = self.matcher.match(head, Struct("p", (u, u)))
        assert m.status == MatchResult.MATCHED

    def test_matching_never_binds_goal_vars(self):
        head = parse_term("p(f(X))")
        u = Var("U")
        self.matcher.match(head, Struct("p", (u,)))
        assert not u.is_bound

    def test_tuple_pattern(self):
        assert self.match("p({A, B})", "p({1, 2})").status == MatchResult.MATCHED
        assert self.match("p({A})", "p({1, 2})").status == MatchResult.FAILED


class TestGuards:
    matcher = COMPILED

    def run_guards(self, rule_src: str, goal_src: str) -> MatchResult:
        rule = parse_rule(rule_src)
        goal = parse_term(goal_src)
        m = self.matcher.match(rule.head, goal)
        assert m.status == MatchResult.MATCHED
        return self.matcher.commit(rule, goal)

    def test_comparison_true(self):
        g = self.run_guards("p(N) :- N > 0 | q.", "p(3)")
        assert g.status == MatchResult.MATCHED

    def test_comparison_false(self):
        g = self.run_guards("p(N) :- N > 0 | q.", "p(0)")
        assert g.status == MatchResult.FAILED

    def test_comparison_suspends(self):
        rule = parse_rule("p(N) :- N > 0 | q.")
        u = Var("U")
        g = self.matcher.commit(rule, Struct("p", (u,)))
        assert g.status == MatchResult.SUSPENDED
        assert u in g.blocked

    def test_all_comparisons(self):
        for guard, value, expected in [
            ("N < 5", 3, True), ("N < 5", 5, False),
            ("N =< 5", 5, True), ("N >= 5", 5, True),
            ("N =\\= 5", 4, True), ("N =\\= 5", 5, False),
        ]:
            g = self.run_guards(f"p(N) :- {guard} | q.", f"p({value})")
            status = MatchResult.MATCHED if expected else MatchResult.FAILED
            assert g.status == status, guard

    def test_structural_equality(self):
        g = self.run_guards("p(X) :- X == f(1) | q.", "p(f(1))")
        assert g.status == MatchResult.MATCHED
        g = self.run_guards("p(X) :- X == f(1) | q.", "p(f(2))")
        assert g.status == MatchResult.FAILED

    def test_structural_disequality(self):
        g = self.run_guards("p(X) :- X \\== f(1) | q.", "p(f(2))")
        assert g.status == MatchResult.MATCHED

    def test_type_tests(self):
        for guard, value, expected in [
            ("integer(X)", "3", True), ("integer(X)", "3.5", False),
            ("number(X)", "3.5", True), ("float(X)", "3.5", True),
            ("atom(X)", "a", True), ("atom(X)", "3", False),
            ("string(X)", '"s"', True),
            ("list(X)", "[1]", True), ("list(X)", "[]", True),
            ("list(X)", "f(1)", False),
            ("tuple(X)", "{1}", True), ("tuple(X)", "1", False),
        ]:
            g = self.run_guards(f"p(X) :- {guard} | q.", f"p({value})")
            status = MatchResult.MATCHED if expected else MatchResult.FAILED
            assert g.status == status, (guard, value)

    def test_known_guard(self):
        g = self.run_guards("p(X) :- known(X) | q.", "p(42)")
        assert g.status == MatchResult.MATCHED
        rule = parse_rule("p(X) :- known(X) | q.")
        u = Var("U")
        g = self.matcher.commit(rule, Struct("p", (u,)))
        assert g.status == MatchResult.SUSPENDED

    def test_true_guard(self):
        g = self.run_guards("p(X) :- true | q.", "p(1)")
        assert g.status == MatchResult.MATCHED

    def test_type_test_suspends_on_unbound(self):
        rule = parse_rule("p(X) :- integer(X) | q.")
        u = Var("U")
        g = self.matcher.commit(rule, Struct("p", (u,)))
        assert g.status == MatchResult.SUSPENDED


class TestInstantiate:
    matcher = COMPILED

    def test_body_shares_head_bindings(self):
        rule = parse_rule("p(X) :- q(X, Y), r(Y).")
        goal = parse_term("p(7)")
        m = self.matcher.match(rule.head, goal)
        fresh = {}
        q_goal = self.matcher.instantiate(rule.body[0], m.env, fresh)
        r_goal = self.matcher.instantiate(rule.body[1], m.env, fresh)
        assert deref(q_goal.args[0]) == 7
        # Y is fresh but shared between the two body goals.
        assert q_goal.args[1] is r_goal.args[0]

    def test_fresh_vars_not_rule_vars(self):
        rule = parse_rule("p(X) :- q(Y).")
        m = self.matcher.match(rule.head, parse_term("p(1)"))
        g1 = self.matcher.instantiate(rule.body[0], dict(m.env), {})
        g2 = self.matcher.instantiate(rule.body[0], dict(m.env), {})
        assert g1.args[0] is not g2.args[0]


class TestArithmeticEquality:
    """The =:= guard (arithmetic equality, unlike structural ==)."""

    matcher = COMPILED
    run_guards = TestGuards.run_guards

    def test_evaluates_expressions(self):
        g = self.run_guards("p(X) :- X mod 2 =:= 0 | q.", "p(4)")
        assert g.status == MatchResult.MATCHED
        g = self.run_guards("p(X) :- X mod 2 =:= 0 | q.", "p(5)")
        assert g.status == MatchResult.FAILED

    def test_int_float_equality(self):
        g = self.run_guards("p(X) :- X =:= 2.0 | q.", "p(2)")
        assert g.status == MatchResult.MATCHED

    def test_suspends_on_unbound(self):
        rule = parse_rule("p(X) :- X =:= 3 | q.")
        u = Var("U")
        g = self.matcher.commit(rule, Struct("p", (u,)))
        assert g.status == MatchResult.SUSPENDED

    def test_structural_eq_does_not_evaluate(self):
        # The contrast that motivated =:= — `4 mod 2 == 0` is false
        # structurally (a struct is not the integer 0).
        g = self.run_guards("p(X) :- X mod 2 == 0 | q.", "p(4)")
        assert g.status == MatchResult.FAILED


class TestEdgeCases:
    """Corners of the rule semantics the generated code must keep."""

    matcher = COMPILED

    def test_repeated_variable_binds_where_first_reached(self):
        # The first occurrence of X sits in a list the goal has not built
        # yet, so the second occurrence binds X and the third compares.
        rule = parse_rule("f([X | _], X, X).")
        u = Var("U")
        assert self.matcher.commit(rule, Struct("f", (u, 5, 6))).status == MatchResult.FAILED
        m = self.matcher.commit(rule, Struct("f", (u, 5, 5)))
        assert m.status == MatchResult.SUSPENDED
        assert [deref(v) for v in m.blocked] == [u]

    def test_guard_only_variable_reused_in_body(self):
        rule = parse_rule("p(X) :- Y == Y | q(X, Y), r(Y).")
        q, r = self.matcher.body(rule, parse_term("p(1)"))
        fresh = deref(q.args[1])
        assert deref(q.args[0]) == 1
        assert type(fresh) is Var and fresh is deref(r.args[0])
        assert fresh is not deref(rule.guards[0].args[0])

    def test_blocked_left_side_leaves_right_side_unread(self):
        u, v = Var("U"), Var("V")
        m = self.matcher.commit(parse_rule("p(X, Y) :- X > Y | q."), Struct("p", (u, v)))
        assert m.status == MatchResult.SUSPENDED
        assert [deref(b) for b in m.blocked] == [u]
        for guard in ("X > 1 mod 0", "X > foo"):
            m = self.matcher.commit(parse_rule(f"p(X) :- {guard} | q."), Struct("p", (u,)))
            assert m.status == MatchResult.SUSPENDED, guard

    def test_non_arithmetic_operands_fail_so_the_next_rule_commits(self):
        rules = parse_program("""
        p(X, R) :- X > foo | R := a.
        p(X, R) :- X mod 0 =:= 1 | R := b.
        p(X, R) :- R := c.
        """).procedure("p", 2).rules
        goal = parse_term("p(3, R)")
        for rule in rules[:2]:
            assert self.matcher.commit(rule, goal).status == MatchResult.FAILED
        assert self.matcher.first_commit(rules, goal) == 2
        assert self.matcher.first_commit(rules[:2], goal) is None
        assert self.matcher.first_commit(rules[:2], Struct("p", (Var("U"), Var("R")))) == "suspend"

    def test_int_float_comparison_commits(self):
        g = self.matcher.commit(parse_rule("p(X) :- 1 =:= 1.0 | q."), parse_term("p(0)"))
        assert g.status == MatchResult.MATCHED

    def test_long_non_ground_list_in_head_and_body(self):
        n = 5000
        xs = [Var(f"X{i}") for i in range(n)]
        tail = Var("T")
        head = Struct("p", (make_list(xs, tail),))
        m = self.matcher.match(head, Struct("p", (make_list(range(n), NIL),)))
        assert m.status == MatchResult.MATCHED
        assert deref(m.env[id(xs[-1])]) == n - 1 and deref(m.env[id(tail)]) is NIL
        built = self.matcher.instantiate(Struct("q", (make_list(xs),)), m.env, {})
        assert to_python(built.args[0]) == list(range(n))
        hole = Var("Hole")
        short = make_list(range(n // 2), hole)
        m = self.matcher.match(head, Struct("p", (short,)))
        assert m.status == MatchResult.SUSPENDED
        assert [deref(b) for b in m.blocked] == [hole]

    def test_deeply_nested_structure_pattern(self):
        def nest(depth, leaf):
            term = leaf
            for _ in range(depth):
                term = Struct("f", (term, Atom("a")))
            return term

        x = Var("X")
        head = Struct("p", (nest(200, Cons(x, x)),))
        m = self.matcher.match(head, Struct("p", (nest(200, Cons(1, 1)),)))
        assert m.status == MatchResult.MATCHED and deref(m.env[id(x)]) == 1
        m = self.matcher.match(head, Struct("p", (nest(200, Cons(1, 2)),)))
        assert m.status == MatchResult.FAILED
        hole = Var("Hole")
        m = self.matcher.match(head, Struct("p", (nest(200, Cons(hole, 1)),)))
        assert m.status == MatchResult.SUSPENDED
        assert [deref(b) for b in m.blocked] == [hole]
        m = self.matcher.match(head, Struct("p", (nest(150, Var("Deep")),)))
        assert m.status == MatchResult.SUSPENDED

    FILTER = parse_program("""
    filter(P, [X | Xs], Ys) :- X mod P =\\= 0 | Ys := [X | Ys1], filter(P, Xs, Ys1).
    filter(P, [X | Xs], Ys) :- X mod P =:= 0 | filter(P, Xs, Ys).
    filter(_, [], Ys) :- Ys := [].
    """).procedure("filter", 3).rules

    def test_shared_modulo_by_zero_fails_both_guarded_rules(self):
        # X mod P is shared by the first two rules: mod 0 fails both, and
        # the stream is not empty, so the goal fails.
        assert self.matcher.select(self.FILTER, parse_term("filter(0, [5 | T], Y)")) == ("fail",)
        assert self.matcher.select(self.FILTER, parse_term("filter(2, [5 | T], Y)")) == ("commit", 0)
        assert self.matcher.select(self.FILTER, parse_term("filter(5, [5 | T], Y)")) == ("commit", 1)

    def test_shared_operand_suspends_on_its_variable_once(self):
        x = Var("X")
        goal = Struct("filter", (3, Cons(x, Var("T")), Var("Y")))
        assert self.matcher.select(self.FILTER, goal) == ("suspend", [x])
        stream = Var("S")
        goal = Struct("filter", (3, stream, Var("Y")))
        assert self.matcher.select(self.FILTER, goal) == ("suspend", [stream])

    def test_unbound_switch_and_earlier_arguments_block_in_rule_order(self):
        # Both procedures are told apart by their second argument.  In the
        # first, every head tests its first argument before it; in the
        # second, a guard reads the first argument.
        u, v = Var("U"), Var("V")
        tested = parse_program("""
        p(f(N), L, R) :- N < 0 | R := neg.
        p(f(N), [X | Xs], R) :- N > 0 | R := X.
        p(f(a), [], R) :- R := a.
        """).procedure("p", 3).rules
        for goal_args, rules, expected in [
            ((u, v), tested, [u, v]),
            ((Struct("f", (u,)), v), tested, [u, v]),
            ((Struct("f", (u,)), v), tested[1:], [v, u]),
            ((Struct("f", (Atom("b"),)), v), tested[1:], [v]),
        ]:
            goal = Struct("p", (*goal_args, Var("R")))
            assert self.matcher.select(rules, goal) == ("suspend", expected), goal
        guarded = parse_program("""
        p(N, L, R) :- N < 0 | R := neg.
        p(N, [X | Xs], R) :- N > 0 | R := X.
        p(N, [], R) :- N =:= 0 | R := zero.
        """).procedure("p", 3).rules
        goal = Struct("p", (u, v, Var("R")))
        assert self.matcher.select(guarded, goal) == ("suspend", [u, v])
        assert self.matcher.select(guarded[1:], goal) == ("suspend", [v])
        goal = Struct("p", (u, NIL, Var("R")))
        assert self.matcher.select(guarded[1:], goal) == ("suspend", [u])
        assert self.matcher.select(guarded, parse_term("p(0, [], R)")) == ("commit", 2)

    def test_variable_at_the_switch_between_two_indexed_rules(self):
        rules = parse_program("""
        q(P, [X | Xs], R) :- X > P | R := big.
        q(P, L, R) :- P > 5 | R := wild.
        q(P, [], R) :- R := empty.
        """).procedure("q", 3).rules
        for goal, expected in [
            ("q(1, [3 | T], R)", ("commit", 0)),
            ("q(9, [0 | T], R)", ("commit", 1)),
            ("q(9, [], R)", ("commit", 1)),
            ("q(1, [], R)", ("commit", 2)),
            ("q(1, [0 | T], R)", ("fail",)),
            ("q(9, f(1), R)", ("commit", 1)),
            ("q(1, f(1), R)", ("fail",)),
        ]:
            assert self.matcher.select(rules, parse_term(goal)) == expected, goal
        p, s = Var("P"), Var("S")
        assert self.matcher.select(rules, Struct("q", (p, s, Var("R")))) == ("suspend", [s, p])
        x = Var("X")
        goal = Struct("q", (p, Cons(x, NIL), Var("R")))
        assert self.matcher.select(rules, goal) == ("suspend", [x, p])


class TestHeadMatchingOracle(TestHeadMatching):
    matcher = ORACLE


class TestGuardsOracle(TestGuards):
    matcher = ORACLE


class TestInstantiateOracle(TestInstantiate):
    matcher = ORACLE


class TestArithmeticEqualityOracle(TestArithmeticEquality):
    matcher = ORACLE


class TestEdgeCasesOracle(TestEdgeCases):
    matcher = ORACLE
