"""Unit tests for one-way head matching and guard evaluation.

Each class runs its cases on the compiled path the runtime executes; its
``…Oracle`` subclass runs the same cases on the reference matcher.
"""

from repro.strand.parser import parse_rule, parse_term
from repro.strand.terms import Atom, Struct, Var, deref
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


class TestHeadMatchingOracle(TestHeadMatching):
    matcher = ORACLE


class TestGuardsOracle(TestGuards):
    matcher = ORACLE


class TestInstantiateOracle(TestInstantiate):
    matcher = ORACLE


class TestArithmeticEqualityOracle(TestArithmeticEquality):
    matcher = ORACLE
