"""Deep-term stress tests: the term walkers must not recurse.

The seed implementations of ``rename_term``, ``instantiate``, and the
head-match walkers recursed down list spines, so a 100k-element list blew
the interpreter's recursion limit.  These tests pin the iterative rewrites
end to end: every walker that touches user terms has to survive a list far
deeper than any recursion limit.  The match and instantiate cases run on
the compiled path the runtime uses (rule selection and body builders); their
``…Oracle`` subclasses run them on the reference matcher as well.
"""

import pytest

from repro.strand.compile import compile_program
from repro.strand.foreign import to_python
from repro.strand.program import Program, Rule, rule_key
from repro.strand.terms import (
    Cons,
    NIL,
    Struct,
    Var,
    copy_term,
    deref,
    make_list,
    rename_term,
    term_eq,
)
from tests.strand.matchers import COMPILED, ORACLE
from tests.strand.reference_match import MatchResult

DEEP = 100_000
#: Length of the ground run before a variable in a ``[1, …, RUN, X | T]``
#: pattern, which selection matches with one ``_mr`` call.
RUN = 5_000


def deep_list(n: int = DEEP, tail=NIL) -> Cons:
    term = tail
    for i in range(n, 0, -1):
        term = Cons(i, term)
    return term


def compiled_select(head: Struct, goal_args: tuple, blocked: list):
    """Select among the one-rule procedure ``head.`` as the runtime does;
    the variables it waits on are appended to ``blocked``."""
    program = compile_program(Program([Rule(head)]))
    return program.procedure(head.indicator).select(goal_args, blocked)


class TestDeepRename:
    def test_rename_deep_list(self):
        big = deep_list()
        out = rename_term(big)
        assert term_eq(out, big)

    def test_rename_shares_variables_at_depth(self):
        shared = Var("X")
        big = Cons(shared, deep_list(DEEP, tail=Cons(shared, NIL)))
        mapping = {}
        out = rename_term(big, mapping)
        assert deref(out.head) is deref(mapping[id(shared)])
        spine = out
        while type(deref(spine.tail)) is Cons:
            spine = deref(spine.tail)
        assert deref(spine.head) is deref(mapping[id(shared)])

    def test_copy_term_mixed_depth(self):
        term = deep_list(DEEP // 2, tail=Struct("t", (Var("Y"), deep_list(10))))
        out = copy_term(term, lambda v: Var(v.name))
        assert term_eq(out, term) is False  # fresh var != original var
        assert to_python(deep_list(10)) == list(range(1, 11))


class _DeepMatchCases:
    def test_match_head_deep_ground_list(self):
        big = deep_list()
        head = Struct("p", (Var("Xs"),))
        result = self.matcher.match(head, Struct("p", (big,)))
        assert result.status == MatchResult.MATCHED

    def test_match_head_nonlinear_deep(self):
        # A repeated head variable forces the ground-equality walker over
        # the full depth of both lists.
        big = deep_list()
        x = Var("X")
        head = Struct("p", (x, x))
        result = self.matcher.match(head, Struct("p", (big, deep_list())))
        assert result.status == MatchResult.MATCHED

    def test_match_head_deep_mismatch(self):
        pattern_list = deep_list(DEEP, tail=Cons(Struct("end", (1,)), NIL))
        call_list = deep_list(DEEP, tail=Cons(Struct("end", (2,)), NIL))
        head = Struct("p", (pattern_list,))
        result = self.matcher.match(head, Struct("p", (call_list,)))
        assert result.status == MatchResult.FAILED

    def test_match_head_deep_suspend(self):
        hole = Var("Hole")
        call_list = deep_list(DEEP, tail=Cons(hole, NIL))
        pattern = deep_list(DEEP, tail=Cons(Struct("end", ()), NIL))
        head = Struct("p", (pattern,))
        result = self.matcher.match(head, Struct("p", (call_list,)))
        assert result.status == MatchResult.SUSPENDED
        assert deref(result.blocked[0]) is hole

    def test_match_head_long_ground_run(self):
        x, t = Var("X"), Var("T")
        head = Struct("p", (deep_list(RUN, tail=Cons(x, t)),))
        result = self.matcher.match(head, Struct("p", (deep_list(RUN + 2),)))
        assert result.status == MatchResult.MATCHED
        assert result.env[id(x)] == RUN + 1
        assert to_python(result.env[id(t)]) == [RUN + 2]

        for call in (deep_list(RUN), deep_list(RUN - 1, tail=Cons(0, Var()))):
            result = self.matcher.match(head, Struct("p", (call,)))
            assert result.status == MatchResult.FAILED

        for length in (RUN // 2, RUN):
            hole = Var("Hole")
            call = deep_list(length, tail=hole)
            result = self.matcher.match(head, Struct("p", (call,)))
            assert result.status == MatchResult.SUSPENDED
            assert [deref(v) for v in result.blocked] == [hole]


class TestDeepMatch(_DeepMatchCases):
    matcher = COMPILED

    def test_long_ground_run_is_one_match_run_call(self):
        head = Struct("p", (deep_list(RUN, tail=Cons(Var("X"), Var("T"))),))
        program = compile_program(Program([Rule(head)]))
        assert "_mr(" in program.procedure(head.indicator).source

    def test_select_nonlinear_deep(self):
        x = Var("X")
        assert compiled_select(Struct("p", (x, x)), (deep_list(), deep_list()), [])

    def test_select_deep_mismatch(self):
        pattern_list = deep_list(DEEP, tail=Cons(Struct("end", (1,)), NIL))
        call_list = deep_list(DEEP, tail=Cons(Struct("end", (2,)), NIL))
        blocked = []
        assert compiled_select(Struct("p", (pattern_list,)), (call_list,), blocked) is None
        assert blocked == []

    def test_select_deep_suspend(self):
        hole = Var("Hole")
        call_list = deep_list(DEEP, tail=Cons(hole, NIL))
        pattern = deep_list(DEEP, tail=Cons(Struct("end", ()), NIL))
        blocked = []
        assert compiled_select(Struct("p", (pattern,)), (call_list,), blocked) is None
        assert deref(blocked[0]) is hole


class TestDeepMatchOracle(_DeepMatchCases):
    matcher = ORACLE


class TestDeepInstantiate:
    matcher = COMPILED

    def test_instantiate_deep_body(self):
        xs = Var("Xs")
        env = {id(xs): deep_list()}
        body = Struct("consume", (xs, Var("Out")))
        out = self.matcher.instantiate(body, env, {})
        assert to_python(deref(out.args[0]))[:3] == [1, 2, 3]

    def test_instantiate_fresh_at_depth(self):
        tail_var = Var("T")
        body = deep_list(DEEP, tail=tail_var)
        fresh: dict = {}
        out = self.matcher.instantiate(body, {}, fresh)
        assert id(tail_var) in fresh
        assert len(fresh) == 1


class TestDeepInstantiateOracle(TestDeepInstantiate):
    matcher = ORACLE


class TestDeepConversions:
    def test_list_to_python_deep(self):
        values = to_python(deep_list())
        assert len(values) == DEEP
        assert values[0] == 1 and values[-1] == DEEP

    def test_make_list_round_trip(self):
        data = list(range(DEEP))
        assert to_python(make_list(data)) == data

    def test_to_python_struct_with_deep_list(self):
        # Structure arguments keep their term form; a long list argument
        # is ground-checked without recursing down its tail.
        out = to_python(Struct("f", (deep_list(),)))
        assert out.functor == "f"
        assert term_eq(out.args[0], deep_list())

    def test_rule_key_of_deep_literal_list(self):
        x = Var("X")
        rule = Rule(Struct("go", (x,)), body=[Struct(":=", (x, deep_list()))])
        assert rule_key(rule.rename()) == rule_key(rule)
        other = Rule(Struct("go", (x,)),
                     body=[Struct(":=", (x, deep_list(DEEP, tail=Cons(0, NIL))))])
        assert rule_key(other) != rule_key(rule)


class TestDeepEndToEnd:
    def test_deep_stream_through_engine(self):
        # A producer/consumer pipeline threading a 20k-element stream
        # through spawn, match, instantiate, and bind on every element.
        from tests.helpers import run

        n = 20_000
        src = """
        go(N, Out) :- produce(N, Xs), total(Xs, 0, Out).
        produce(0, Xs) :- Xs := [].
        produce(N, Xs) :- N > 0 |
            Xs := [N | Rest], N1 := N - 1, produce(N1, Rest).
        total([], Acc, Out) :- Out := Acc.
        total([X | Xs], Acc, Out) :- Acc1 := Acc + X, total(Xs, Acc1, Out).
        """
        result = run(src, f"go({n}, Out)", max_reductions=500_000)
        assert result.value("Out") == n * (n + 1) // 2

    def test_long_list_literal_in_body(self):
        # A list literal longer than the recursion limit, ending in a head
        # variable, compiled and built by the body builder.
        from tests.helpers import run

        elements = ", ".join(str(i) for i in range(3000))
        result = run(f"p(X, L) :- L := [{elements}, X].", "p(7, L)")
        assert result.value("L") == list(range(3000)) + [7]

    def test_deep_reduce_tree(self):
        # End-to-end motif run on a maximally unbalanced tree: rename_term
        # and instantiate walk the remaining left spine on every reduction.
        from repro.apps.trees import sequential_reduce, skewed_tree
        from repro.core.api import reduce_tree

        tree = skewed_tree(300, lambda rng: "add", lambda rng: rng.randint(1, 9))
        expected = sequential_reduce(tree, lambda op, lv, rv: lv + rv)
        result = reduce_tree(
            tree, "eval(add, L, R, V) :- V := L + R.",
            processors=4, strategy="tr1", seed=3,
        )
        assert result.value == expected


@pytest.mark.parametrize("depth", [10, 1000, DEEP])
def test_rename_depth_sweep(depth):
    assert term_eq(rename_term(deep_list(depth)), deep_list(depth))
