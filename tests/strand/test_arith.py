"""Unit tests for dataflow arithmetic."""

import pytest
from hypothesis import given, strategies as st

from repro.strand.arith import ArithFail, Suspend, eval_arith, is_arith_expr
from repro.strand.parser import parse_term
from repro.strand.terms import Atom, Struct, Var


class TestEval:
    def test_constants(self):
        assert eval_arith(5) == 5
        assert eval_arith(2.5) == 2.5

    def test_operators(self):
        assert eval_arith(parse_term("1 + 2 * 3")) == 7
        assert eval_arith(parse_term("10 - 4")) == 6
        assert eval_arith(parse_term("7 // 2")) == 3
        assert eval_arith(parse_term("7 / 2")) == 3.5
        assert eval_arith(parse_term("7 mod 3")) == 1
        assert eval_arith(parse_term("-(5)")) == -5

    def test_functions(self):
        assert eval_arith(Struct("abs", (-3,))) == 3
        assert eval_arith(Struct("min", (3, 5))) == 3
        assert eval_arith(Struct("max", (3, 5))) == 5
        assert eval_arith(Struct("truncate", (3.7,))) == 3

    def test_through_bound_vars(self):
        x = Var("X")
        x.bind(4)
        assert eval_arith(Struct("+", (x, 1))) == 5

    def test_suspend_on_unbound(self):
        x = Var("X")
        with pytest.raises(Suspend) as err:
            eval_arith(Struct("+", (x, 1)))
        assert err.value.variables == [x]

    def test_suspend_message_names_the_variables(self):
        assert str(Suspend([Var("X")])) == "suspended on ['X']"

    def test_suspend_collects_all_blockers(self):
        x, y = Var("X"), Var("Y")
        with pytest.raises(Suspend) as err:
            eval_arith(Struct("+", (x, y)))
        assert set(err.value.variables) == {x, y}

    def test_atom_operand_fails(self):
        with pytest.raises(ArithFail):
            eval_arith(Struct("+", (Atom("a"), 1)))

    def test_string_operand_fails(self):
        with pytest.raises(ArithFail):
            eval_arith("abc")

    def test_unknown_operator_fails(self):
        with pytest.raises(ArithFail):
            eval_arith(Struct("frob", (1, 2)))

    def test_division_by_zero(self):
        with pytest.raises(ArithFail):
            eval_arith(parse_term("1 / 0"))
        with pytest.raises(ArithFail):
            eval_arith(parse_term("1 // 0"))
        with pytest.raises(ArithFail):
            eval_arith(parse_term("1 mod 0"))


class TestIsArithExpr:
    def test_yes(self):
        assert is_arith_expr(parse_term("1 + 2"))
        assert is_arith_expr(parse_term("X mod Y"))

    def test_no(self):
        assert not is_arith_expr(parse_term("f(1, 2)"))
        assert not is_arith_expr(parse_term("[1, 2]"))
        assert not is_arith_expr(5)
        assert not is_arith_expr(Atom("a"))


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_addition_matches_python(a, b):
    assert eval_arith(Struct("+", (a, b))) == a + b


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_divmod_identity(a, b):
    q = eval_arith(Struct("//", (a, b)))
    r = eval_arith(Struct("mod", (a, b)))
    assert q * b + r == a
    assert 0 <= r < b
