"""Unit tests for the term layer."""

import pickle

import pytest

from repro.errors import DoubleAssignmentError
from repro.strand.terms import (
    Atom,
    Cons,
    NIL,
    Struct,
    Tup,
    Var,
    deref,
    iter_list,
    make_list,
    rename_term,
    term_eq,
    term_vars,
)


class TestVar:
    def test_fresh_variable_is_unbound(self):
        v = Var("X")
        assert not v.is_bound
        assert v.name == "X"

    def test_bind_sets_value(self):
        v = Var("X")
        v.bind(42)
        assert v.is_bound
        assert deref(v) == 42

    def test_double_bind_raises(self):
        v = Var("X")
        v.bind(1)
        with pytest.raises(DoubleAssignmentError):
            v.bind(2)

    def test_bind_to_self_raises(self):
        v = Var("X")
        with pytest.raises(DoubleAssignmentError):
            v.bind(v)

    def test_auto_names_are_unique(self):
        assert Var().name != Var().name

    def test_pickle_round_trip(self):
        unbound, to_none, to_struct = Var("U"), Var("N"), Var("S")
        to_none.bind(None)
        to_struct.bind(Struct("f", (1, Atom("a"))))
        unbound.waiters = ["suspended process"]
        copies = pickle.loads(pickle.dumps([unbound, to_none, to_struct]))
        assert [v.name for v in copies] == ["U", "N", "S"]
        assert not copies[0].is_bound
        assert copies[0].waiters is None  # scheduler state stays behind
        assert copies[1].is_bound and deref(copies[1]) is None
        assert term_eq(deref(copies[2]), Struct("f", (1, Atom("a"))))
        assert unbound.__getstate__() == ("U", None)


class TestAtom:
    def test_interning(self):
        assert Atom("foo") is Atom("foo")

    def test_distinct_names_distinct_atoms(self):
        assert Atom("foo") is not Atom("bar")

    def test_atom_not_equal_to_string(self):
        assert Atom("foo") != "foo"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Atom("foo").name = "bar"

    def test_nil_is_the_empty_list_atom(self):
        assert NIL is Atom("[]")


class TestDeref:
    def test_follows_chain(self):
        a, b = Var("A"), Var("B")
        a.bind(b)
        b.bind(7)
        assert deref(a) == 7

    def test_unbound_returns_var(self):
        v = Var("X")
        assert deref(v) is v

    def test_non_var_passthrough(self):
        assert deref(5) == 5
        assert deref("s") == "s"


class TestLists:
    def test_make_and_iterate(self):
        lst = make_list([1, 2, 3])
        assert list(iter_list(lst)) == [1, 2, 3]

    def test_make_list_empty(self):
        assert make_list([]) is NIL

    def test_improper_list_raises(self):
        improper = Cons(1, 2)
        with pytest.raises(ValueError):
            list(iter_list(improper))

    def test_open_list_raises(self):
        open_list = Cons(1, Var("T"))
        with pytest.raises(ValueError):
            list(iter_list(open_list))


class TestTermEq:
    def test_constants(self):
        assert term_eq(1, 1)
        assert term_eq(1, 1.0)
        assert not term_eq(1, 2)
        assert term_eq("a", "a")
        assert not term_eq("a", Atom("a"))

    def test_structs(self):
        a = Struct("f", (1, Atom("x")))
        b = Struct("f", (1, Atom("x")))
        assert term_eq(a, b)
        assert not term_eq(a, Struct("f", (1, Atom("y"))))
        assert not term_eq(a, Struct("g", (1, Atom("x"))))
        assert not term_eq(a, Struct("f", (1,)))

    def test_through_bound_vars(self):
        v = Var("X")
        v.bind(Struct("f", (1,)))
        assert term_eq(v, Struct("f", (1,)))

    def test_distinct_unbound_vars_unequal(self):
        assert not term_eq(Var("X"), Var("Y"))

    def test_same_unbound_var_equal(self):
        v = Var("X")
        assert term_eq(v, v)

    def test_tuples_and_lists(self):
        assert term_eq(Tup([1, 2]), Tup([1, 2]))
        assert not term_eq(Tup([1]), Tup([1, 2]))
        assert term_eq(make_list([1, 2]), make_list([1, 2]))
        assert not term_eq(make_list([1, 2]), make_list([2, 1]))


class TestTermVars:
    def test_collects_in_first_occurrence_order(self):
        x, y = Var("X"), Var("Y")
        t = Struct("f", (x, Struct("g", (y, x))))
        assert term_vars(t) == [x, y]

    def test_skips_bound(self):
        x = Var("X")
        x.bind(1)
        assert term_vars(Struct("f", (x,))) == []

    def test_list_tails(self):
        t = Var("T")
        assert term_vars(Cons(1, t)) == [t]


class TestRename:
    def test_rename_preserves_structure(self):
        x = Var("X")
        t = Struct("f", (x, x, 3))
        r = rename_term(t)
        assert r.functor == "f"
        assert r.args[2] == 3
        assert r.args[0] is r.args[1]  # sharing preserved
        assert r.args[0] is not x  # but fresh

    def test_shared_mapping_across_terms(self):
        x = Var("X")
        mapping = {}
        a = rename_term(Struct("f", (x,)), mapping)
        b = rename_term(Struct("g", (x,)), mapping)
        assert a.args[0] is b.args[0]

    def test_bound_vars_flattened(self):
        x = Var("X")
        x.bind(Struct("h", ()))
        r = rename_term(Struct("f", (x,)))
        assert term_eq(r, Struct("f", (Struct("h", ()),)))
