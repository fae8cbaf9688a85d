"""Unit tests for body builtins (assignment, tuples, ports, merge...)."""

import pytest

from repro.errors import StrandError, UnknownProcedureError
from repro.motifs.reliable import reliable_motif, reliable_state
from repro.motifs.supervisor import SUPERVISE_PRIMITIVES
from repro.strand.builtins import BUILTINS
from repro.strand.foreign import ForeignRegistry
from repro.strand.terms import Atom, Struct, deref, iter_list, term_eq
from tests.helpers import run


class TestAssignment:
    def test_structural(self):
        res = run("p(V) :- V := f(1, [2]).", "p(V)")
        from repro.strand.parser import parse_term

        assert term_eq(deref(res["V"]), parse_term("f(1, [2])"))

    def test_arithmetic_rhs_evaluated(self):
        assert deref(run("p(V) :- V := 2 + 3 * 4.", "p(V)")["V"]) == 14

    def test_aliasing_two_unbound(self):
        res = run("p(A, B) :- A := B, B := 9.", "p(A, B)")
        assert deref(res["A"]) == 9

    def test_arith_waits_for_operands(self):
        res = run("p(V) :- V := X + 1, X := 41.", "p(V)")
        assert deref(res["V"]) == 42

    def test_non_arith_struct_not_evaluated(self):
        res = run("p(V) :- V := pair(1 + 1, a).", "p(V)")
        value = deref(res["V"])
        # The outer struct is data; inner arithmetic inside data is also
        # preserved structurally (only top-level arith RHS evaluates).
        assert value.functor == "pair"


class TestTuples:
    def test_make_tuple_and_length(self):
        res = run("p(N) :- make_tuple(5, T), length(T, N).", "p(N)")
        assert deref(res["N"]) == 5

    def test_put_arg_then_arg(self):
        res = run("p(V) :- make_tuple(2, T), put_arg(1, T, hi), arg(1, T, V).", "p(V)")
        assert deref(res["V"]) is Atom("hi")

    def test_put_arg_out_of_range(self):
        with pytest.raises(StrandError):
            run("p :- make_tuple(2, T), put_arg(3, T, x).", "p")

    def test_put_arg_twice_fails(self):
        with pytest.raises(StrandError):
            run("p :- make_tuple(1, T), put_arg(1, T, a), put_arg(1, T, b).", "p")

    def test_length_of_list(self):
        assert deref(run("p(N) :- length([a, b, c], N).", "p(N)")["N"]) == 3

    def test_length_of_literal_tuple(self):
        assert deref(run("p(N) :- length({a, b}, N).", "p(N)")["N"]) == 2

    def test_arg_on_struct(self):
        assert deref(run("p(V) :- arg(2, f(a, b), V).", "p(V)")["V"]) is Atom("b")

    def test_make_tuple_negative(self):
        with pytest.raises(StrandError):
            run("p :- make_tuple(-1, T).", "p")


class TestRandNum:
    def test_in_range(self):
        res = run("p(R) :- rand_num(10, R).", "p(R)", seed=5)
        assert 1 <= deref(res["R"]) <= 10

    def test_deterministic_per_seed(self):
        a = deref(run("p(R) :- rand_num(1000, R).", "p(R)", seed=5)["R"])
        b = deref(run("p(R) :- rand_num(1000, R).", "p(R)", seed=5)["R"])
        c = deref(run("p(R) :- rand_num(1000, R).", "p(R)", seed=6)["R"])
        assert a == b
        assert a != c  # overwhelmingly likely

    def test_bad_bound(self):
        with pytest.raises(StrandError):
            run("p(R) :- rand_num(0, R).", "p(R)")


class TestPorts:
    def test_open_send_close(self):
        src = """
        p(Out) :- open_port(P, S), send_port(P, a), send_port(P, b),
                  close_port(P), collect(S, Out).
        collect([X | Xs], Out) :- Out := [X | Out1], collect(Xs, Out1).
        collect([], Out) :- Out := [].
        """
        res = run(src, "p(Out)")
        items = [deref(x) for x in iter_list(res["Out"])]
        assert items == [Atom("a"), Atom("b")]

    def test_send_after_close_fails(self):
        with pytest.raises(StrandError):
            run("p :- open_port(P, _), close_port(P), send_port(P, x).", "p")

    def test_distribute_routes_by_index(self):
        src = """
        p(Out) :- open_port(P1, S1), open_port(P2, S2),
                  make_tuple(2, DT), put_arg(1, DT, P1), put_arg(2, DT, P2),
                  distribute(2, hello, DT),
                  close_port(P1), close_port(P2),
                  first(S2, Out).
        first([X | _], Out) :- Out := X.
        """
        res = run(src, "p(Out)")
        assert deref(res["Out"]) is Atom("hello")

    def test_distribute_bad_index(self):
        src = """
        p :- open_port(P, _), make_tuple(1, DT), put_arg(1, DT, P),
             distribute(2, x, DT).
        """
        with pytest.raises(StrandError):
            run(src, "p")

    def test_message_can_carry_unbound_vars(self):
        # The backchannel pattern: send a message containing a variable,
        # the receiver binds it.
        src = """
        p(V) :- open_port(P, S), send_port(P, ask(V)), close_port(P), serve(S).
        serve([ask(X) | Xs]) :- X := 42, serve(Xs).
        serve([]).
        """
        assert deref(run(src, "p(V)")["V"]) == 42


class TestMerge:
    def test_merges_all_items(self):
        src = """
        p(N) :- gen(3, A), gen(2, B), merge(A, B, M), count(M, N).
        gen(K, S) :- K > 0 | S := [K | S1], K1 := K - 1, gen(K1, S1).
        gen(0, S) :- S := [].
        count([_ | Xs], N) :- count(Xs, N1), N := N1 + 1.
        count([], N) :- N := 0.
        """
        assert deref(run(src, "p(N)")["N"]) == 5

    def test_forwards_tail_on_nil(self):
        src = """
        p(Out) :- merge([], [a, b], Out).
        """
        res = run(src, "p(Out)")
        items = [deref(x) for x in iter_list(res["Out"])]
        assert items == [Atom("a"), Atom("b")]

    def test_interleaves_incrementally(self):
        # Merge output is consumable before either input closes.
        src = """
        p(First) :- merge(A, B, M), A := [x | A1], first(M, First),
                    A1 := [], B := [].
        first([X | _], Out) :- Out := X.
        """
        assert deref(run(src, "p(F)")["F"]) is Atom("x")


class TestInstrumentation:
    def test_value_counters(self):
        src = """
        p :- note_value_produced, note_value_produced, note_value_consumed.
        """
        res = run(src, "p")
        procs = res.engine.machine.procs
        assert procs[0].peak_live_values == 2
        assert procs[0].live_values == 1


class TestMotifPrimitivesLiveInTheirMotif:
    """The Reliable and Supervise primitives are not builtins: each motif
    registers them as raw foreign procedures through its foreign setup."""

    def test_builtins_hold_no_motif_primitives(self):
        assert not [name for name, _ in BUILTINS if name.startswith("rel_")]
        assert not set(SUPERVISE_PRIMITIVES) & set(BUILTINS)

    def test_rel_seq_without_the_motif_registry_is_unknown(self):
        with pytest.raises(UnknownProcedureError):
            run("p(T) :- rel_seq(2, T).", "p(T)")

    def test_rel_seq_with_the_motif_registry(self):
        registry = ForeignRegistry()
        reliable_motif().foreign_setup(registry)
        res = run("p(A, B) :- rel_seq(2, A), rel_seq(2, B).", "p(A, B)",
                  foreign=registry)
        assert term_eq(deref(res["B"]), Struct("sid", (1, 2, 2)))
        assert reliable_state(res.engine).next_seq == {(1, 2): 2}
