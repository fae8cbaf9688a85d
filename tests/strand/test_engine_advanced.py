"""Advanced engine behaviour: quiescence, services, placement edge cases,
cross-processor interactions, and failure injection."""

import pytest

from repro.errors import DeadlockError, DoubleAssignmentError, StrandError
from repro.machine import Machine
from repro.strand import parse_program, run_query
from repro.strand.engine import StrandEngine
from repro.strand.terms import Atom, deref


class TestQuiescence:
    SERVER = """
    go(Out) :- open_port(P, S), feed(3, P), loop(S, 0, Out).
    feed(N, P) :- N > 0 | send_port(P, item), N1 := N - 1, feed(N1, P).
    feed(0, _).
    loop([item | In], Acc, Out) :- Acc1 := Acc + 1, loop(In, Acc1, Out).
    loop([], Acc, Out) :- Out := Acc.
    """

    def test_service_quiescence_closes_ports(self):
        program = parse_program(self.SERVER)
        result = run_query(program, "go(Out)", machine=Machine(1),
                           services=[("loop", 3)])
        assert deref(result.bindings["Out"]) == 3
        assert result.engine._ports_closed

    def test_without_service_declaration_deadlocks(self):
        program = parse_program(self.SERVER)
        with pytest.raises(DeadlockError):
            run_query(program, "go(Out)", machine=Machine(1))

    def test_non_service_suspension_still_deadlocks(self):
        # A stuck non-service process prevents the port-close shortcut.
        program = parse_program(self.SERVER + "\nstuck(X) :- X > 0 | t.\nt.")
        with pytest.raises(DeadlockError):
            run_query(program, "go(Out), stuck(Y)", machine=Machine(1),
                      services=[("loop", 3)])


class TestPlacementEdges:
    def test_placement_waits_for_processor_expression(self):
        src = """
        go :- work @ Where, Where := 2.
        work.
        """
        result = run_query(parse_program(src), "go", machine=Machine(2))
        assert result.metrics.busy[1] > 0

    def test_chained_placement_uses_innermost_goal(self):
        src = "go :- work @ 1 @ 2.\nwork."
        result = run_query(parse_program(src), "go", machine=Machine(2))
        assert result.metrics.reductions > 0

    def test_zero_arity_goal_placement(self):
        src = "go :- halted @ 2.\nhalted."
        result = run_query(parse_program(src), "go", machine=Machine(2))
        assert result.metrics.busy[1] > 0


class TestCrossProcessor:
    def test_remote_double_assignment_detected(self):
        src = """
        go :- both(X), X := 1.
        both(X) :- assign_remote(X) @ 2.
        assign_remote(X) :- X := 2.
        """
        with pytest.raises(DoubleAssignmentError):
            run_query(parse_program(src), "go", machine=Machine(2))

    def test_hops_accumulate_on_ring(self):
        src = "go :- work @ 3.\nwork."
        machine = Machine(4, topology="ring")
        result = run_query(parse_program(src), "go", machine=machine)
        assert result.metrics.hops == 2  # 1 -> 3 on a 4-ring

    def test_port_send_counts_by_owner(self):
        src = """
        go(Out) :- open_remote(P), send_port(P, x), send_port(P, y), Out := sent.
        open_remote(P) :- mk(P) @ 2.
        mk(P) :- open_port(P, S), drain(S).
        drain([_ | In]) :- drain(In).
        drain([]).
        """
        machine = Machine(2)
        result = run_query(parse_program(src), "go(Out)", machine=machine,
                           services=[("drain", 1)])
        # Two sends from proc 1 to the port owned by proc 2.
        assert result.metrics.sends >= 2


class TestEngineAPI:
    def test_spawn_rejects_non_goal(self):
        engine = StrandEngine(parse_program("p."))
        with pytest.raises(StrandError):
            engine.spawn(42)

    def test_spawn_accepts_atom(self):
        engine = StrandEngine(parse_program("p."))
        engine.spawn(Atom("p"))
        engine.run()

    def test_output_and_bindings_roundtrip(self):
        program = parse_program('p(X) :- X := done, write("side effect").')
        result = run_query(program, "p(X)")
        assert result.output == ['"side effect"']
        assert result["X"] is Atom("done")
        assert result.value("X") is Atom("done")

    def test_run_twice_is_safe(self):
        # A second run() finds no work and returns the same metrics.
        engine = StrandEngine(parse_program("p."))
        engine.spawn(Atom("p"))
        first = engine.run()
        second = engine.run()
        assert first.reductions == second.reductions

    def test_watched_not_in_program_is_harmless(self):
        program = parse_program("p.")
        result = run_query(program, "p", watched=[("ghost", 9)])
        assert result.metrics.max_peak_live_tasks == 0


class TestGuardsAdvanced:
    def test_otherwise_guard(self):
        src = """
        classify(N, C) :- N > 10 | C := big.
        classify(_, C) :- otherwise | C := small.
        """
        assert deref(run_query(parse_program(src), "classify(50, C)")["C"]) is Atom("big")
        assert deref(run_query(parse_program(src), "classify(3, C)")["C"]) is Atom("small")

    def test_guard_on_deep_structure(self):
        src = "p(f(N), Out) :- N > 0 | Out := pos.\np(f(N), Out) :- N =< 0 | Out := neg."
        assert deref(run_query(parse_program(src), "p(f(4), Out)")["Out"]) is Atom("pos")

    def test_multiple_rules_suspend_then_resolve(self):
        src = """
        go(Out) :- pick(X, Out), X := 7.
        pick(X, Out) :- X > 5 | Out := high.
        pick(X, Out) :- X =< 5 | Out := low.
        """
        assert deref(run_query(parse_program(src), "go(Out)")["Out"]) is Atom("high")


class TestMergeNetworkStress:
    def test_many_producers_through_merge_chain(self):
        src = """
        go(Total) :-
            gen(5, A), gen(7, B), gen(3, C),
            merge(A, B, AB), merge(AB, C, All),
            count(All, 0, Total).
        gen(N, S) :- N > 0 | S := [N | S1], N1 := N - 1, gen(N1, S1).
        gen(0, S) :- S := [].
        count([_ | Xs], Acc, T) :- Acc1 := Acc + 1, count(Xs, Acc1, T).
        count([], Acc, T) :- T := Acc.
        """
        result = run_query(parse_program(src), "go(Total)")
        assert deref(result.bindings["Total"]) == 15

    def test_merge_chain_cross_processor(self):
        src = """
        go(Total) :-
            produce(4, A) @ 2,
            produce(4, B) @ 3,
            merge(A, B, All),
            count(All, 0, Total).
        produce(N, S) :- N > 0 | S := [N | S1], N1 := N - 1, produce(N1, S1).
        produce(0, S) :- S := [].
        count([_ | Xs], Acc, T) :- Acc1 := Acc + 1, count(Xs, Acc1, T).
        count([], Acc, T) :- T := Acc.
        """
        result = run_query(parse_program(src), "go(Total)", machine=Machine(3))
        assert deref(result.bindings["Total"]) == 8
