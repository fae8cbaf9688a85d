"""Scheduler-half regression tests: deadlock reporting, quiescence and the
drain loop's pause point.

The deadlock report must be *deterministic* (sorted by processor, then
spawn sequence — not by dict iteration order over process ids) and must say
which variables each stuck process is waiting on.  Port auto-close on
service quiescence must fire exactly once per run.  A drain paused on a
reduction floor must resume exactly where it stopped.
"""

import pytest

from repro.errors import DeadlockError, StrandError
from repro.machine.simulator import Machine
from repro.strand import parse_program, run_query
from repro.strand.engine import StrandEngine
from repro.strand.parser import parse_query, parse_term
from repro.strand.terms import deref

WAIT = "wait(X, Out) :- known(X) | Out := done.\n"


class TestDeadlockReport:
    def test_message_names_blocked_variables(self):
        program = parse_program(WAIT)
        with pytest.raises(DeadlockError) as err:
            run_query(program, "wait(Input, Out)")
        message = str(err.value)
        assert "wait(Input, Out)" in message
        assert "[waiting on Input]" in message

    def test_processes_sorted_by_processor_then_sequence(self):
        # Spawn on processor 2 *first* (lower sequence number): the report
        # must still list p1 before p2.
        program = parse_program(WAIT)
        engine = StrandEngine(program, machine=Machine(2))
        engine.spawn(parse_term("wait(B, Out1)"), proc=2)
        engine.spawn(parse_term("wait(A, Out2)"), proc=1)
        with pytest.raises(DeadlockError) as err:
            engine.run()
        message = str(err.value)
        assert message.index("p1: wait(A") < message.index("p2: wait(B")

    def test_report_is_stable_across_runs(self):
        program = parse_program(WAIT)
        query = "wait(A, O1), wait(B, O2), wait(C, O3)"
        messages = []
        for _ in range(2):
            with pytest.raises(DeadlockError) as err:
                run_query(program, query, machine=Machine(2))
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        # All three suspensions listed, in spawn order.
        a, b, c = (messages[0].index(f"wait({v}") for v in "ABC")
        assert a < b < c

    def test_long_reports_truncate_with_count(self):
        program = parse_program(WAIT)
        engine = StrandEngine(program, machine=Machine(1))
        for i in range(15):
            engine.spawn(parse_term(f"wait(V{i}, Out{i})"), proc=1)
        with pytest.raises(DeadlockError) as err:
            engine.run()
        message = str(err.value)
        assert "15 suspended" in message
        assert "... and 3 more" in message


class TestQuiescenceCounter:
    SERVER = """
    go(Out) :- open_port(P, S), feed(3, P), loop(S, 0, Out).
    feed(N, P) :- N > 0 | send_port(P, item), N1 := N - 1, feed(N1, P).
    feed(0, _).
    loop([item | In], Acc, Out) :- Acc1 := Acc + 1, loop(In, Acc1, Out).
    loop([], Acc, Out) :- Out := Acc.
    """

    def test_auto_close_fires_exactly_once(self):
        program = parse_program(self.SERVER)
        result = run_query(program, "go(Out)", machine=Machine(1),
                           services=[("loop", 3)])
        assert result["Out"] == 3
        assert result.engine._ports_closed

    def test_no_quiesce_when_streams_terminate_naturally(self):
        src = """
        go(Out) :- open_port(P, S), produce(2, P), consume(S, 0, Out).
        produce(N, P) :- N > 0 | send_port(P, x), N1 := N - 1, produce(N1, P).
        produce(0, P) :- close_port(P).
        consume([x | In], Acc, Out) :- Acc1 := Acc + 1, consume(In, Acc1, Out).
        consume([], Acc, Out) :- Out := Acc.
        """
        result = run_query(parse_program(src), "go(Out)", machine=Machine(1))
        assert result["Out"] == 2
        assert not result.engine._ports_closed

    @pytest.mark.parametrize(
        "abandon, services_only, open_ports, closed, action", [
            (False, True, True, False, "close"),
            (False, True, False, False, None),
            (False, False, True, False, None),
            (False, True, True, True, None),
            (True, False, True, False, "close"),
            (True, False, False, False, "abandon"),
            (True, True, True, True, "abandon"),
        ])
    def test_quiesce_action(self, abandon, services_only, open_ports,
                            closed, action):
        # The one decision both backends take at global quiescence.
        engine = StrandEngine(parse_program("p."), abandon_stragglers=abandon)
        engine._ports_closed = closed
        assert engine.quiesce_action(services_only, open_ports) == action

    @pytest.mark.parametrize("abandon, second", [(False, None),
                                                 (True, "abandon")])
    def test_quiesce_action_records_its_close(self, abandon, second):
        # Only services suspended, ports open: the decision closes once.
        engine = StrandEngine(parse_program("p."), abandon_stragglers=abandon)
        assert engine.quiesce_action(True, True) == "close"
        assert engine._ports_closed
        assert engine.quiesce_action(True, True) == second

    def test_undeclared_service_deadlock_lists_the_loop(self):
        program = parse_program(self.SERVER)
        with pytest.raises(DeadlockError) as err:
            run_query(program, "go(Out)", machine=Machine(1))
        # The stuck service and its stream variable are reported.
        assert "loop(" in str(err.value)
        assert "waiting on" in str(err.value)


class TestPausePoint:
    """``drain(..., floor=F)`` stops before the attempt that would take the
    reduction budget below ``F``; the next drain carries on as if the loop
    had never stopped."""

    PIPE = """
    go(N, Out) :- gen(N, Xs) @ 2, total(Xs, 0, Out) @ 3.
    gen(0, Xs) :- Xs := [].
    gen(N, Xs) :- N > 0 | Xs := [N | Xs1], N1 := N - 1, gen(N1, Xs1).
    total([], Acc, Out) :- Out := Acc.
    total([X | Xs], Acc, Out) :- Acc1 := Acc + X, total(Xs, Acc1, Out).
    """

    def engine(self, **options):
        engine = StrandEngine(parse_program(self.PIPE),
                              machine=Machine(3, trace=True), **options)
        goals, varmap = parse_query("go(40, Out)")
        for goal in goals:
            engine.spawn(goal, proc=1, ready=0.0)
        return engine, varmap

    def test_sliced_drain_replays_uninterrupted_run(self):
        whole, whole_vars = self.engine()
        whole.run()

        sliced, sliced_vars = self.engine()
        scheduler = sliced.scheduler
        pauses = []
        while True:
            before = scheduler.reduction_budget
            floor = max(0, before - 37)
            paused_at = scheduler.drain(sliced.reducer.execute, None, floor)
            if paused_at is None:
                break
            assert scheduler.reduction_budget == floor
            pauses.append(paused_at)

        assert len(pauses) > 3
        assert deref(sliced_vars["Out"]) == deref(whole_vars["Out"]) == 820
        assert sliced.machine.metrics() == whole.machine.metrics()
        assert ([(e.time, e.proc, e.kind, e.eid, e.cause)
                 for e in sliced.machine.trace.events]
                == [(e.time, e.proc, e.kind, e.eid, e.cause)
                    for e in whole.machine.trace.events])

    def test_exhaustion_still_raises_under_a_floor(self):
        engine, _ = self.engine(max_reductions=50)
        scheduler = engine.scheduler
        assert scheduler.drain(engine.reducer.execute, None, 20) is not None
        assert scheduler.reduction_budget == 20
        with pytest.raises(StrandError,
                           match="reduction budget of 50 exhausted"):
            scheduler.drain(engine.reducer.execute, None, 0)
