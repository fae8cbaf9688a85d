"""Scheduler-half regression tests: deadlock reporting, quiescence and the
drain loop's pause point, and the order the spawn → enqueue → dispatch hot
path runs processes in.

The deadlock report must be *deterministic* (sorted by processor, then
spawn sequence — not by dict iteration order over process ids) and must say
which variables each stuck process is waiting on.  Port auto-close on
service quiescence must fire exactly once per run.  A drain paused on a
reduction floor must resume exactly where it stopped.  A rule body spawned
in one loop must reduce the same processes in the same order as one spawned
goal by goal.
"""

import cProfile
import pstats
from pathlib import Path

import pytest

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import reduce_tree, reliable_reduce_tree
from repro.errors import DeadlockError, StrandError
from repro.machine import FaultPlan
from repro.machine.simulator import Machine
from repro.strand import parse_program, run_query
from repro.strand.engine import StrandEngine, _body_goal
from repro.strand.parser import parse_query, parse_term
from repro.strand.reducer import Reducer
from repro.strand.scheduler import Scheduler
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


SIEVE = parse_program(
    (Path(__file__).resolve().parents[2] / "examples" / "strand" / "sieve.str")
    .read_text(), name="sieve.str")


def per_goal_spawn_body(engine, goals, parent, ready):
    """The reference for ``StrandEngine.spawn_body``: ``spawn`` each goal,
    which queues it and arms the marker through ``Scheduler.push`` and
    ``Scheduler.schedule``, and records its spawn event."""
    for goal in goals:
        engine.spawn(_body_goal(goal, parent), parent.proc, ready, parent.lib,
                     None, parent.motif, True)


class TestHotPathOrder:
    """``StrandEngine.spawn_body`` spawns a committed rule's body in one
    loop with marker arming inlined.  It must issue the same sequence
    numbers in the same order as spawning goal by goal through ``spawn``
    and ``Scheduler.schedule``, so every reduction attempt happens at the
    same time, on the same processor, with the same process sequence
    number; it must classify each process alike (its ``lib`` flag and motif
    tag) and record the same trace.  Tracing must not change the order."""

    @staticmethod
    def attempts(monkeypatch, run, traced, reference):
        log = []
        execute = Reducer.execute

        def logged(self, process, now):
            log.append((now, process.proc, process.seq, process.goal.functor,
                        process.lib, process.motif))
            return execute(self, process, now)

        with monkeypatch.context() as patch:
            patch.setattr(Reducer, "execute", logged)
            if reference:
                patch.setattr(StrandEngine, "spawn_body", per_goal_spawn_body)
            machine = run(traced)
        assert log
        return log, list(machine.trace.events)

    @staticmethod
    def tr1(traced):
        machine = Machine(8, seed=1, trace=traced)
        reduce_tree(arithmetic_tree(96, seed=5), eval_arith_node,
                    machine=machine, strategy="tr1")
        return machine

    @staticmethod
    def sieve(traced):
        machine = Machine(1, trace=traced)
        run_query(SIEVE, "primes(300, Ps)", machine=machine)
        return machine

    @staticmethod
    def reliable(traced):
        machine = Machine(4, seed=1, trace=traced, faults=FaultPlan(
            drop_rate=0.1, duplicate_rate=0.1))
        reliable_reduce_tree(arithmetic_tree(24, seed=3), eval_arith_node,
                             machine=machine)
        return machine

    @pytest.mark.parametrize("name", ["tr1", "sieve", "reliable"])
    def test_body_loop_matches_per_goal_spawn(self, monkeypatch, name):
        run = getattr(self, name)
        untraced, _ = self.attempts(monkeypatch, run, False, False)
        assert self.attempts(monkeypatch, run, False, True)[0] == untraced
        traced, events = self.attempts(monkeypatch, run, True, False)
        assert traced == untraced
        assert any(event.kind == "spawn" for event in events)
        assert self.attempts(monkeypatch, run, True, True) == (traced, events)


class TestHotPathCalls:
    """The untraced, fault-free hot path makes no per-goal Python calls for
    a rule's body: the only ``spawn`` is the query goal's, and only it and
    the woken processes go through ``push`` and ``schedule``.  ``cProfile``
    call counts are exact."""

    def test_body_spawns_and_marker_arming_are_inlined(self):
        machine = Machine(1)
        profiler = cProfile.Profile()
        profiler.enable()
        result = run_query(SIEVE, "primes(200, Ps)", machine=machine)
        profiler.disable()
        assert result.value("Ps")[-1] == 199
        stats = pstats.Stats(profiler).stats

        def calls(fn):
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            return stats[key][1] if key in stats else 0

        wakeups = machine.procs[0].wakeups
        assert calls(StrandEngine.spawn_body) > wakeups > 0
        assert calls(StrandEngine.spawn) == 1
        assert calls(Scheduler.push) == 1 + wakeups
        assert calls(Scheduler.schedule) == 1 + wakeups
