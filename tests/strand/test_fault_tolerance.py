"""Injected processor crashes at the runtime layer: abandoned and orphaned
processes, deterministic deadlock reports, quiescence after a crash, and
byte-identical same-seed failure runs."""

import pytest

from repro.errors import DeadlockError
from repro.machine import FaultPlan, Machine
from repro.strand import parse_program
from repro.strand.engine import StrandEngine
from repro.strand.terms import Struct, Var, deref


PRODUCER_CONSUMER = """
consume(X, Out) :- known(X) | Out := X.
produce(Go, X) :- known(Go) | X := 1.
"""


def run_crashed_producer():
    """Consumer on p2 waits for X; producer on p3 would bind it but is
    itself suspended when p3 crashes.  Returns the DeadlockError."""
    program = parse_program(PRODUCER_CONSUMER)
    machine = Machine(4, seed=5, faults=FaultPlan(crash={3: 10.0}))
    engine = StrandEngine(program, machine=machine)
    go, x, out = Var("Go"), Var("X"), Var("Out")
    engine.spawn(Struct("consume", (x, out)), proc=2)
    engine.spawn(Struct("produce", (go, x)), proc=3)
    with pytest.raises(DeadlockError) as excinfo:
        engine.run()
    return engine, excinfo.value


class TestCrashSemantics:
    def test_suspensions_on_crashed_processor_become_orphans(self):
        engine, _ = run_crashed_producer()
        assert engine.machine.fault_stats.crashes == 1
        assert engine.machine.fault_stats.orphaned_suspensions == 1
        assert len(engine.scheduler.orphans) == 1
        assert engine.scheduler.orphans[0].goal.functor == "produce"
        assert not engine.machine.proc(3).alive
        assert engine.machine.proc(3).crashed_at == 10.0

    def test_deadlock_report_names_survivors_and_orphans(self):
        _, err = run_crashed_producer()
        message = str(err)
        assert "1 suspended process(es)" in message
        assert "p2: consume(" in message
        assert "orphaned by crashed processor(s)" in message
        assert "p3: produce(" in message

    def test_deadlock_report_is_deterministic(self):
        _, first = run_crashed_producer()
        _, second = run_crashed_producer()
        assert str(first) == str(second)

    def test_runnable_work_on_crashed_processor_is_abandoned(self):
        # An infinite spinner on p3 stops producing reductions at the crash.
        program = parse_program("spin(N) :- N1 := N + 1, spin(N1).\nidle.")
        machine = Machine(4, seed=0, faults=FaultPlan(crash={3: 25.0}))
        engine = StrandEngine(program, machine=machine)
        engine.spawn(Struct("spin", (0,)), proc=3)
        metrics = engine.run()
        assert metrics.crashes == 1
        assert machine.fault_stats.processes_abandoned >= 1
        assert machine.proc(3).clock <= 25.0 + 1.0

    def test_migration_requeues_runnable_work(self):
        program = parse_program("work(Out) :- Out := done.")
        machine = Machine(
            4, seed=0, faults=FaultPlan(crash={3: 5.0}, migrate=True)
        )
        engine = StrandEngine(program, machine=machine)
        out = Var("Out")
        # Ready far after the crash: still runnable at kill time, migrated.
        engine.spawn(Struct("work", (out,)), proc=3, ready=50.0)
        engine.run()
        assert str(deref(out)) == "done"
        assert machine.fault_stats.processes_migrated == 1
        assert machine.fault_stats.processes_abandoned == 0

    def test_spawns_to_dead_processor_are_lost(self):
        # Explicit placement onto a crashed processor: the message is
        # dropped and the rest of the computation deadlocks waiting for it.
        src = """
        go(Out) :- task(Out) @ 3, wait(Out).
        task(Out) :- Out := 42.
        wait(Out) :- known(Out) | true.
        """
        machine = Machine(4, seed=0, faults=FaultPlan(crash={3: 1.0}))
        engine = StrandEngine(parse_program(src), machine=machine)
        out = Var("Out")
        engine.spawn(Struct("go", (out,)), proc=1, ready=5.0)
        with pytest.raises(DeadlockError):
            engine.run()
        assert machine.fault_stats.messages_dropped == 1


SERVER = """
boot(P, Out) :- open_port(P0, S), P := P0, serve(S, 0, Out).
serve([bump | In], N, Out) :- N1 := N + 1, serve(In, N1, Out).
serve([], N, Out) :- Out := N.
emit(P) :- known(P) | send_port(P, bump).
emit_when(P, Go) :- known(Go) | send_port(P, bump).
"""


class TestQuiescenceAfterCrash:
    def test_close_once_when_a_client_processor_dies(self):
        # The server (a declared service, on immortal p1) must still see
        # end-of-stream exactly once after p3 — holding a never-ready
        # client — crashes; the orphan no longer blocks quiescence.
        program = parse_program(SERVER)
        machine = Machine(4, seed=2, faults=FaultPlan(crash={3: 20.0}))
        engine = StrandEngine(program, machine=machine,
                              services=[("serve", 3)])
        port, out, go = Var("P"), Var("Out"), Var("Go")
        engine.spawn(Struct("boot", (port, out)), proc=1)
        engine.spawn(Struct("emit", (port,)), proc=2)
        engine.spawn(Struct("emit", (port,)), proc=2)
        engine.spawn(Struct("emit_when", (port, go)), proc=3)
        metrics = engine.run()
        assert deref(out) == 2  # both live bumps counted, the orphan none
        assert engine._ports_closed
        assert metrics.crashes == 1
        assert metrics.orphaned_suspensions == 1

    def test_server_on_killed_processor_orphans_and_deadlocks(self):
        # Kill the *server's* processor instead: end-of-stream can never be
        # consumed, so the waiting client deadlocks and the report blames
        # the orphaned server.
        program = parse_program(SERVER + "\nwait(Out) :- known(Out) | true.")
        machine = Machine(4, seed=2, faults=FaultPlan(crash={2: 20.0}))
        engine = StrandEngine(program, machine=machine,
                              services=[("serve", 3)])
        port, out = Var("P"), Var("Out")
        engine.spawn(Struct("boot", (port, out)), proc=2)
        engine.spawn(Struct("wait", (out,)), proc=1)
        with pytest.raises(DeadlockError) as excinfo:
            engine.run()
        assert "orphaned by crashed processor(s)" in str(excinfo.value)
        assert "serve" in str(excinfo.value)
        # Quiescence never fired a close for the dead server's port.
        assert not engine._ports_closed


class TestSameSeedReplay:
    def _run(self):
        from repro.core.api import supervised_reduce_tree
        from repro.apps.arithmetic import arithmetic_tree, eval_arith_node

        # Crashes plus message *delays*: delays exercise the lossy RNG path
        # without severing the (unsupervised) monitor channel the way
        # drops can.
        machine = Machine(
            4, seed=11, trace=True,
            faults=FaultPlan(crash={3: 25.0}, delay_rate=0.05),
        )
        tree = arithmetic_tree(24, seed=3)
        result = supervised_reduce_tree(tree, eval_arith_node, machine=machine)
        return result, machine.trace.format(), result.metrics.summary()

    def test_identical_traces_and_metrics(self):
        (r1, trace1, summary1) = self._run()
        (r2, trace2, summary2) = self._run()
        assert r1.value == r2.value
        assert summary1 == summary2
        assert trace1 == trace2
        assert r1.metrics.makespan == r2.metrics.makespan
        assert r1.metrics.sup_retries == r2.metrics.sup_retries

    def test_different_seed_diverges(self):
        # Sanity check that the replay test has teeth: a different machine
        # seed re-draws placement and fault decisions.
        from repro.core.api import supervised_reduce_tree
        from repro.apps.arithmetic import arithmetic_tree, eval_arith_node

        tree = arithmetic_tree(24, seed=3)
        runs = []
        for seed in (11, 12):
            machine = Machine(4, seed=seed, trace=True,
                              faults=FaultPlan(crash={3: 25.0}))
            result = supervised_reduce_tree(
                tree, eval_arith_node, machine=machine
            )
            runs.append((result.value, machine.trace.format()))
        assert runs[0][0] == runs[1][0]  # supervision keeps the answer
        assert runs[0][1] != runs[1][1]  # but the schedule differs
