"""Parallel backend: equivalence with the sequential backend, determinism,
and the pinned NotImplementedError surface.

Equivalence here means *result values*: for confluent programs (answers
independent of message-arrival races) the parallel backend must compute
exactly what the sequential backend computes for the same seed and program.
Virtual-time metrics and trace interleavings are allowed to differ — the
shards advance their clocks independently between epoch barriers — except
where a test pins them: CRUNCH's independent loops must reproduce the
sequential counts exactly while crossing many epoch pause points.
"""

import cProfile
import sys
import threading
from contextlib import contextmanager

import pytest

from repro.errors import (
    DeadlockError,
    DoubleAssignmentError,
    MachineError,
    StrandError,
)
from repro.machine import Machine
from repro.machine.faults import FaultPlan
from repro.machine.parallel import (
    EPOCH_REDUCTIONS,
    MAX_EPOCH_REDUCTIONS,
    _next_budget,
    _start_method,
    _WorkerPool,
    shard_of,
)
from repro.machine.profile import MotifProfile
from repro.strand import ForeignRegistry, parse_program, run_query

SPREAD = """
go(N, Out) :- spread(N, Out).
spread(0, Out) :- Out := [].
spread(N, Out) :- N > 0 |
    Out := [V | Rest],
    work(N, V) @ N,
    N1 := N - 1,
    spread(N1, Rest).
work(N, V) :- V := N * N.
"""

FAN = """
go(N, Out) :- open_port(P, S), collect(S, Out), fan(N, P).
fan(0, _P).
fan(N, P) :- N > 0 |
    send_port(P, v(N)) @ N,
    N1 := N - 1,
    fan(N1, P).
collect([v(X) | Rest], Out) :- Out := [X | Out1], collect(Rest, Out1).
collect([], Out) :- Out := [].
"""

SERVICES = (("collect", 2),)

# A lambda at module scope: pickle finds the module but no attribute named
# ``<lambda>`` in it, so shipping it raises ``pickle.PicklingError`` (a
# local lambda raises ``AttributeError`` instead).
MODULE_LAMBDA = lambda op, lv, rv: lv + rv

# One independent W-step arithmetic loop per virtual processor (three
# reductions a step); the CRUNCH workload of the parallel-backend benchmark.
CRUNCH = """
go(N, W, Out) :- spread(N, W, Out).
spread(0, _W, Out) :- Out := [].
spread(N, W, Out) :- N > 0 |
    Out := [V | Rest],
    crunch(W, 0, V) @ N,
    N1 := N - 1,
    spread(N1, W, Rest).
crunch(0, Acc, V) :- V := Acc.
crunch(W, Acc, V) :- W > 0 |
    Acc1 := Acc + W,
    W1 := W - 1,
    crunch(W1, Acc1, V).
"""

CRUNCH_WORK = 3000


def run_spread(machine, n=12):
    return run_query(parse_program(SPREAD), f"go({n}, Out)", machine=machine)


def run_fan(machine, n=9):
    return run_query(parse_program(FAN), f"go({n}, Out)", machine=machine,
                     services=SERVICES)


def run_crunch(machine):
    return run_query(parse_program(CRUNCH), f"go(4, {CRUNCH_WORK}, Out)",
                     machine=machine)


def virtual_counts(metrics):
    return (metrics.reductions, metrics.suspensions, metrics.sends,
            metrics.makespan)


def on_backend(backend, processors):
    """A seed-0 machine; the parallel one runs two workers."""
    return Machine(processors, seed=0, backend=backend,
                   workers=2 if backend == "parallel" else None)


def processor_rows(machine, fields):
    return [tuple(getattr(vp, name) for name in fields)
            for vp in machine.procs]


class TestEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_dataflow_matches_sequential(self, workers):
        seq = run_spread(Machine(4, seed=7))
        par = run_spread(Machine(4, seed=7, backend="parallel",
                                 workers=workers))
        assert par.value("Out") == seq.value("Out")
        assert par.metrics.reductions == seq.metrics.reductions

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_seed_sweep(self, seed):
        seq = run_spread(Machine(5, seed=seed), n=15)
        par = run_spread(Machine(5, seed=seed, backend="parallel", workers=2),
                         n=15)
        assert par.value("Out") == seq.value("Out")

    def test_ports_match_sequential(self):
        # Cross-shard port sends land in deterministic but shard-dependent
        # splice order, so compare as multisets.
        seq = run_fan(Machine(3, seed=1))
        par = run_fan(Machine(3, seed=1, backend="parallel", workers=3))
        assert sorted(par.value("Out")) == sorted(seq.value("Out"))

    def test_epoch_window_mode(self):
        seq = run_fan(Machine(3, seed=1))
        # At 0.5 the quiescence close round has to stop at its horizon.
        for window in (2.0, 0.5):
            par = run_fan(Machine(3, seed=1, backend="parallel", workers=2,
                                  epoch_window=window))
            assert sorted(par.value("Out")) == sorted(seq.value("Out"))

    def test_reduce_tree_parallel_backend(self):
        from repro.apps.trees import balanced_tree, sequential_reduce
        from repro.core.api import reduce_tree

        tree = balanced_tree(4, lambda rng: "add",
                             lambda rng: rng.randint(1, 9))
        expected = sequential_reduce(tree, lambda op, lv, rv: lv + rv)
        evaluator = "eval(add, L, R, V) :- V := L + R."
        seq = reduce_tree(tree, evaluator, processors=4, seed=2)
        par = reduce_tree(tree, evaluator, processors=4, seed=2,
                          backend="parallel", workers=2)
        assert seq.value == expected
        assert par.value == expected


class TestCounterMerge:
    """The merged per-processor record takes the owning shard's replica
    whole and adds the cross-shard counters every shard may charge."""

    FIELDS = ("sends", "hops", "remote_bindings", "reductions")

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_spread_rows_match_sequential(self, workers):
        seq_machine = Machine(4, seed=7)
        run_spread(seq_machine)
        par_machine = Machine(4, seed=7, backend="parallel", workers=workers)
        run_spread(par_machine)
        assert (processor_rows(par_machine, self.FIELDS)
                == processor_rows(seq_machine, self.FIELDS))

    def test_remote_binding_charged_to_binder(self):
        # p2 binds V; the waiter on p1 wakes on shard 0, which charges the
        # remote binding to its replica of p2.
        src = """
        go(Out) :- make(V) @ 2, use(V, Out).
        make(V) :- V := v(5).
        use(v(X), Out) :- Out := X.
        """
        fields = self.FIELDS + ("suspensions", "wakeups")
        rows = []
        for backend in ("sequential", "parallel"):
            machine = on_backend(backend, 2)
            result = run_query(parse_program(src), "go(Out)", machine=machine)
            assert result.value("Out") == 5
            rows.append(processor_rows(machine, fields))
        assert rows[1] == rows[0]
        assert rows[0][1][:3] == (0, 1, 1)  # p2: sends, hops, remote_bindings

    def test_motif_counters_summed_over_workers(self):
        # The Reliable motif's primitives bump FaultStats counters on the
        # worker that runs them; every field reaches the merged metrics.
        from repro import reliable_reduce_tree
        from repro.apps.arithmetic import arithmetic_tree, eval_arith_node

        results = [
            reliable_reduce_tree(arithmetic_tree(64, seed=3), eval_arith_node,
                                 machine=machine)
            for machine in (Machine(4, seed=1),
                            Machine(4, seed=1, backend="parallel", workers=2))
        ]
        assert results[1].value == results[0].value
        assert results[0].metrics.rel_acks == 63
        assert results[1].metrics.rel_acks == results[0].metrics.rel_acks


class TestDeterminism:
    def test_repeated_runs_identical(self):
        results = [
            run_fan(Machine(3, seed=5, backend="parallel", workers=3))
            for _ in range(2)
        ]
        assert results[0].value("Out") == results[1].value("Out")
        assert (results[0].metrics.reductions
                == results[1].metrics.reductions)
        assert results[0].metrics.sends == results[1].metrics.sends

    def test_trace_merge_is_ordered(self):
        machine = Machine(3, seed=1, backend="parallel", workers=2,
                          trace=True)
        run_fan(machine, n=6)
        eids = [ev.eid for ev in machine.trace.events]
        assert eids == sorted(eids)
        assert len(set(eids)) == len(eids)
        times = [ev.time for ev in machine.trace.events]
        assert times == sorted(times)


@pytest.fixture(scope="module")
def crunch_sequential():
    return run_crunch(Machine(4, seed=3))


class TestEpochBudget:
    """Epochs end when the round's reduction budget is spent, so CRUNCH at
    2 workers (about 18k reductions per worker) crosses several pause
    points; none of them may change the answer or the virtual counts."""

    @pytest.fixture(scope="class", params=[None, 2.0, 4096.0],
                    ids=["quiescence", "window-2", "window-4096"])
    def crunch_parallel(self, request):
        return [
            run_crunch(Machine(4, seed=3, backend="parallel", workers=2,
                               epoch_window=request.param))
            for _ in range(2)
        ]

    def test_matches_sequential(self, crunch_sequential, crunch_parallel):
        expected = [CRUNCH_WORK * (CRUNCH_WORK + 1) // 2] * 4
        assert crunch_sequential.value("Out") == expected
        for result in crunch_parallel:
            assert result.value("Out") == expected
            assert (virtual_counts(result.metrics)
                    == virtual_counts(crunch_sequential.metrics))
        assert crunch_sequential.metrics.parallel is None

    def test_repeated_runs_identical(self, crunch_parallel):
        first, second = (result.metrics for result in crunch_parallel)
        assert first == second
        assert first.parallel == second.parallel
        assert first.parallel.wire == second.parallel.wire
        # Wall-clock busy and start-up times are recorded but never
        # compared, and the summary text leaves them out.
        assert len(first.parallel.busy_s) == first.parallel.epochs
        assert first.parallel.startup_s > 0
        assert first.parallel.startup_s != second.parallel.startup_s
        assert first.summary() == second.summary()

    def test_both_workers_active_in_one_epoch(self, crunch_parallel):
        telemetry = crunch_parallel[0].metrics.parallel
        assert telemetry.worker_epochs > telemetry.epochs
        assert any(None not in row for row in telemetry.busy_s)
        # The initial goal plus one crunch spawn per processor on shard 1.
        assert telemetry.wire["spawn"] == 3
        assert "epochs=" in crunch_parallel[0].metrics.summary()

    def test_epochs_cross_budget_boundaries(self, crunch_parallel):
        metrics = crunch_parallel[0].metrics
        per_worker = metrics.reductions // 2
        assert per_worker > 4 * EPOCH_REDUCTIONS
        # Even if every round were quiet, so that the budget doubled each
        # time, a worker's share would take this many rounds to drain.
        rounds, drained, budget = 0, 0, EPOCH_REDUCTIONS
        while drained < per_worker:
            rounds += 1
            drained += budget
            budget = _next_budget(budget, 0)
        assert rounds > 2
        assert metrics.parallel.epochs >= rounds

    def test_quiet_rounds_grow_the_budget(self):
        assert _next_budget(EPOCH_REDUCTIONS, 0) == 2 * EPOCH_REDUCTIONS
        assert _next_budget(MAX_EPOCH_REDUCTIONS, 0) == MAX_EPOCH_REDUCTIONS
        assert _next_budget(MAX_EPOCH_REDUCTIONS, 1) == EPOCH_REDUCTIONS

    def test_quiet_rounds_cut_barriers(self):
        # At quiescence CRUNCH routes messages only in its first and last
        # rounds, so it needs fewer rounds than a fixed budget would cut.
        result = run_crunch(Machine(4, seed=3, backend="parallel", workers=2))
        per_worker = result.metrics.reductions // 2
        assert result.metrics.parallel.epochs < per_worker // EPOCH_REDUCTIONS

    def test_runaway_exhausts_budget_on_worker(self):
        src = """
        go :- loop(0) @ 2.
        loop(N) :- N1 := N + 1, loop(N1).
        """
        program = parse_program(src)
        with pytest.raises(StrandError,
                           match="reduction budget of 5000 exhausted"):
            run_query(program, "go", machine=Machine(2, seed=0),
                      max_reductions=5000)
        with pytest.raises(
            StrandError,
            match=r"\[worker 1\] reduction budget of 5000 exhausted",
        ):
            run_query(program, "go",
                      machine=Machine(2, seed=0, backend="parallel",
                                      workers=2),
                      max_reductions=5000)


class TestErrors:
    def test_deadlock_reported_across_shards(self):
        src = "go(Out) :- wait(X, Out).\nwait(done, Out) :- Out := yes."
        with pytest.raises(DeadlockError, match="1 suspended"):
            run_query(parse_program(src), "go(Out)",
                      machine=Machine(2, seed=0, backend="parallel",
                                      workers=2))

    @pytest.mark.parametrize("processors, body", [
        (2, "wait(X, Out) @ 2, wait(Y, O2) @ 1"),
        # Shard 0 owns p1 and p3, so the rows arrive out of processor order.
        (3, "wait(X, Out) @ 3, wait(Y, O2) @ 2, wait(Z, O3) @ 1"),
    ], ids=["two-shards", "rows-out-of-order"])
    def test_deadlock_text_matches_sequential(self, processors, body):
        src = f"go(Out) :- {body}.\nwait(done, Out) :- Out := yes."
        reports = []
        for backend in ("sequential", "parallel"):
            machine = on_backend(backend, processors)
            with pytest.raises(DeadlockError) as info:
                run_query(parse_program(src), "go(Out)", machine=machine)
            reports.append(str(info.value))
        assert reports[0] == reports[1]
        lines = reports[0].splitlines()
        assert lines[0] == (f"computation deadlocked with {processors} "
                            "suspended process(es):")
        assert [line.split(":")[0].strip() for line in lines[1:]] == [
            f"p{p}" for p in range(1, processors + 1)
        ]

    def test_cross_shard_double_assignment(self):
        src = """
        go(X) :- a(X) @ 1, b(X) @ 2.
        a(X) :- X := 1.
        b(X) :- X := 2.
        """
        with pytest.raises(DoubleAssignmentError):
            run_query(parse_program(src), "go(X)",
                      machine=Machine(2, seed=0, backend="parallel",
                                      workers=2))


class TestStragglers:
    """``abandon_stragglers`` on the parallel backend sends every worker an
    ``abandon`` barrier message; it must drop exactly what the sequential
    engine drops."""

    SRC = """
    go(Out) :- Out := 1, wait(X, _) @ 2.
    wait(done, Out) :- Out := yes.
    """
    FIELDS = ("clock", "busy", "reductions", "suspensions", "wakeups",
              "sends", "hops", "remote_bindings")

    def test_abandon_matches_sequential(self):
        runs = []
        for backend in ("sequential", "parallel"):
            machine = on_backend(backend, 2)
            result = run_query(parse_program(self.SRC), "go(Out)",
                               machine=machine, abandon_stragglers=True)
            runs.append((result, machine))
        (seq, seq_machine), (par, par_machine) = runs
        assert par.value("Out") == seq.value("Out") == 1
        assert seq.metrics.processes_abandoned == 1
        assert par.metrics.processes_abandoned == 1
        assert seq_machine.procs[1].suspensions == 1
        assert (processor_rows(par_machine, self.FIELDS)
                == processor_rows(seq_machine, self.FIELDS))

    def test_close_then_abandon_matches_sequential(self):
        # Quiescence first closes the port the count/3 service reads, then
        # abandons the wait/1 straggler stranded on the other processor.
        src = """
        go(Out) :- open_port(P, S), count(S, 0, Out), send_port(P, hi),
            wait(_X) @ 2.
        count([_ | In], N, Out) :- N1 := N + 1, count(In, N1, Out).
        count([], N, Out) :- Out := N.
        wait(done).
        """
        runs = []
        for backend in ("sequential", "parallel"):
            machine = on_backend(backend, 2)
            result = run_query(parse_program(src), "go(Out)", machine=machine,
                               services=[("count", 3)],
                               abandon_stragglers=True)
            runs.append((result, machine))
        (seq, seq_machine), (par, par_machine) = runs
        assert par.value("Out") == seq.value("Out") == 1
        assert seq.metrics.processes_abandoned == 1
        assert par.metrics.processes_abandoned == 1
        assert seq.engine._ports_closed and par.engine._ports_closed
        assert (processor_rows(par_machine, self.FIELDS)
                == processor_rows(seq_machine, self.FIELDS))


class TestEngineOptions:
    """The workers build their engines from the parent engine's own
    option attributes, and each option shows on the parallel backend;
    ``abandon_stragglers`` acts in the parent, which decides quiescence."""

    SRC = """
    go(Out, V) :- open_port(P, S), count(S, 0, Out), send_port(P, hi),
        work(3, V) @ 2.
    stuck(Out, V) :- go(Out, V), wait(_X) @ 2.
    count([_ | In], N, Out) :- N1 := N + 1, count(In, N1, Out).
    count([], N, Out) :- Out := N.
    work(N, V) :- V := N * N.
    wait(done).
    """
    OPTIONS = dict(watched=[("work", 2)], library=[("work", 2)],
                   services=[("count", 3)])

    def run(self, backend, query="go(Out, V)", **options):
        machine = on_backend(backend, 2)
        result = run_query(parse_program(self.SRC), query, machine=machine,
                           **self.OPTIONS, **options)
        return result, machine

    def test_every_option_reaches_the_workers(self):
        (seq, seq_machine), (par, par_machine) = (
            self.run(backend) for backend in ("sequential", "parallel")
        )
        # services: a worker reports only count/3 suspended, so the port
        # is closed and count/3 answers.
        assert par.value("Out") == seq.value("Out") == 1
        assert par.value("V") == 9
        # watched: the same per-processor live-task peaks.
        peaks = processor_rows(seq_machine, ("peak_live_tasks",))
        assert peaks == [(0,), (1,)]
        assert processor_rows(par_machine, ("peak_live_tasks",)) == peaks
        # library: work/2 is charged as library cost.
        assert seq_machine.library_cost > 0
        assert par_machine.library_cost == seq_machine.library_cost
        # abandon_stragglers: wait/1 is dropped instead of deadlocking.
        for backend in ("sequential", "parallel"):
            result, _ = self.run(backend, "stuck(Out, V)",
                                 abandon_stragglers=True)
            assert result.value("Out") == 1
            assert result.metrics.processes_abandoned == 1
        # max_reductions: a worker stops at the same budget.
        with pytest.raises(StrandError, match="reduction budget of 3 exhausted"):
            self.run("parallel", max_reductions=3)


@contextmanager
def live_thread():
    """Keep one background thread alive for the duration of the block."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def has_profile_hook(_tag):
    """Foreign procedure: 1 if the calling process has a profile or trace
    hook installed (``sys.monitoring`` events included), else 0."""
    hooked = sys.getprofile() is not None or sys.gettrace() is not None
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        hooked = hooked or any(
            monitoring.get_tool(tool) is not None and monitoring.get_events(tool)
            for tool in range(6)
        )
    return int(hooked)


class TestStartMethod:
    """Workers are forked on Linux while the parent runs one thread, and
    spawned otherwise; both start methods must give the same run."""

    def test_fork_on_linux_with_one_thread(self, monkeypatch):
        assert threading.active_count() == 1
        monkeypatch.setattr(sys, "platform", "linux")
        assert _start_method() == "fork"

    def test_spawn_on_other_platforms(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert _start_method() == "spawn"

    def test_spawn_while_a_thread_is_alive(self):
        with live_thread():
            assert _start_method() == "spawn"

    def test_spawned_run_matches_sequential(self):
        fields = TestCounterMerge.FIELDS + ("suspensions", "wakeups")
        seq_machine = Machine(4, seed=7)
        seq = run_spread(seq_machine)
        par_machine = Machine(4, seed=7, backend="parallel", workers=2)
        with live_thread():
            par = run_spread(par_machine)
        assert par.value("Out") == seq.value("Out")
        assert (processor_rows(par_machine, fields)
                == processor_rows(seq_machine, fields))

    def test_closed_parent_end_stops_workers(self):
        # A worker must see EOF when the parent closes its end of the pipe,
        # so no forked worker may keep a copy of any parent end open.
        pool = _WorkerPool(2)
        try:
            for conn in pool.conns:
                conn.close()
            for proc in pool.procs:
                proc.join(timeout=5)
                assert not proc.is_alive()
        finally:
            pool.shutdown()

    def test_workers_run_without_parent_profiler(self):
        registry = ForeignRegistry()
        registry.register("hooked", 2, has_profile_hook)
        src = "go(Out) :- hooked(1, A) @ 1, hooked(2, B) @ 2, Out := [A, B]."
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            parent_hooked = has_profile_hook(0)
            result = run_query(parse_program(src), "go(Out)",
                               machine=Machine(2, backend="parallel",
                                               workers=2),
                               foreign=registry)
        finally:
            profiler.disable()
        assert parent_hooked == 1
        assert result.value("Out") == [0, 0]


class TestUnsupportedLayers:
    def test_faults_raise_not_implemented(self):
        with pytest.raises(
            NotImplementedError,
            match="fault injection is not supported on the parallel backend",
        ):
            Machine(4, backend="parallel", workers=2,
                    faults=FaultPlan(crash_rate=0.5))

    def test_profile_raises_not_implemented(self):
        with pytest.raises(
            NotImplementedError,
            match="per-motif profiling is not supported on the parallel "
                  "backend",
        ):
            run_query(parse_program(SPREAD), "go(4, Out)",
                      machine=Machine(2, backend="parallel", workers=2),
                      profile=MotifProfile())

    def test_python_foreign_raises_not_implemented(self):
        # A Python evaluator is shipped to the workers by reference, so a
        # local lambda or closure cannot reach them.
        from repro.apps.trees import balanced_tree
        from repro.core.api import reduce_tree

        tree = balanced_tree(2, lambda rng: "add", lambda rng: 1)
        with pytest.raises(NotImplementedError, match="not picklable"):
            reduce_tree(tree, lambda op, lv, rv: lv + rv,
                        processors=4, backend="parallel", workers=2)

    def test_module_level_lambda_raises_not_implemented(self):
        from repro.apps.trees import balanced_tree
        from repro.core.api import reduce_tree

        tree = balanced_tree(2, lambda rng: "add", lambda rng: 1)
        with pytest.raises(NotImplementedError, match="not picklable"):
            reduce_tree(tree, MODULE_LAMBDA,
                        processors=4, backend="parallel", workers=2)


class TestConfiguration:
    def test_unknown_backend_rejected(self):
        with pytest.raises(MachineError, match="unknown backend"):
            Machine(2, backend="threads")

    def test_workers_require_parallel_backend(self):
        with pytest.raises(MachineError, match="workers="):
            Machine(2, workers=2)

    def test_workers_capped_at_processors(self):
        machine = Machine(3, backend="parallel", workers=8)
        assert machine.workers == 3

    def test_epoch_window_must_be_positive(self):
        with pytest.raises(MachineError, match="epoch_window"):
            Machine(2, backend="parallel", epoch_window=-1.0)

    def test_shard_mapping_round_robin(self):
        owners = [shard_of(p, 3) for p in range(1, 8)]
        assert owners == [0, 1, 2, 0, 1, 2, 0]

    def test_sequential_machine_has_no_workers(self):
        assert Machine(4).workers is None

    def test_import_leaves_the_backend_unloaded(self):
        # Every cold start pays for what ``import repro`` loads; the
        # backend and multiprocessing load only when a run asks for them.
        import os
        import subprocess

        import repro

        check = ("import sys, repro, repro.machine, repro.strand; "
                 "print(sorted({'multiprocessing', 'repro.machine.parallel'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))}
        out = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True,
                             check=True, env=env).stdout
        assert out.strip() == "[]"


class TestCli:
    def test_run_backend_parallel(self, tmp_path, capsys):
        from repro.cli import main

        source = tmp_path / "spread.str"
        source.write_text(SPREAD)
        code = main(["run", str(source), "go(6, Out)", "-P", "3",
                     "--backend", "parallel", "--workers", "2", "--quiet"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Out = [36, 25, 16, 9, 4, 1]" == out.strip().splitlines()[-1]
