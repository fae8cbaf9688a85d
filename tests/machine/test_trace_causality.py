"""Causal-trace invariants: every event's cause exists and precedes it,
chains terminate at roots, and tracing never perturbs the computation —
across fault-free, crash, partition, and duplicate runs."""

from repro.apps.arithmetic import eval_arith_node, paper_example_tree
from repro.core.api import (
    reduce_tree,
    reliable_reduce_tree,
    supervised_reduce_tree,
)
from repro.machine import FaultPlan, Machine, Partition, write_jsonl
from repro.strand import parse_program, run_query
from repro.strand.terms import deref


def assert_causally_sound(trace):
    """The satellite property: every non-root event's cause id exists in
    the trace, was recorded earlier (smaller eid), and did not happen
    later in virtual time.  Holes are only legal when events were
    dropped."""
    index = trace.by_id()
    for event in trace:
        if not event.cause:
            continue
        cause = index.get(event.cause)
        if cause is None:
            assert trace.dropped > 0, (
                f"event {event.eid} links to missing cause {event.cause} "
                "in a complete trace"
            )
            continue
        assert cause.eid < event.eid
        assert cause.time <= event.time, (event, cause)


def assert_chains_reach_roots(trace):
    index = trace.by_id()
    for event in trace:
        chain = trace.chain(event.eid)
        assert chain[-1].eid == event.eid
        root = chain[0]
        # A chain stops at a true root unless the walk hit a dropped hole.
        if root.cause and trace.dropped == 0:
            assert root.cause in index


class TestFaultFree:
    def test_tr1_trace_is_causally_sound(self):
        machine = Machine(4, seed=0, trace=True)
        reduce_tree(paper_example_tree(), eval_arith_node,
                    machine=machine, strategy="tr1")
        assert len(machine.trace) > 0
        assert_causally_sound(machine.trace)
        assert_chains_reach_roots(machine.trace)

    def test_spawn_chain_walks_back_to_root_goal(self):
        machine = Machine(4, seed=0, trace=True)
        reduce_tree(paper_example_tree(), eval_arith_node,
                    machine=machine, strategy="tr1")
        reduces = machine.trace.of_kind("reduce")
        chain = machine.trace.chain(reduces[-1].eid)
        assert chain[0].cause == 0
        assert chain[0].kind == "spawn"

    def test_send_bind_wake_chain_on_multiprocessor_run(self):
        machine = Machine(4, seed=0, trace=True)
        reduce_tree(paper_example_tree(), eval_arith_node,
                    machine=machine, strategy="tr1")
        index = machine.trace.by_id()
        linked = [
            e for e in machine.trace.of_kind("wake")
            if e.cause and index[e.cause].kind == "bind"
        ]
        assert linked, "no wake event links back to a bind"
        # At least one of those binds was itself caused by a send or a
        # reduction context — i.e. the chain keeps going.
        assert any(index[e.cause].cause for e in linked)

    def test_timeout_links_to_arming_context(self):
        program = parse_program("arm(P) :- after(200, P) @ 2.")
        machine = Machine(4, seed=0, trace=True)
        result = run_query(program, "arm(P)", machine=machine)
        assert str(deref(result["P"])) == "timeout"
        (timeout,) = machine.trace.of_kind("timeout")
        index = machine.trace.by_id()
        assert timeout.cause in index
        # The probe binding is caused by the timeout event.
        caused = [e for e in machine.trace.of_kind("bind")
                  if e.cause == timeout.eid]
        assert caused
        assert_causally_sound(machine.trace)


class TestUnderFaults:
    def test_crash_is_a_root_and_its_faults_link_to_it(self):
        machine = Machine(4, seed=11, trace=True,
                          faults=FaultPlan(crash={3: 25.0}))
        result = supervised_reduce_tree(paper_example_tree(),
                                        eval_arith_node, machine=machine)
        assert result.value == 24
        (crash,) = machine.trace.of_kind("crash")
        assert crash.cause == 0
        victims = [e for e in machine.trace.of_kind("fault")
                   if e.cause == crash.eid]
        assert victims, "crash abandoned/orphaned nothing it could tag"
        assert all(e.detail.split(":")[0] in ("abandon", "orphan", "migrate")
                   for e in victims)
        assert_causally_sound(machine.trace)

    def test_partition_run_is_causally_sound(self):
        machine = Machine(
            4, seed=1, trace=True,
            faults=FaultPlan(partitions=(
                Partition(frozenset({3, 4}), 30.0, 90.0),
            )),
        )
        result = reliable_reduce_tree(paper_example_tree(),
                                      eval_arith_node, machine=machine)
        assert result.value == 24
        assert_causally_sound(machine.trace)
        assert_chains_reach_roots(machine.trace)

    def test_duplicate_run_is_causally_sound(self):
        machine = Machine(4, seed=2, trace=True,
                          faults=FaultPlan(duplicate_rate=0.3))
        result = reliable_reduce_tree(paper_example_tree(),
                                      eval_arith_node, machine=machine)
        assert result.value == 24
        assert_causally_sound(machine.trace)

    def test_migration_faults_link_to_the_crash(self):
        machine = Machine(4, seed=11, trace=True,
                          faults=FaultPlan(crash={3: 25.0}, migrate=True))
        supervised_reduce_tree(paper_example_tree(), eval_arith_node,
                               machine=machine)
        (crash,) = machine.trace.of_kind("crash")
        migrations = [e for e in machine.trace.of_kind("fault")
                      if e.detail.startswith("migrate:")]
        assert all(e.cause == crash.eid for e in migrations)
        assert_causally_sound(machine.trace)


class TestDeterminism:
    def _traced_run(self):
        machine = Machine(4, seed=5, trace=True)
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             machine=machine, strategy="tr1")
        return result, machine

    def test_same_seed_traces_are_byte_identical(self, tmp_path):
        _, m1 = self._traced_run()
        _, m2 = self._traced_run()
        assert m1.trace.format() == m2.trace.format()
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(m1.trace, p1, seed=5)
        write_jsonl(m2.trace, p2, seed=5)
        assert p1.read_bytes() == p2.read_bytes()

    def test_eids_are_monotonic_and_unique(self):
        _, machine = self._traced_run()
        eids = [e.eid for e in machine.trace]
        assert eids == sorted(eids)
        assert len(eids) == len(set(eids))

    def test_tracing_does_not_perturb_the_computation(self):
        traced, m_on = self._traced_run()
        m_off = Machine(4, seed=5)
        plain = reduce_tree(paper_example_tree(), eval_arith_node,
                            machine=m_off, strategy="tr1")
        assert traced.value == plain.value
        assert traced.metrics.makespan == plain.metrics.makespan
        assert traced.metrics.reductions == plain.metrics.reductions
        assert len(m_off.trace) == 0

    def test_faulty_same_seed_traces_are_identical(self):
        def go():
            machine = Machine(4, seed=11, trace=True,
                              faults=FaultPlan(crash={3: 25.0}))
            supervised_reduce_tree(paper_example_tree(), eval_arith_node,
                                   machine=machine)
            return machine.trace.format()

        assert go() == go()


class TestRingMode:
    def test_ring_keeps_the_suffix_and_counts_evictions(self):
        from repro.machine import Trace

        machine = Machine(4, seed=0)
        machine.trace = Trace(enabled=True, limit=64, ring=True)
        reduce_tree(paper_example_tree(), eval_arith_node,
                    machine=machine, strategy="tr1")
        trace = machine.trace
        assert len(trace) == 64
        assert trace.dropped > 0
        assert trace.truncated
        # The retained window is the latest events, ids still monotonic.
        eids = [e.eid for e in trace]
        assert eids == sorted(eids)
        assert eids[-1] == trace.dropped + 64
        # chain() tolerates links into the evicted prefix.
        for event in trace:
            trace.chain(event.eid)

    def test_full_mode_keeps_the_prefix(self):
        from repro.machine import Trace

        machine = Machine(4, seed=0)
        machine.trace = Trace(enabled=True, limit=64, ring=False)
        reduce_tree(paper_example_tree(), eval_arith_node,
                    machine=machine, strategy="tr1")
        trace = machine.trace
        assert len(trace) == 64
        assert [e.eid for e in trace] == list(range(1, 65))
        assert trace.dropped > 0
