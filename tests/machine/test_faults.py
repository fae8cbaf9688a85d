"""Fault-injection machinery: FaultPlan resolution, message fates, trace
hygiene, and the fault counters' path into MachineMetrics."""

import random

import pytest

from repro.machine import FaultPlan, FaultStats, Machine, Partition, Trace
from repro.strand.engine import run_query
from repro.strand.parser import parse_program
from repro.strand.terms import Var, deref


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=0.6, delay_rate=0.6)

    def test_lossy_only_with_message_rates(self):
        assert not FaultPlan().lossy
        assert not FaultPlan(crash={2: 10.0}, crash_rate=0.5).lossy
        assert FaultPlan(drop_rate=0.1).lossy
        assert FaultPlan(delay_rate=0.1).lossy

    def test_explicit_schedule_beats_random_and_immortality(self):
        plan = FaultPlan(crash={1: 30.0, 3: 5}, crash_rate=0.0)
        schedule = plan.resolve_crashes(4, random.Random(0))
        # Processor 1 is immortal by default, but an explicit entry wins;
        # times are normalized to float.
        assert schedule == {1: 30.0, 3: 5.0}

    def test_random_schedule_is_seed_deterministic(self):
        plan = FaultPlan(crash_rate=0.5)
        a = plan.resolve_crashes(8, random.Random(42))
        b = plan.resolve_crashes(8, random.Random(42))
        assert a == b
        assert 1 not in a  # immortal
        lo, hi = plan.crash_window
        assert all(lo <= t <= hi for t in a.values())

    def test_immortal_set_respected(self):
        plan = FaultPlan(crash_rate=1.0, immortal=frozenset({1, 2}))
        schedule = plan.resolve_crashes(4, random.Random(7))
        assert set(schedule) == {3, 4}


class TestMachineFaultIntegration:
    def test_crash_schedule_fixed_at_construction(self):
        plan = FaultPlan(crash_rate=0.7)
        m1 = Machine(8, seed=11, faults=plan)
        m2 = Machine(8, seed=11, faults=plan)
        assert m1.crash_schedule == m2.crash_schedule

    def test_reset_reproduces_the_schedule(self):
        m = Machine(8, seed=11, faults=FaultPlan(crash_rate=0.7))
        schedule = dict(m.crash_schedule)
        m.rand_proc()  # perturb the RNG mid-run
        m.fault_stats.crashes = 3
        m.reset()
        assert m.crash_schedule == schedule
        assert m.fault_stats.crashes == 0
        assert all(p.alive for p in m.procs)

    def test_zero_rate_plan_leaves_rng_sequence_unchanged(self):
        # A fault plan with no random components must not perturb rand_num
        # draws relative to a machine with no plan at all.
        bare = Machine(4, seed=3)
        planned = Machine(4, seed=3, faults=FaultPlan(crash={2: 50.0}))
        draws_bare = [bare.rand_proc() for _ in range(16)]
        planned.message_fate(1, 3, now=0.0)  # deliver path, no draw
        draws_planned = [planned.rand_proc() for _ in range(16)]
        assert draws_bare == draws_planned


class TestMessageFate:
    def test_no_faults_always_delivers(self):
        m = Machine(4, seed=0)
        fate, latency = m.message_fate(1, 3, now=0.0)
        assert fate == "deliver"
        assert latency == m.latency(1, 3)

    def test_dead_destination_drops_without_rng_draw(self):
        m = Machine(4, seed=0, faults=FaultPlan(crash={3: 10.0}, drop_rate=0.5))
        state = m.rng.getstate()
        # Arrival time (now + latency) is past the crash: deterministic loss.
        fate, _ = m.message_fate(1, 3, now=9.0)
        assert fate == "drop"
        assert m.rng.getstate() == state
        assert m.fault_stats.messages_dropped == 1

    def test_arrival_before_crash_is_subject_to_rates_only(self):
        m = Machine(4, seed=0, faults=FaultPlan(crash={3: 1000.0}))
        fate, _ = m.message_fate(1, 3, now=0.0)
        assert fate == "deliver"

    def test_certain_drop(self):
        m = Machine(4, seed=0, faults=FaultPlan(drop_rate=1.0))
        assert m.message_fate(1, 2, now=0.0)[0] == "drop"
        assert m.fault_stats.messages_dropped == 1

    def test_certain_delay_scales_latency(self):
        plan = FaultPlan(delay_rate=1.0, delay_factor=4.0)
        m = Machine(4, seed=0, faults=plan)
        base = m.latency(1, 2)
        fate, latency = m.message_fate(1, 2, now=0.0)
        assert fate == "delay"
        assert latency == base * 5.0
        assert m.fault_stats.messages_delayed == 1

    def test_local_sends_never_crash_dropped_on_live_processor(self):
        m = Machine(4, seed=0, faults=FaultPlan(crash={3: 50.0}))
        assert m.message_fate(3, 3, now=0.0)[0] == "deliver"


class TestPartition:
    def test_group_and_window_validated(self):
        with pytest.raises(ValueError):
            Partition(frozenset(), 0.0, 10.0)
        with pytest.raises(ValueError):
            Partition(frozenset({2}), 10.0, 5.0)

    def test_severs_only_across_the_cut_inside_the_window(self):
        cut = Partition(frozenset({3, 4}), 30.0, 120.0)
        assert cut.severs(1, 3, 50.0)
        assert cut.severs(3, 1, 50.0)  # both directions
        assert not cut.severs(3, 4, 50.0)  # within the cut-off side
        assert not cut.severs(1, 2, 50.0)  # within the majority side
        assert not cut.severs(1, 3, 10.0)  # before the window opens
        assert not cut.severs(1, 3, 120.0)  # healed (end-exclusive)

    def test_partition_drop_without_rng_draw(self):
        plan = FaultPlan(
            partitions=(Partition(frozenset({3}), 0.0, 100.0),), drop_rate=0.5
        )
        m = Machine(4, seed=0, faults=plan)
        state = m.rng.getstate()
        fate, _ = m.message_fate(1, 3, now=50.0)
        assert fate == "drop"
        assert m.rng.getstate() == state
        assert m.fault_stats.partition_dropped == 1
        assert m.fault_stats.messages_dropped == 0

    def test_delivery_resumes_after_healing(self):
        plan = FaultPlan(partitions=(Partition(frozenset({3}), 0.0, 100.0),))
        m = Machine(4, seed=0, faults=plan)
        assert m.message_fate(1, 3, now=100.0)[0] == "deliver"
        assert m.message_fate(3, 1, now=150.0)[0] == "deliver"

    def test_random_partition_is_seed_deterministic(self):
        plan = FaultPlan(partition_rate=1.0, partition_duration=40.0)
        a = Machine(8, seed=5, faults=plan).partitions
        b = Machine(8, seed=5, faults=plan).partitions
        assert a == b
        (cut,) = a
        assert 1 not in cut.group  # immortal processors stay connected
        assert cut.end - cut.start == 40.0
        lo, hi = plan.partition_window
        assert lo <= cut.start <= hi

    def test_zero_rate_partition_fields_leave_rng_untouched(self):
        bare = Machine(4, seed=3)
        cut = Partition(frozenset({2}), 10.0, 20.0)
        planned = Machine(4, seed=3, faults=FaultPlan(partitions=(cut,)))
        assert planned.partitions == (cut,)
        assert [bare.rand_proc() for _ in range(16)] == [
            planned.rand_proc() for _ in range(16)
        ]


class TestDuplicateFate:
    def test_certain_duplicate_for_port_sends(self):
        m = Machine(4, seed=0, faults=FaultPlan(duplicate_rate=1.0))
        fate, latency = m.message_fate(1, 2, now=0.0)
        assert fate == "duplicate"
        assert latency == m.latency(1, 2)
        assert m.fault_stats.messages_duplicated == 1

    def test_spawns_resolve_duplicate_to_delivery_but_keep_the_draw(self):
        a = Machine(4, seed=9, faults=FaultPlan(duplicate_rate=1.0))
        b = Machine(4, seed=9, faults=FaultPlan(duplicate_rate=1.0))
        fate, _ = a.message_fate(1, 2, now=0.0, duplicable=False)
        assert fate == "deliver"
        assert a.fault_stats.messages_duplicated == 0
        b.message_fate(1, 2, now=0.0)
        # Both paths consumed the same number of draws, so everything
        # downstream of the shared RNG stays identical across message kinds.
        assert a.rng.getstate() == b.rng.getstate()


class TestMachineReset:
    def test_reset_reproduces_partitions_and_clears_counters(self):
        plan = FaultPlan(partition_rate=1.0, drop_rate=0.3)
        m = Machine(8, seed=11, faults=plan)
        cuts = m.partitions
        assert cuts
        for i in range(6):
            m.message_fate(2, 3, now=float(i))
        m.reset()
        assert m.partitions == cuts
        assert m.fault_stats == FaultStats()

    def test_back_to_back_runs_replay_the_same_fate_sequence(self):
        plan = FaultPlan(drop_rate=0.3, delay_rate=0.1, duplicate_rate=0.2)
        m = Machine(4, seed=7, faults=plan)

        def episode():
            fates = [
                m.message_fate(1 + i % 3, 1 + (i + 1) % 4, now=float(i))[0]
                for i in range(24)
            ]
            stats = m.fault_stats
            return fates, (
                stats.messages_dropped,
                stats.messages_delayed,
                stats.messages_duplicated,
            )

        first = episode()
        m.reset()
        # Counters are per-run, not cumulative, and the fate sequence replays.
        assert episode() == first


class TestDeadProcessorTimers:
    def test_timer_armed_on_crashed_processor_never_fires(self):
        # The spawn lands on processor 2 long before its crash at t=50; the
        # timer it armed matures at t≈200, by which point the processor is
        # dead — fail-stop means the timeout must not fire.
        program = parse_program("arm(P) :- after(200, P) @ 2.")
        machine = Machine(4, seed=0, faults=FaultPlan(crash={2: 50.0}))
        result = run_query(program, "arm(P)", machine=machine)
        assert type(deref(result["P"])) is Var
        assert machine.fault_stats.sup_timeouts == 0

    def test_same_timer_fires_when_the_processor_survives(self):
        program = parse_program("arm(P) :- after(200, P) @ 2.")
        machine = Machine(4, seed=0, faults=FaultPlan(crash={3: 50.0}))
        result = run_query(program, "arm(P)", machine=machine)
        assert str(deref(result["P"])) == "timeout"
        # A bare timer is not supervision: only the Supervise motif counts
        # supervision timeouts.
        assert machine.fault_stats.sup_timeouts == 0


class TestFaultStats:
    def test_clear(self):
        stats = FaultStats()
        stats.crashes = 2
        stats.sup_retries = 5
        stats.clear()
        assert stats == FaultStats()


class TestTraceHygiene:
    def test_truncated_and_clear(self):
        trace = Trace(enabled=True, limit=2)
        for i in range(5):
            trace.record(float(i), 1, "reduce", "x")
        assert len(trace) == 2
        assert trace.dropped == 3
        assert trace.truncated
        assert "3 events dropped" in trace.format()
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0
        assert not trace.truncated

    def test_machine_reset_keeps_trace_limit(self):
        m = Machine(2, trace=True)
        m.trace.limit = 7
        m.trace.record(0.0, 1, "reduce", "x")
        m.reset()
        assert len(m.trace) == 0
        assert m.trace.limit == 7


class TestMetricsSurface:
    def test_fault_counters_reach_metrics(self):
        m = Machine(4, seed=0, faults=FaultPlan(drop_rate=1.0))
        m.message_fate(1, 2, now=0.0)
        m.fault_stats.crashes = 1
        m.fault_stats.orphaned_suspensions = 2
        metrics = m.metrics()
        assert metrics.crashes == 1
        assert metrics.messages_dropped == 1
        assert metrics.orphaned_suspensions == 2
        assert metrics.faults_injected == 2
        summary = metrics.summary()
        assert "faults(" in summary
        assert "crashes=1" in summary

    def test_partition_and_duplicate_counters_reach_metrics(self):
        m = Machine(4, seed=0, faults=FaultPlan(duplicate_rate=1.0))
        m.message_fate(1, 2, now=0.0)
        m.fault_stats.partition_dropped = 2
        metrics = m.metrics()
        assert metrics.messages_duplicated == 1
        assert metrics.partition_dropped == 2
        assert metrics.faults_injected == 3
        summary = metrics.summary()
        assert "duplicated=1" in summary
        assert "partition_dropped=2" in summary

    def test_reliability_counters_reach_metrics(self):
        m = Machine(4, seed=0)
        m.fault_stats.rel_retransmits = 3
        m.fault_stats.rel_acks = 15
        m.fault_stats.rel_duplicates_suppressed = 2
        m.fault_stats.rel_unreachable = 1
        metrics = m.metrics()
        assert metrics.reliability_events == 21
        # Protocol activity is not an injected fault.
        assert metrics.faults_injected == 0
        summary = metrics.summary()
        assert "reliable(retransmits=3, acks=15" in summary
        assert "dup_suppressed=2" in summary
        assert "unreachable=1" in summary

    def test_fault_free_metrics_stay_quiet(self):
        metrics = Machine(4).metrics()
        assert metrics.faults_injected == 0
        assert "faults(" not in metrics.summary()
        assert metrics.trace_dropped == 0

    def test_trace_dropped_reaches_metrics(self):
        m = Machine(2, trace=True)
        m.trace.limit = 1
        m.trace.record(0.0, 1, "reduce", "a")
        m.trace.record(1.0, 1, "reduce", "b")
        assert m.metrics().trace_dropped == 1
