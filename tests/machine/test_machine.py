"""Machine, network, processor, metrics, and trace tests."""

import pytest

from repro.errors import MachineError
from repro.machine import (
    Machine,
    MachineMetrics,
    Network,
    Ring,
    Trace,
    VirtualProcessor,
    coefficient_of_variation,
    imbalance,
    jain_fairness,
)


class TestNetwork:
    def test_local_delivery_free(self):
        net = Network(Ring(4))
        assert net.latency(2, 2) == 0.0

    def test_linear_model(self):
        net = Network(Ring(8), startup=2.0, per_hop=1.5)
        assert net.latency(1, 2) == 2.0 + 1.5
        assert net.latency(1, 5) == 2.0 + 4 * 1.5


class TestMachine:
    def test_default_single_processor(self):
        m = Machine()
        assert m.size == 1

    def test_topology_by_name(self):
        m = Machine(8, topology="hypercube")
        assert m.hops(1, 8) == 3

    def test_topology_size_mismatch(self):
        with pytest.raises(MachineError):
            Machine(4, topology=Ring(8))

    def test_needs_processor(self):
        with pytest.raises(MachineError):
            Machine(0)

    def test_proc_lookup_one_based(self):
        m = Machine(4)
        assert m.proc(1).number == 1
        assert m.proc(4).number == 4
        with pytest.raises(MachineError):
            m.proc(0)
        with pytest.raises(MachineError):
            m.proc(5)

    def test_normalize_wraps(self):
        m = Machine(4)
        assert m.normalize(1) == 1
        assert m.normalize(4) == 4
        assert m.normalize(5) == 1
        assert m.normalize(0) == 4
        assert m.normalize(-1) == 3

    def test_rand_proc_range_and_determinism(self):
        a = Machine(8, seed=3)
        b = Machine(8, seed=3)
        seq_a = [a.rand_proc() for _ in range(20)]
        seq_b = [b.rand_proc() for _ in range(20)]
        assert seq_a == seq_b
        assert all(1 <= p <= 8 for p in seq_a)

    def test_reset_clears_state(self):
        m = Machine(2, seed=1)
        m.proc(1).busy = 10
        m.rand_proc()
        m.reset()
        assert m.proc(1).busy == 0
        n = Machine(2, seed=1)
        assert m.rand_proc() == n.rand_proc()


class TestProcessorCounters:
    def test_task_high_water(self):
        p = VirtualProcessor(1)
        p.task_spawned()
        p.task_spawned()
        p.task_finished()
        p.task_spawned()
        assert p.peak_live_tasks == 2
        assert p.live_tasks == 2
        assert p.tasks_started == 3

    def test_value_high_water(self):
        p = VirtualProcessor(1)
        for _ in range(3):
            p.value_produced()
        p.value_consumed()
        assert p.peak_live_values == 3
        assert p.live_values == 2


class TestLoadFormulas:
    def test_imbalance(self):
        assert imbalance([1, 1, 1, 1]) == 1.0
        assert imbalance([4, 0, 0, 0]) == 4.0
        assert imbalance([]) == 1.0
        assert imbalance([0, 0]) == 1.0

    def test_jain(self):
        assert jain_fairness([5, 5, 5]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)
        assert jain_fairness([]) == 1.0

    def test_cv(self):
        assert coefficient_of_variation([3, 3, 3]) == 0.0
        assert coefficient_of_variation([]) == 0.0
        assert coefficient_of_variation([0, 2]) == pytest.approx(1.0)


class TestMetrics:
    def make(self):
        procs = [VirtualProcessor(1), VirtualProcessor(2)]
        procs[0].clock, procs[0].busy, procs[0].reductions = 10.0, 8.0, 8
        procs[1].clock, procs[1].busy, procs[1].reductions = 6.0, 6.0, 6
        procs[0].sends, procs[1].remote_bindings = 3, 2
        procs[0].peak_live_tasks = 4
        return MachineMetrics.from_processors(procs, library_cost=4.0, user_cost=12.0)

    def test_aggregates(self):
        m = self.make()
        assert m.makespan == 10.0
        assert m.total_busy == 14.0
        assert m.reductions == 14
        assert m.messages == 5
        assert m.max_peak_live_tasks == 4

    def test_efficiency(self):
        m = self.make()
        assert m.efficiency == pytest.approx(14.0 / 20.0)

    def test_library_fraction(self):
        m = self.make()
        assert m.library_fraction == pytest.approx(0.25)

    def test_summary_mentions_key_figures(self):
        text = self.make().summary()
        assert "P=2" in text and "makespan=10.0" in text


class TestTrace:
    def test_disabled_records_nothing(self):
        t = Trace(enabled=False)
        t.record(1.0, 1, "reduce", "p")
        assert len(t) == 0

    def test_enabled_records(self):
        t = Trace(enabled=True)
        t.record(1.0, 1, "reduce", "p")
        t.record(2.0, 2, "send", "q")
        assert len(t) == 2
        assert len(t.of_kind("reduce")) == 1

    def test_limit(self):
        t = Trace(enabled=True, limit=2)
        for i in range(5):
            t.record(float(i), 1, "x", "d")
        assert len(t) == 2
        assert t.dropped == 3
        assert "dropped" in t.format()

    def test_format_ordering(self):
        t = Trace(enabled=True)
        t.record(2.0, 1, "b", "later")
        t.record(1.0, 1, "a", "earlier")
        out = t.format()
        assert out.index("earlier") < out.index("later")

    def test_engine_trace_integration(self):
        from repro.strand import parse_program, run_query

        m = Machine(1, trace=True)
        run_query(parse_program("p :- q.\nq."), "p", machine=m)
        kinds = {e.kind for e in m.trace}
        assert "spawn" in kinds and "reduce" in kinds
