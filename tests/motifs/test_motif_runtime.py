"""Golden runs of the Reliable and Supervise stacks.

Each run pins what the motif runtime produces end to end: the answer, the
library/user cost split, every fault and reliability counter, the per-motif
profile, and the causal trace as its ``(kind, proc, motif, cause)``
sequence.  Moving the motif primitives between modules, or changing how
they are dispatched and accounted, must leave all of it unchanged.
"""

import hashlib

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import reliable_reduce_tree, supervised_reduce_tree
from repro.machine import FaultPlan, Machine, Partition
from repro.machine.profile import MotifProfile

TREE = arithmetic_tree(16, seed=3)

COUNTER_NAMES = (
    "crashes", "messages_dropped", "messages_delayed", "messages_duplicated",
    "partition_dropped", "processes_abandoned", "processes_migrated",
    "orphaned_suspensions", "sup_timeouts", "sup_retries", "sup_degraded",
    "rel_retransmits", "rel_acks", "rel_duplicates_suppressed",
    "rel_unreachable", "trace_dropped",
)


def _counters(**nonzero):
    return {name: nonzero.get(name, 0) for name in COUNTER_NAMES}


def _trace_shape(result):
    events = [(e.kind, e.proc, e.motif, e.cause) for e in result.engine.machine.trace]
    digest = hashlib.sha256(repr(events).encode()).hexdigest()
    return len(events), digest


def _reliable_run():
    profile = MotifProfile()
    machine = Machine(4, seed=0, trace=True, faults=FaultPlan(
        partitions=(Partition(frozenset({3, 4}), 30.0, 120.0),),
        duplicate_rate=0.3,
    ))
    result = reliable_reduce_tree(TREE, eval_arith_node, machine=machine,
                                  profile=profile)
    return result, profile


def _supervised_run():
    profile = MotifProfile()
    machine = Machine(4, seed=2, trace=True, faults=FaultPlan(crash_rate=0.3))
    result = supervised_reduce_tree(TREE, eval_arith_node, machine=machine,
                                    profile=profile)
    return result, profile


class TestReliableGolden:
    def test_value_and_cost_split(self):
        result, _ = _reliable_run()
        assert result.value == 5781
        assert (result.metrics.library_cost, result.metrics.user_cost) == (315.0, 15.0)

    def test_counters(self):
        result, _ = _reliable_run()
        assert result.metrics.counters() == _counters(
            messages_duplicated=1, partition_dropped=6,
            rel_retransmits=6, rel_acks=15, rel_duplicates_suppressed=1,
        )

    def test_profile(self):
        _, profile = _reliable_run()
        assert profile.by_motif() == {
            "server[ports]": [321, 40, 20, 315.0],
            "user": [15, 30, 0, 15.0],
        }

    def test_trace(self):
        result, _ = _reliable_run()
        count, digest = _trace_shape(result)
        assert count == 1034
        assert digest == (
            "45be7db3c69aaafe71e8e74458a568233f7ee417b26198b6713f763071932838"
        )


class TestSupervisedGolden:
    def test_value_and_cost_split(self):
        result, _ = _supervised_run()
        assert result.value == 5781
        assert (result.metrics.library_cost, result.metrics.user_cost) == (1830.0, 70.0)

    def test_counters(self):
        result, _ = _supervised_run()
        assert result.metrics.counters() == _counters(
            crashes=1, messages_dropped=23, orphaned_suspensions=1,
            sup_timeouts=37, sup_retries=37,
        )

    def test_profile(self):
        _, profile = _supervised_run()
        assert profile.by_motif() == {
            "server[ports]": [1310, 232, 84, 1273.0],
            "supervise": [594, 107, 44, 557.0],
            "user": [70, 140, 0, 70.0],
        }

    def test_trace(self):
        result, _ = _supervised_run()
        count, digest = _trace_shape(result)
        assert count == 6146
        assert digest == (
            "e8ed3400020811442a1b62f4474c1dd37e0f76fc08ee1939f86b5874daa1d71f"
        )
