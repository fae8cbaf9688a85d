"""Simulation invariants, property-tested over random workloads.

These are the statements that make virtual-time measurements trustworthy:
if any of them breaks, every benchmark number is suspect.
"""

from hypothesis import given, settings, strategies as st

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.apps.trees import sequential_reduce
from repro.core.api import reduce_tree
from repro.machine import Machine

_TOPOLOGIES = ["full", "ring", "mesh", "torus", "hypercube", "tree"]


def run(leaves, processors, topology, seed, strategy="tr1"):
    tree = arithmetic_tree(leaves, seed=seed)
    machine = Machine(processors, topology=topology, seed=seed)
    return reduce_tree(tree, eval_arith_node, processors=processors,
                       strategy=strategy, seed=seed, machine=machine,
                       eval_cost=7.0)


@given(
    leaves=st.integers(2, 12),
    log_p=st.integers(0, 3),
    topology=st.sampled_from(_TOPOLOGIES),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_accounting_invariants(leaves, log_p, topology, seed):
    processors = 1 << log_p  # power of two satisfies every topology
    result = run(leaves, processors, topology, seed)
    m = result.metrics
    procs = result.engine.machine.procs

    # 1. Per-processor busy time never exceeds its clock; the makespan is
    #    the max clock.
    for p in procs:
        assert p.busy <= p.clock + 1e-9
    assert m.makespan == max(p.clock for p in procs)

    # 2. Efficiency and fairness live in (0, 1].
    assert 0.0 < m.efficiency <= 1.0 + 1e-9
    assert 0.0 < m.fairness <= 1.0 + 1e-9
    assert m.imbalance >= 1.0 - 1e-9

    # 3. Aggregates equal per-processor sums.
    assert m.reductions == sum(p.reductions for p in procs)
    assert m.total_busy == sum(p.busy for p in procs)
    assert m.sends == sum(p.sends for p in procs)

    # 4. A processor's library cost is part of its charged work.
    for p in procs:
        assert 0.0 <= p.library_cost <= p.busy

    # 5. Every hop was carried by a message, and single-processor machines
    #    never communicate.
    if processors == 1:
        assert m.messages == 0 and m.hops == 0
    else:
        assert m.hops >= m.sends  # at least one hop per explicit send

    # 6. One node evaluation per internal node — never more, never fewer.
    assert m.tasks_started == (2 * leaves - 1) - leaves

    # 7. And, of course, the answer is the fold.
    tree = arithmetic_tree(leaves, seed=seed)
    assert result.value == sequential_reduce(tree, eval_arith_node)

    # 8. A reset machine starts with no cost split.
    assert m.library_cost > 0 and m.user_cost > 0
    machine = result.engine.machine
    machine.reset()
    reset = machine.metrics()
    assert (reset.library_cost, reset.user_cost) == (0.0, 0.0)


@given(
    leaves=st.integers(2, 10),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=15, deadline=None)
def test_sequential_machine_fully_busy(leaves, seed):
    result = run(leaves, 1, "full", seed, strategy="sequential")
    m = result.metrics
    # A single processor with no waiting has no idle time at all.
    assert m.efficiency == 1.0


@given(
    leaves=st.integers(4, 12),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=15, deadline=None)
def test_makespan_never_below_critical_work(leaves, seed):
    """The parallel run can never beat the heaviest single evaluation plus
    its mandatory predecessors — a weak but universal lower bound: the
    makespan is at least the cost of one eval."""
    result = run(leaves, 8, "full", seed)
    assert result.metrics.makespan >= 7.0
