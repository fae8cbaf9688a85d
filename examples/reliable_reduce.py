#!/usr/bin/env python
"""Reliable tree reduction riding through a healing network partition.

The Reliable motif (``Server ∘ Reliable ∘ Rand ∘ Tree1``) rewrites every
``send`` into an acked ``rsend``: each message carries a sequence token,
races its ack against a retransmit timer with capped exponential
backoff, and the receive side acks-then-dedups so retransmissions and
network duplicates dispatch exactly once.

This script reduces the same 16-leaf arithmetic tree four times on a
4-processor virtual machine:

1. fault-free — every message acked on first post, zero retransmits;
2. processors {3, 4} cut off from t=30 to t=120 — messages crossing the
   cut are lost until the heal, then retransmission delivers them all;
3. 30% duplicate delivery — the seen-set suppresses every replay;
4. 20% message drops with the Supervise layer composed underneath
   (``Server ∘ Reliable ∘ Rand ∘ Supervise ∘ Tree1′``) — even a server
   whose *bootstrap* spawn was lost (the one message the protocol cannot
   protect) is reported unreachable, and supervision re-dispatches its
   work elsewhere.

Fault injection is deterministic — partitions, drops, and duplicates all
come from the machine's seeded RNG — so every line this prints is
exactly reproducible.

Run:  python examples/reliable_reduce.py
"""

from repro import reliable_reduce_tree
from repro.analysis import Table
from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.machine import FaultPlan, Machine, Partition
from repro.motifs.reliable import reliable_state

PROCESSORS = 4


def main() -> None:
    tree = arithmetic_tree(16, seed=3)

    table = Table(
        "Reliable Tree-Reduce under message faults (P=4)",
        ["scenario", "value", "virtual time", "lost", "retransmit",
         "acks", "dedup", "unreachable"],
    )

    scenarios = [
        ("fault-free", 0, None, {}),
        ("partition {p3,p4} t=30..120", 1,
         FaultPlan(partitions=(Partition(frozenset({3, 4}), 30.0, 120.0),)),
         {}),
        ("30% duplicates", 0, FaultPlan(duplicate_rate=0.3), {}),
        ("20% drops + Supervise", 2, FaultPlan(drop_rate=0.2),
         {"supervise": True, "sup_timeout": 400.0}),
    ]
    baseline = None
    for label, seed, faults, overrides in scenarios:
        machine = Machine(PROCESSORS, seed=seed, faults=faults)
        result = reliable_reduce_tree(
            tree, eval_arith_node, machine=machine, **overrides
        )
        m = result.metrics
        table.add(
            label, result.value, m.makespan,
            m.messages_dropped + m.partition_dropped,
            m.rel_retransmits, m.rel_acks,
            m.rel_duplicates_suppressed, m.rel_unreachable,
        )
        unreachable = reliable_state(result.engine).unreachable
        if unreachable:
            nodes = sorted({n for _, n, _ in unreachable})
            print(f"  [{label}] destinations reported unreachable: "
                  f"{', '.join(f'p{n}' for n in nodes)}")
        if baseline is None:
            baseline = result.value
        else:
            assert result.value == baseline, "reliable delivery kept the answer"
    table.note(
        "every lost message is retransmitted after the cut heals; duplicates "
        "dispatch exactly once; unreachable servers are reported, not hung on"
    )
    table.show()


if __name__ == "__main__":
    main()
