"""Reliable delivery under message loss and partitions — delivered fraction
and protocol overhead, with and without the Reliable motif.

Two sweeps over the same tree-reduction workload, each run both *bare*
(``Server ∘ Rand ∘ Tree1``, no delivery protocol) and *reliable*
(``Server ∘ Reliable ∘ Rand ∘ Tree1``):

* **drop sweep** — per-message drop probability; the bare stack deadlocks
  as soon as one dispatch message is lost, the Reliable stack retransmits.
* **partition sweep** — a link cut severing processors {3, 4} at t=30 for
  a growing window; the Reliable stack rides through the heal.

A run *delivers* when it terminates with a bound result, and is *correct*
when that result equals the fault-free answer.  Overheads are same-seed
ratios against the mode's own fault-free baseline, so the protocol's
fixed cost (acks, sequence bookkeeping) is separated from its recovery
cost (retransmissions).  The Reliable column can itself fall short of
1.0 at high drop rates: the bootstrap spawns predate the protocol and
are unprotected (see ``docs/MOTIFS.md``) — the JSON reports that
honestly rather than cherry-picking seeds.

Run standalone with ``python benchmarks/bench_reliable_delivery.py
[--smoke]`` or under pytest with the rest of the benchmark suite.  Only the
full configuration rewrites ``benchmarks/BENCH_reliable_delivery.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import reduce_tree, reliable_reduce_tree
from repro.errors import ReproError, StrandError
from repro.machine import FaultPlan, Machine, Partition

JSON_PATH = Path(__file__).parent / "BENCH_reliable_delivery.json"

PROCESSORS = 4
CUT_GROUP = frozenset({3, 4})
CUT_START = 30.0  # after the server network bootstraps

FULL = {"leaves": 32, "tree_seed": 3, "seeds": range(5),
        "drop_rates": (0.0, 0.1, 0.2, 0.3),
        "durations": (0.0, 60.0, 120.0)}
SMOKE = {"leaves": 16, "tree_seed": 3, "seeds": range(2),
         "drop_rates": (0.0, 0.2),
         "durations": (0.0, 90.0)}


def run_once(tree, seed: int, faults: FaultPlan | None, reliable: bool):
    """One run; returns (value | None, metrics)."""
    machine = Machine(PROCESSORS, seed=seed, faults=faults)
    try:
        if reliable:
            result = reliable_reduce_tree(
                tree, eval_arith_node, machine=machine,
                max_reductions=2_000_000,
            )
        else:
            result = reduce_tree(
                tree, eval_arith_node, machine=machine, termination=False,
                max_reductions=2_000_000,
            )
    except (ReproError, StrandError):
        # Deadlock on a lost message, or a blown reduction budget: the
        # result was never delivered.
        return None, machine.metrics()
    return result.value, result.metrics


def _sweep_axis(tree, config, axis: str, conditions) -> tuple[list, int]:
    """Run every (axis value, fault plan) condition in both modes.

    Returns the result rows plus the fault-free expected value.  The first
    condition must be the fault-free one — it fixes the expected answer
    and the per-(mode, seed) makespan/message baselines for the overhead
    ratios.
    """
    expected = None
    baselines: dict[tuple[bool, int], tuple[float, int]] = {}
    rows = []
    for value, faults in conditions:
        for reliable in (False, True):
            delivered = correct = 0
            makespan_ratios, message_ratios = [], []
            retransmits = acks = unreachable = lost = 0
            for seed in config["seeds"]:
                result, metrics = run_once(tree, seed, faults, reliable)
                if faults is None:
                    baselines[(reliable, seed)] = (
                        metrics.makespan, metrics.messages,
                    )
                    if not reliable:
                        expected = result if expected is None else expected
                if result is not None:
                    delivered += 1
                    if result == expected:
                        correct += 1
                    base = baselines.get((reliable, seed))
                    if base and base[0]:
                        makespan_ratios.append(metrics.makespan / base[0])
                    if base and base[1]:
                        message_ratios.append(metrics.messages / base[1])
                retransmits += metrics.rel_retransmits
                acks += metrics.rel_acks
                unreachable += metrics.rel_unreachable
                lost += metrics.messages_dropped + metrics.partition_dropped
            n = len(list(config["seeds"]))
            rows.append({
                axis: value,
                "mode": "reliable" if reliable else "bare",
                "runs": n,
                "delivered_fraction": round(delivered / n, 3),
                "correct_fraction": round(correct / n, 3),
                "mean_makespan_overhead": (
                    round(sum(makespan_ratios) / len(makespan_ratios), 3)
                    if makespan_ratios else None
                ),
                "mean_message_overhead": (
                    round(sum(message_ratios) / len(message_ratios), 3)
                    if message_ratios else None
                ),
                "messages_lost": lost,
                "rel_retransmits": retransmits,
                "rel_acks": acks,
                "rel_unreachable": unreachable,
            })
    return rows, expected


def sweep(config) -> dict:
    tree = arithmetic_tree(config["leaves"], seed=config["tree_seed"])
    drop_conditions = [
        (rate, FaultPlan(drop_rate=rate) if rate > 0.0 else None)
        for rate in config["drop_rates"]
    ]
    partition_conditions = [
        (
            duration,
            FaultPlan(partitions=(
                Partition(CUT_GROUP, CUT_START, CUT_START + duration),
            )) if duration > 0.0 else None,
        )
        for duration in config["durations"]
    ]
    drop_rows, expected = _sweep_axis(tree, config, "drop_rate", drop_conditions)
    partition_rows, _ = _sweep_axis(
        tree, config, "partition_duration", partition_conditions
    )
    return {
        "benchmark": "reliable_delivery",
        "workload": (
            f"tree-reduce, {config['leaves']} leaves, P={PROCESSORS}, "
            f"bare (Server∘Rand∘Tree1) vs reliable "
            f"(Server∘Reliable∘Rand∘Tree1, default retry policy)"
        ),
        "expected_value": expected,
        "drop_sweep": drop_rows,
        "partition_sweep": partition_rows,
    }


def render(payload: dict) -> str:
    lines = [payload["workload"]]
    for axis, key in (("drop_sweep", "drop_rate"),
                      ("partition_sweep", "partition_duration")):
        lines.append(
            f"{key:>18} {'mode':>9} {'delivered':>10} {'correct':>8} "
            f"{'t-ovhd':>7} {'msg-ovhd':>9} {'lost':>5} {'retx':>5}"
        )
        for row in payload[axis]:
            t_ovhd = row["mean_makespan_overhead"]
            m_ovhd = row["mean_message_overhead"]
            lines.append(
                f"{row[key]:>18} {row['mode']:>9} "
                f"{row['delivered_fraction']:>10} "
                f"{row['correct_fraction']:>8} "
                f"{t_ovhd if t_ovhd is not None else '-':>7} "
                f"{m_ovhd if m_ovhd is not None else '-':>9} "
                f"{row['messages_lost']:>5} {row['rel_retransmits']:>5}"
            )
    return "\n".join(lines)


def run_bench(config) -> dict:
    payload = sweep(config)

    # Invariants regardless of scale: fault-free rows are perfect in both
    # modes, and Reliable never delivers less often than bare.
    for axis in ("drop_sweep", "partition_sweep"):
        rows = payload[axis]
        for row in rows[:2]:
            assert row["delivered_fraction"] == 1.0
            assert row["correct_fraction"] == 1.0
        by_value: dict = {}
        for row in rows:
            by_value.setdefault(list(row.values())[0], {})[row["mode"]] = row
        for pair in by_value.values():
            assert (
                pair["reliable"]["delivered_fraction"]
                >= pair["bare"]["delivered_fraction"]
            )
    assert payload["expected_value"] is not None
    return payload


def test_reliable_delivery(emit):
    payload = run_bench(SMOKE)
    emit(render(payload))


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small configuration for CI")
    args = parser.parse_args()
    payload = run_bench(SMOKE if args.smoke else FULL)
    print(render(payload))
    if not args.smoke:
        JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {JSON_PATH}")
