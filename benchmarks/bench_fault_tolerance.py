"""Fault tolerance of the Supervise motif stack — completion rate and
recovery overhead versus injected failure rate.

For each crash rate the supervised tree reduction runs on several machine
seeds; a run *completes correctly* when it returns the fault-free answer,
*degrades* when retries were exhausted and a fallback leaked into the
result, and *fails* when the run deadlocks (e.g. the monitor channel was
severed before supervision could start).  Recovery overhead is the
makespan ratio against the fault-free run on the same seed.

Run standalone with ``python benchmarks/bench_fault_tolerance.py
[--smoke]`` or under pytest with the rest of the benchmark suite.  Only the
full configuration rewrites ``benchmarks/BENCH_fault_tolerance.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import supervised_reduce_tree
from repro.errors import ReproError, StrandError
from repro.machine import FaultPlan, Machine

JSON_PATH = Path(__file__).parent / "BENCH_fault_tolerance.json"

PROCESSORS = 4
TIMEOUT = 600.0
RETRIES = 3
# Crashes start after the server network bootstraps (it is up within ~20
# virtual time units on 4 processors) so the sweep measures supervision,
# not boot-time fragility.
CRASH_WINDOW = (25.0, 250.0)

FULL = {"leaves": 32, "tree_seed": 3, "seeds": range(5),
        "rates": (0.0, 0.15, 0.3, 0.5)}
SMOKE = {"leaves": 16, "tree_seed": 3, "seeds": range(2),
         "rates": (0.0, 0.3)}


def run_once(tree, seed: int, crash_rate: float):
    """One supervised run; returns (value | None, metrics | None)."""
    faults = None
    if crash_rate > 0.0:
        faults = FaultPlan(crash_rate=crash_rate, crash_window=CRASH_WINDOW)
    machine = Machine(PROCESSORS, seed=seed, faults=faults)
    try:
        result = supervised_reduce_tree(
            tree, eval_arith_node, machine=machine,
            retries=RETRIES, timeout=TIMEOUT, max_reductions=2_000_000,
        )
    except (ReproError, StrandError):
        # Deadlock (severed supervision channel) or a blown reduction
        # budget both count as a failed run.
        return None, machine.metrics()
    return result.value, result.metrics


def sweep(config) -> dict:
    tree = arithmetic_tree(config["leaves"], seed=config["tree_seed"])
    expected = None
    baselines: dict[int, float] = {}
    rows = []
    for rate in config["rates"]:
        completed = correct = 0
        overheads = []
        retries = degraded = crashes = 0
        for seed in config["seeds"]:
            value, metrics = run_once(tree, seed, rate)
            if rate == 0.0:
                # Fault-free pass fixes the expected answer and the
                # per-seed makespan baselines for the overhead ratio.
                expected = value if expected is None else expected
                baselines[seed] = metrics.makespan
            if value is not None:
                completed += 1
                if value == expected:
                    correct += 1
                base = baselines.get(seed)
                if base:
                    overheads.append(metrics.makespan / base)
            if metrics is not None:
                retries += metrics.sup_retries
                degraded += metrics.sup_degraded
                crashes += metrics.crashes
        n = len(list(config["seeds"]))
        rows.append({
            "crash_rate": rate,
            "runs": n,
            "completion_rate": round(completed / n, 3),
            "correct_rate": round(correct / n, 3),
            "mean_recovery_overhead": (
                round(sum(overheads) / len(overheads), 3) if overheads else None
            ),
            "crashes": crashes,
            "sup_retries": retries,
            "sup_degraded": degraded,
        })
    return {
        "benchmark": "fault_tolerance",
        "workload": (
            f"supervised tree-reduce, {config['leaves']} leaves, "
            f"P={PROCESSORS}, retries={RETRIES}, timeout={TIMEOUT}"
        ),
        "expected_value": expected,
        "rows": rows,
    }


def render(payload: dict) -> str:
    lines = [payload["workload"],
             f"{'crash_rate':>10} {'complete':>9} {'correct':>8} "
             f"{'overhead':>9} {'retries':>8} {'degraded':>9}"]
    for row in payload["rows"]:
        overhead = row["mean_recovery_overhead"]
        lines.append(
            f"{row['crash_rate']:>10} {row['completion_rate']:>9} "
            f"{row['correct_rate']:>8} "
            f"{overhead if overhead is not None else '-':>9} "
            f"{row['sup_retries']:>8} {row['sup_degraded']:>9}"
        )
    return "\n".join(lines)


def run_bench(config) -> dict:
    payload = sweep(config)

    # Invariants the sweep must uphold regardless of scale: the fault-free
    # column is perfect, and every fault-free run is makespan-baseline 1.0.
    base = payload["rows"][0]
    assert base["crash_rate"] == 0.0
    assert base["completion_rate"] == 1.0
    assert base["correct_rate"] == 1.0
    assert payload["expected_value"] is not None
    return payload


def test_fault_tolerance(emit):
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
