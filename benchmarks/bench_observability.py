"""Observability overhead: what causal tracing and profiling cost.

One fixed workload (TR1 tree-reduce on 4 processors) timed under five
instrumentation modes:

* **off** — tracing disabled, no profile.  This is the default engine
  configuration; the observability fast path is a single ``enabled``
  check per hot-path site.
* **ring** — tracing enabled into a bounded ring buffer (keeps the last
  N events); the steady-state cost of always-on tracing.
* **full** — tracing enabled, unbounded; every event retained.
* **profile** — tracing off, :class:`MotifProfile` attached; the cost of
  per-motif/per-predicate accounting alone.
* **sink** — full tracing streamed to a JSONL :class:`TraceSink`; the
  worst case (every event also serialised to disk).

Because the machine is a *virtual-time* simulator, instrumentation must
never change the computed answer, the schedule, or the makespan — the
bench asserts all three are identical across modes.  Timing uses CPU
time (``process_time``).  The modes run in turn, one round after another,
and a mode's overhead is the median over rounds of its run's time divided
by the ``off`` run of the same round: a drift of the host's speed reaches
both sides of each ratio, and one slow run moves the median little.

When the pre-PR baseline commit is reachable (``PRE_PR_REF``), the same
workload is also timed against a detached worktree of the engine *before*
the observability hooks existed.  Both sides run in identical fresh
subprocesses, interleaved in pairs over several rounds.  The headline
overhead is the **floor ratio** — best-of-all-samples current vs
best-of-all-samples baseline — the standard intrinsic-cost estimator,
robust to one-sided load spikes; the median per-pair ratio is reported
alongside for transparency.  Budget: **off-mode overhead ≤ 2%** vs that
baseline (documented in ``docs/OBSERVABILITY.md``; the full-run gate
allows 5% for timing noise).  The baseline comparison is *enforced* only
in the full configuration — the smoke/CI run reports it but gates only
the traced-mode budgets, because sub-100ms A/B timing on shared CI
runners flaps far beyond the margin being tested (and shallow clones may
lack the baseline commit entirely, which is reported as unavailable).

Run standalone with ``python benchmarks/bench_observability.py [--smoke]``
or under pytest with the rest of the benchmark suite.  Only the full
configuration run standalone rewrites ``benchmarks/BENCH_observability.json``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import process_time

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import reduce_tree
from repro.machine import Machine, MotifProfile, Trace, TraceSink

JSON_PATH = Path(__file__).parent / "BENCH_observability.json"
REPO_ROOT = Path(__file__).resolve().parent.parent

#: Last commit before the observability PR — the engine with no tracing
#: hooks at all.  Used for the off-mode overhead baseline when reachable.
PRE_PR_REF = "7c1827ec7fde42d85292e340b4ab7cb8e5b43168"

PROCESSORS = 4
SEED = 7
RING_LIMIT = 2048
MODES = ("off", "ring", "full", "profile", "sink")

#: Documented budgets (docs/OBSERVABILITY.md).  ``OFF_BUDGET`` is the
#: claim; ``OFF_CI_GATE`` is what CI enforces (headroom for noisy shared
#: runners).  ``TRACED_BUDGET`` caps every traced mode relative to off.
OFF_BUDGET = 0.02
OFF_CI_GATE = 0.05
TRACED_BUDGET = 4.0

FULL = {"leaves": 512, "repeats": 6, "baseline_rounds": 11,
        "gate_baseline": True}
SMOKE = {"leaves": 256, "repeats": 5, "baseline_rounds": 5,
         "gate_baseline": False}

#: Subprocess harness shared by both sides of the baseline comparison —
#: identical code path, only PYTHONPATH differs.  Sticks to API that
#: exists pre-PR (no trace/profile arguments).
_CHILD = """\
import json, sys
from time import process_time
from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import reduce_tree
from repro.machine import Machine
leaves, repeats, procs, seed = map(int, sys.argv[1:5])
walls = []
for _ in range(repeats):
    tree = arithmetic_tree(leaves, seed=3)
    machine = Machine(procs, seed=seed)
    start = process_time()
    result = reduce_tree(tree, eval_arith_node, machine=machine,
                         strategy='tr1')
    walls.append(process_time() - start)
print(json.dumps({'min_wall_s': min(walls), 'value': result.value}))
"""


def _run_once(leaves: int, mode: str, sink_path: Path | None = None):
    """One timed run; returns its CPU seconds and determinism fingerprints.
    Only these small values outlive the run, so no trace of one mode stays
    on the heap while the next mode runs."""
    tree = arithmetic_tree(leaves, seed=3)
    machine = Machine(PROCESSORS, seed=SEED)
    profile = None
    sink = None
    if mode in ("ring", "full", "sink"):
        machine.trace = Trace(
            enabled=True,
            limit=RING_LIMIT if mode == "ring" else None,
            ring=(mode == "ring"),
        )
    if mode == "profile":
        profile = MotifProfile()
    if mode == "sink":
        sink = TraceSink.open(sink_path, processors=PROCESSORS)
        machine.trace.attach_sink(sink)
    start = process_time()
    result = reduce_tree(
        tree, eval_arith_node, machine=machine, strategy="tr1",
        profile=profile,
    )
    wall = process_time() - start
    if sink is not None:
        sink.close()
    return wall, {
        "reductions": result.metrics.reductions,
        "events": len(machine.trace),
        "events_dropped": machine.trace.dropped,
        "value": result.value,
        "makespan": result.metrics.makespan,
    }


def measure(leaves: int, repeats: int) -> list[dict]:
    """min-of-N CPU time per mode, its overhead against ``off`` (the median
    of per-round ratios), and determinism fingerprints.  The modes take
    turns (off, ring, full, …, off, ring, …), so every run has an ``off``
    run of its own round."""
    walls: dict[str, list[float]] = {mode: [] for mode in MODES}
    facts = {}
    with tempfile.TemporaryDirectory() as tmp:
        sink_path = Path(tmp) / "trace.jsonl"
        for _ in range(repeats):
            for mode in MODES:
                wall, facts[mode] = _run_once(leaves, mode, sink_path)
                walls[mode].append(wall)
    rows = []
    for mode in MODES:
        wall, fact = min(walls[mode]), facts[mode]
        ratios = [t / off for t, off in zip(walls[mode], walls["off"])]
        rows.append({
            "mode": mode,
            "min_wall_s": round(wall, 6),
            "overhead_vs_off": round(statistics.median(ratios), 3),
            "reductions": fact["reductions"],
            "reductions_per_s": round(fact["reductions"] / wall),
            "events": fact["events"],
            "events_dropped": fact["events_dropped"],
            "value": fact["value"],
            "makespan": fact["makespan"],
        })
    return rows


def _child_time(pythonpath: Path, leaves: int, repeats: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pythonpath)
    ran = subprocess.run(
        [sys.executable, "-c", _CHILD, str(leaves), str(repeats),
         str(PROCESSORS), str(SEED)],
        cwd=REPO_ROOT, capture_output=True, text=True, env=env,
    )
    if ran.returncode != 0:
        raise RuntimeError(f"baseline child failed: {ran.stderr.strip()[-300:]}")
    return json.loads(ran.stdout)


def pre_pr_baseline(leaves: int, repeats: int, rounds: int) -> dict:
    """Paired off-vs-pre-PR comparison on a ``PRE_PR_REF`` worktree.

    Returns ``{"available": False, "why": ...}`` when the commit is not
    reachable (shallow clone) or the worktree cannot be created; the
    bench then skips the off-vs-baseline gate rather than fail CI.
    """
    probe = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", PRE_PR_REF + "^{commit}"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if probe.returncode != 0:
        return {"available": False, "why": "baseline commit not in clone"}
    with tempfile.TemporaryDirectory() as tmp:
        worktree = Path(tmp) / "pre_pr"
        added = subprocess.run(
            ["git", "worktree", "add", "--detach", str(worktree), PRE_PR_REF],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        if added.returncode != 0:
            return {"available": False,
                    "why": f"worktree add failed: {added.stderr.strip()}"}
        try:
            current_times, baseline_times = [], []
            current = baseline = None
            for _ in range(rounds):
                current = _child_time(REPO_ROOT / "src", leaves, repeats)
                baseline = _child_time(worktree / "src", leaves, repeats)
                current_times.append(current["min_wall_s"])
                baseline_times.append(baseline["min_wall_s"])
        except RuntimeError as e:
            return {"available": False, "why": str(e)}
        finally:
            subprocess.run(
                ["git", "worktree", "remove", "--force", str(worktree)],
                cwd=REPO_ROOT, capture_output=True, text=True,
            )
    ratios = [c / b for c, b in zip(current_times, baseline_times)]
    return {
        "available": True,
        "ref": PRE_PR_REF,
        "rounds": rounds,
        "value": baseline["value"],
        "current_value": current["value"],
        "floor_s": {"current": min(current_times),
                    "baseline": min(baseline_times)},
        "pair_ratios": [round(r, 4) for r in ratios],
        "median_pair_overhead": round(statistics.median(ratios) - 1.0, 4),
        "off_overhead": round(
            min(current_times) / min(baseline_times) - 1.0, 4),
    }


def run_bench(config) -> dict:
    leaves, repeats = config["leaves"], config["repeats"]
    # Warm the motif/compile caches so the first timed mode isn't charged
    # for one-time setup.
    _run_once(leaves, "off")

    rows = measure(leaves, repeats)
    off = rows[0]

    baseline = pre_pr_baseline(leaves, repeats, config["baseline_rounds"])

    payload = {
        "benchmark": "observability",
        "workload": (
            f"tree-reduce (TR1), {leaves} leaves, P={PROCESSORS}, "
            f"seed={SEED}, {repeats} rounds (CPU time: min per mode, "
            f"median per-round ratio to off)"
        ),
        "budgets": {
            "off_vs_pre_pr": OFF_BUDGET,
            "off_vs_pre_pr_ci_gate": OFF_CI_GATE,
            "traced_vs_off": TRACED_BUDGET,
        },
        "modes": rows,
        "pre_pr_baseline": baseline,
    }

    # Instrumentation must be invisible in virtual time: same answer,
    # same makespan, in every mode.
    for row in rows[1:]:
        assert row["value"] == off["value"], row
        assert row["makespan"] == off["makespan"], row
    # Off mode records nothing; traced modes record plenty; the ring
    # respects its bound.
    assert off["events"] == 0
    full = next(r for r in rows if r["mode"] == "full")
    ring = next(r for r in rows if r["mode"] == "ring")
    assert full["events"] > 0 and full["events_dropped"] == 0
    assert ring["events"] <= RING_LIMIT
    # Budget gates.
    for row in rows[1:]:
        assert row["overhead_vs_off"] <= TRACED_BUDGET, (
            f"{row['mode']} overhead {row['overhead_vs_off']}x exceeds "
            f"budget {TRACED_BUDGET}x"
        )
    if baseline.get("available"):
        assert baseline["value"] == off["value"]
        if config["gate_baseline"]:
            assert baseline["off_overhead"] <= OFF_CI_GATE, (
                f"tracing-off overhead {baseline['off_overhead']:.1%} vs "
                f"pre-PR engine exceeds the {OFF_CI_GATE:.0%} gate "
                f"(documented budget {OFF_BUDGET:.0%})"
            )
    return payload


def render(payload: dict) -> str:
    lines = [payload["workload"],
             f"{'mode':>8} {'cpu s':>9} {'red/s':>10} {'events':>7} "
             f"{'dropped':>8} {'vs off':>7}"]
    for row in payload["modes"]:
        lines.append(
            f"{row['mode']:>8} {row['min_wall_s']:>9.4f} "
            f"{row['reductions_per_s']:>10,} {row['events']:>7} "
            f"{row['events_dropped']:>8} {row['overhead_vs_off']:>6.2f}x"
        )
    baseline = payload["pre_pr_baseline"]
    if baseline.get("available"):
        lines.append(
            f"pre-PR baseline ({baseline['rounds']} paired rounds): "
            f"tracing-off overhead {baseline['off_overhead']:+.1%} "
            f"(budget {payload['budgets']['off_vs_pre_pr']:.0%})"
        )
    else:
        lines.append(f"pre-PR baseline unavailable: {baseline.get('why')}")
    return "\n".join(lines)


def test_observability_overhead(emit):
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
