"""Run one benchmark workload, check its answers, and print its metrics.

    python3 perfbench/run.py --workload tr1_tree --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 5

A *run* builds a fresh virtual machine and engine for each of the
workload's inputs (the compiled program is cached), spawns the goal, runs
the engine and converts the answer to Python data.  Runs repeat for
``--seconds``; each answer is compared with a reference that does not use
the engine, and the machine's virtual counts must repeat exactly.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median cold
set-up in a fresh interpreter, see ``probe.py``), ``run_s`` (median run wall
time), ``reductions_per_s`` and ``peak_rss_mb``.  A calibration loop runs
before every run, and times are reported scaled to the host's reference
speed by the loop's median (see ``calibrate.py``); the unscaled median is
printed next to them.
``--trace 1`` spends half
the time on untraced runs and half on runs under ``cProfile`` and prints
the per-layer metrics (see ``layers.py``).  Human-readable lines come
first; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in its
own process and prints one table.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import platform
import pstats
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_S, loop_seconds
from checkout import use_checkout_source

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9
MIN_RUNS = 3
#: Share of the measuring time spent on calibration loops, so that the
#: loops' median is as well sampled for long runs as for short ones.
LOOP_SHARE = 0.15
PROBE_TIMEOUT_S = 60


@dataclass
class Runs:
    """What one measuring loop saw: each run's wall time and reductions,
    and the times of the calibration loops run between them."""

    seconds: list[float] = field(default_factory=list)
    loops: list[float] = field(default_factory=list)
    reductions: list[int] = field(default_factory=list)
    failed: int = 0

    @property
    def scale(self) -> float:
        """Factor from this process's wall time to reference-host time."""
        return REFERENCE_S / statistics.median(self.loops)

    @property
    def wall_s(self) -> float:
        return statistics.median(self.seconds)

    @property
    def run_s(self) -> float:
        return self.wall_s * self.scale

    @property
    def reductions_per_s(self) -> float:
        rates = [r / s for r, s in zip(self.reductions, self.seconds)]
        return statistics.median(rates) / self.scale


def check_answers(workload, outcomes, expected_counts) -> str | None:
    """Why one run's outcomes are wrong, or None when they are right."""
    from workloads import counts

    for instance, (value, metrics), want in zip(workload.instances, outcomes, expected_counts):
        if value != instance.expected:
            return f"wrong answer {str(value)[:60]} (expected {str(instance.expected)[:60]})"
        if counts(metrics) != want:
            return f"virtual counts {counts(metrics)} differ from {want}"
    return None


def warm_up(workload) -> tuple[list[tuple], list[str]]:
    """One untimed run of every input (and of every cross-check machine
    configuration); returns each input's virtual counts and any errors."""
    from workloads import counts

    expected, errors = [], []
    for instance in workload.instances:
        value, metrics = workload.run(instance)
        expected.append(counts(metrics))
        if value != instance.expected:
            errors.append(f"warm-up: wrong answer for input {len(expected)}")
        for options in workload.cross_checks:
            other_value, other_metrics = workload.run(instance, **options)
            if (other_value, counts(other_metrics)) != (value, counts(metrics)):
                errors.append(f"warm-up: {options} disagrees on input {len(expected)}")
    return expected, errors


def measure(workload, seconds: float, expected_counts, profiler=None) -> Runs:
    """Repeat runs for ``seconds`` (at least ``MIN_RUNS`` of them)."""
    runs = Runs()
    start = time.perf_counter()
    while len(runs.seconds) < MIN_RUNS or time.perf_counter() - start < seconds:
        gc.collect()
        budget = LOOP_SHARE * runs.seconds[-1] if runs.seconds else 0.0
        calibrated = 0.0
        while calibrated == 0.0 or calibrated < budget:
            runs.loops.append(loop_seconds())
            calibrated += runs.loops[-1]
        error = None
        t0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outcomes = [workload.run(instance) for instance in workload.instances]
        except Exception as exc:  # a failed run is counted, not fatal
            error, outcomes = f"{type(exc).__name__}: {str(exc)[:200]}", []
        finally:
            if profiler is not None:
                profiler.disable()
        elapsed = time.perf_counter() - t0
        runs.seconds.append(elapsed)
        error = error or check_answers(workload, outcomes, expected_counts)
        if error is not None:
            runs.failed += 1
            if runs.failed == 1:
                print(f"run failed: {error}", file=sys.stderr)
            runs.reductions.append(0)
            continue
        runs.reductions.append(sum(m.reductions for _, m in outcomes))
    return runs


def probe_setup(name: str, seed: int, scale: float) -> list[dict]:
    """Cold set-up timings from ``SETUP_PROBES`` fresh interpreters,
    times multiplied by ``scale``."""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        probes.append({
            key: value * scale if key.endswith("_s") else value for key, value in probe.items()
        })
    return probes


def median_of(probes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in probes)


def end_to_end(workload, args, expected_counts) -> tuple[Runs, dict]:
    runs = measure(workload, args.seconds, expected_counts)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes = probe_setup(args.workload, args.seed, runs.scale)
    return runs, {
        "setup_s": median_of(probes, "setup_s"),
        "run_s": runs.run_s,
        "reductions_per_s": runs.reductions_per_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, args, expected_counts, children_rss_kb) -> tuple[Runs, dict]:
    from layers import layer_metrics
    from workloads import COUNTS

    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    plain = measure(workload, args.seconds / 2, expected_counts)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    worker_cpu_s = (
        (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    ) / len(plain.seconds)
    # The children's peak starts at a small inherited value; it only moves
    # once a worker process has been reaped.
    worker_peak_rss_mb = after.ru_maxrss / 1024 if after.ru_maxrss > children_rss_kb else 0.0

    profiler = cProfile.Profile()
    traced = measure(workload, args.seconds / 2, expected_counts, profiler)
    stats = pstats.Stats(profiler).stats
    foreign = [workload.foreign.lookup(*ind).fn for ind in workload.foreign.indicators()]
    metrics = layer_metrics(stats, len(traced.seconds), sum(traced.reductions), foreign)
    probes = probe_setup(args.workload, args.seed, plain.scale)
    metrics.update({
        "parser.s": median_of(probes, "parse_s"),
        "parser.rules": probes[0]["rules_in"],
        "motif.apply_s": median_of(probes, "apply_s"),
        "motif.rules_out": probes[0]["rules_out"],
        "compile.s": median_of(probes, "compile_s"),
        "parallel.worker_cpu_s": worker_cpu_s,
        "parallel.cpu_per_wall": worker_cpu_s / plain.wall_s,
        "parallel.worker_peak_rss_mb": worker_peak_rss_mb,
        "trace.run_s": traced.wall_s,
        "trace_overhead": traced.run_s / plain.run_s,
        "run.wall_s": plain.wall_s,
        "host.calibration_s": statistics.median(plain.loops + traced.loops),
    })
    for name, value in zip(COUNTS, map(sum, zip(*expected_counts))):
        metrics[f"machine.{name}"] = value
    runs = Runs(
        plain.seconds + traced.seconds,
        plain.loops + traced.loops,
        plain.reductions + traced.reductions,
        plain.failed + traced.failed,
    )
    return runs, metrics


def benchmark(workload, args) -> tuple[dict, Runs]:
    """Set ``workload`` up, warm it and measure it.  Returns the result
    object (``correct``, ``attempted``, ``failed``, ``metrics``) and the
    runs it was computed from."""
    from workloads import load_manifest

    children_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workload.setup()
    expected_counts, errors = warm_up(workload)
    for error in errors:
        print(error, file=sys.stderr)
    if args.trace:
        runs, values = per_layer(workload, args, expected_counts, children_rss_kb)
    else:
        runs, values = end_to_end(workload, args, expected_counts)
    units = {name: spec["unit"] for name, spec in load_manifest()["metrics"].items()}
    return {
        "correct": runs.failed == 0 and not errors,
        "attempted": len(runs.seconds),
        "failed": runs.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in sorted(values.items())
        },
    }, runs


def run_one(args) -> int:
    from workloads import load_workload

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(HERE.parent):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from this checkout")
    result, runs = benchmark(load_workload(args.workload, args.seed), args)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  python {platform.python_version()}")
    for name, metric in result["metrics"].items():
        print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'runs':36s} {result['attempted']:>14d} (timings are medians over them)")
    if not args.trace:
        print(f"  {'run_s before scaling':36s} {runs.wall_s:>14.6g} s")
        print(f"  {'calibration loop':36s} {statistics.median(runs.loops):>14.6g} s"
              f" (reference {REFERENCE_S} s)")
    print(f"  {'failed_frac':36s} {result['failed'] / result['attempted']:>14.6g} fraction")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    from workloads import load_manifest

    columns = ("setup_s", "run_s", "reductions_per_s", "peak_rss_mb")
    rows = []
    for name in load_manifest()["workloads"]:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        rows.append((name, json.loads(done.stdout.strip().splitlines()[-1])))
    units = rows[0][1]["metrics"]
    print(f"{'workload':16s}" + "".join(f"{c + ' (' + units[c]['unit'] + ')':>24s}" for c in columns)
          + f"{'failed_frac':>14s}{'runs':>6s}")
    for name, result in rows:
        cells = "".join(f"{result['metrics'][c]['value']:>24.6g}" for c in columns)
        frac = result["failed"] / result["attempted"]
        print(f"{name:16s}{cells}{frac:>14.3g}{result['attempted']:>6d}")
    return 0 if all(result["correct"] for _, result in rows) else 1


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The parallel backend's ``spawn`` workers are joined after every run,
    but the first of them also starts a tracker process that otherwise
    lives on briefly after this process exits."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    use_checkout_source()
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(main())
