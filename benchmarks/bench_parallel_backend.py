"""Parallel backend — sequential-vs-N-workers wall-clock speedup curve.

Infrastructure benchmark (not a paper experiment): the simulator's results
are defined in *virtual* time, but the parallel backend exists to spend
less *wall-clock* time computing them.  This benchmark runs one
embarrassingly parallel workload — every virtual processor crunching an
independent arithmetic loop, so almost every reduction is shard-local — on
the sequential backend and on the parallel backend at 1, 2, and 4 workers,
asserting the results are identical and recording the speedup curve.
The loops send almost nothing across shards, so the epoch barriers come
from the reduction budget, not from traffic: ``EPOCH_REDUCTIONS`` attempts
after a round that routed messages, doubling over quiet rounds up to
``MAX_EPOCH_REDUCTIONS``.  Each row records the epoch count and the
worker-epochs (active workers summed over epochs) from the run's telemetry.

Wall-clock speedup is bounded by the host's core count: worker processes
multiplex onto the CPUs the container actually has, so on a single-core
runner every parallel configuration *loses* (the epoch protocol and
process startup are pure overhead).  The JSON therefore records
``cpu_count`` next to the curve; read the speedups against it.  Every
parallel run also pays worker start-up — spawning the processes,
``import repro`` in each, unpickling the program — of roughly 0.2–0.5 s on
a 2-core host, which keeps the 2-worker speedup on this few-second
workload well short of 2x.  A worker pool kept alive across runs would
remove that cost; the backend does not have one yet.

Run with ``python benchmarks/bench_parallel_backend.py [--smoke]`` or under
pytest with the rest of the benchmark suite.  Only the full configuration
rewrites ``benchmarks/BENCH_parallel_backend.json``; each configuration's
wall time is the median of its repeats.
"""

import json
import os
import statistics
import time
from pathlib import Path

from repro.analysis import Table
from repro.machine import Machine
from repro.strand import parse_program, run_query

JSON_PATH = Path(__file__).parent / "BENCH_parallel_backend.json"

# Each of N virtual processors runs an independent W-iteration arithmetic
# loop: confluent (no message races), shard-local, reduction-heavy.
CRUNCH = """
go(N, W, Out) :- spread(N, W, Out).
spread(0, _W, Out) :- Out := [].
spread(N, W, Out) :- N > 0 |
    Out := [V | Rest],
    crunch(W, 0, V) @ N,
    N1 := N - 1,
    spread(N1, W, Rest).
crunch(0, Acc, V) :- V := Acc.
crunch(W, Acc, V) :- W > 0 |
    Acc1 := Acc + W,
    W1 := W - 1,
    crunch(W1, Acc1, V).
"""

FULL = {"processors": 8, "work": 4000, "workers": (1, 2, 4), "seed": 11,
        "repeats": 5}
SMOKE = {"processors": 4, "work": 400, "workers": (1, 2), "seed": 11,
         "repeats": 1}


def run_once(config, backend: str, workers: int | None = None):
    machine = Machine(
        config["processors"], seed=config["seed"], backend=backend,
        workers=workers,
    )
    program = parse_program(CRUNCH, name="crunch")
    query = f"go({config['processors']}, {config['work']}, Out)"
    start = time.perf_counter()
    result = run_query(program, query, machine=machine)
    elapsed = time.perf_counter() - start
    return result.value("Out"), result.metrics, elapsed


def run_bench(config) -> dict:
    """Run every configuration once per repeat, interleaved so that host
    speed drift hits all of them alike; report each one's median."""
    configs = [("sequential", None)] + [
        ("parallel", workers) for workers in config["workers"]
    ]
    times: dict = {key: [] for key in configs}
    last: dict = {}
    for _ in range(config["repeats"]):
        for key in configs:
            value, metrics, elapsed = run_once(config, *key)
            times[key].append(elapsed)
            last[key] = (value, metrics)
    seq_value = last["sequential", None][0]
    seq_elapsed = statistics.median(times["sequential", None])
    rows = []
    for key in configs:
        backend, workers = key
        value, metrics = last[key]
        elapsed = statistics.median(times[key])
        equal = value == seq_value
        assert equal, (
            f"parallel backend ({workers} workers) diverged from sequential"
        )
        telemetry = metrics.parallel
        rows.append({
            "backend": backend, "workers": workers or 0,
            "wall_seconds": round(elapsed, 4),
            "wall_seconds_runs": [round(t, 4) for t in times[key]],
            "speedup": round(seq_elapsed / elapsed, 3),
            "reductions": metrics.reductions, "equal": equal,
            "epochs": telemetry.epochs if telemetry else 0,
            "worker_epochs": telemetry.worker_epochs if telemetry else 0,
        })
    payload = {
        "benchmark": "parallel_backend.speedup",
        "workload": (
            f"go({config['processors']}, {config['work']}, Out) — "
            f"{config['processors']} independent {config['work']}-step "
            "arithmetic loops"
        ),
        "cpu_count": os.cpu_count(),
        "repeats": config["repeats"],
        "note": (
            "wall-clock speedup is bounded by cpu_count: worker processes "
            "share the host's cores, so speedup > 1.3x at 4 workers "
            "requires a host with at least 4 cores; on fewer cores the "
            "curve records protocol+startup overhead instead.  Every "
            "parallel run includes worker start-up (spawn, import, "
            "unpickling the program)"
        ),
        "rows": rows,
    }
    return payload


def render(payload: dict) -> str:
    table = Table(
        "parallel backend  sequential-vs-N-workers wall-clock "
        f"(host cpu_count={payload['cpu_count']})",
        ["backend", "workers", "wall seconds", "speedup", "reductions",
         "epochs", "worker-epochs", "equal results"],
    )
    for row in payload["rows"]:
        table.add(row["backend"], row["workers"] or "-",
                  row["wall_seconds"], row["speedup"], row["reductions"],
                  row["epochs"] or "-", row["worker_epochs"] or "-",
                  row["equal"])
    table.note(payload["note"])
    return table.render()


def test_parallel_backend_speedup(emit):
    payload = run_bench(SMOKE)
    emit(render(payload))
    assert all(row["equal"] for row in payload["rows"])


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small configuration for CI")
    args = parser.parse_args()
    payload = run_bench(SMOKE if args.smoke else FULL)
    print(render(payload))
    if not args.smoke:
        JSON_PATH.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"\nwrote {JSON_PATH}")
