"""Engine throughput — infrastructure benchmark (not a paper experiment).

Tracks the runtime's reductions-per-second on four canonical shapes —
the Figure-1 rendezvous (suspension-heavy), the Eratosthenes sieve
(process-chain-heavy), a multi-processor tree reduction (scheduler- and
message-heavy), and a 64-way multi-rule dispatch loop (rule-selection-heavy,
run with its switch and as a copy that has nothing to switch on) — so
engine regressions show up in CI.

Run standalone with ``python benchmarks/bench_engine_throughput.py`` or
under pytest with the rest of the benchmark suite.  Only the standalone run
rewrites the dispatch comparison in ``benchmarks/BENCH_engine_throughput.json``.
"""

import json
import time
from pathlib import Path

from repro.analysis import Table
from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import reduce_tree
from repro.machine import Machine
from repro.strand import Rule, Struct, Var, parse_program, run_query

JSON_PATH = Path(__file__).parent / "BENCH_engine_throughput.json"

FIGURE1 = parse_program("""
go(N) :- producer(N, Xs, sync), consumer(Xs).
producer(N, Xs, _Sync) :- N > 0 |
    Xs := [X | Xs1], N1 := N - 1, producer(N1, Xs1, X).
producer(0, Xs, _) :- Xs := [].
consumer([X | Xs]) :- X := sync, consumer(Xs).
consumer([]).
""", name="figure1")

SIEVE = parse_program(
    (Path(__file__).parent.parent / "examples" / "strand" / "sieve.str").read_text(),
    name="sieve",
)


def run_figure1():
    return run_query(FIGURE1, "go(1500)", machine=Machine(1)).metrics


def run_sieve():
    return run_query(SIEVE, "primes(400, _Ps)", machine=Machine(1)).metrics


def run_tree():
    tree = arithmetic_tree(128, seed=1)
    return reduce_tree(tree, eval_arith_node, processors=8, strategy="tr1",
                       seed=1).metrics


# 64-way dispatch: every reduction of loop/2 must select among 64 rules
# whose first arguments are distinct integer keys — the workload where
# switching on an argument pays and a linear rule scan is O(rules).
_DISPATCH_K = 64
DISPATCH = parse_program(
    "\n".join(
        f"loop({i}, N) :- N > 0 | N1 := N - 1, K := N1 mod {_DISPATCH_K}, "
        f"loop(K, N1)."
        for i in range(_DISPATCH_K)
    )
    + "\nloop(_, 0)."
    + f"\ngo(N) :- K := N mod {_DISPATCH_K}, loop(K, N).",
    name="dispatch",
)


# The same loop with the key tested by a guard: every loop/2 head is two
# variables, so there is nothing to switch on and each reduction scans the
# rules in order.  The terminating rule tests N in a guard too.
UNINDEXED = parse_program(
    "\n".join(
        f"loop(N, K) :- K =:= {i}, N > 0 | N1 := N - 1, K1 := N1 mod {_DISPATCH_K}, "
        f"loop(N1, K1)."
        for i in range(_DISPATCH_K)
    )
    + f"\ngo(N) :- K := N mod {_DISPATCH_K}, loop(N, K).",
    name="dispatch-unindexed",
)
_N = Var("N")
UNINDEXED.add_rule(Rule(Struct("loop", (_N, Var("_"))), [Struct("=:=", (_N, 0))]))


def run_dispatch(program):
    return run_query(program, "go(10000)", machine=Machine(1)).metrics


def _timed(runner, *args):
    t0 = time.perf_counter()
    metrics = runner(*args)
    dt = time.perf_counter() - t0
    return metrics, dt


def test_engine_throughput(emit, benchmark):
    table = Table(
        "engine throughput (wall clock, informational)",
        ["workload", "reductions", "seconds", "reductions/s"],
    )
    for name, runner in (("figure1 rendezvous", run_figure1),
                         ("sieve of Eratosthenes", run_sieve),
                         ("tree-reduce-1 P=8", run_tree)):
        metrics, dt = _timed(runner)
        table.add(name, metrics.reductions, dt, metrics.reductions / dt)
        # Guard against catastrophic interpreter regressions.
        assert metrics.reductions / dt > 5_000
    emit(table)

    benchmark(run_sieve)


def dispatch_comparison():
    """Best-of-3 rates of the indexed and the unindexed dispatch loop."""
    # Warm up both programs' compile caches so neither run pays compilation.
    run_dispatch(DISPATCH)
    run_dispatch(UNINDEXED)

    rates = {}
    reductions = {}
    table = Table(
        f"multi-rule dispatch (K={_DISPATCH_K}, indexed vs linear)",
        ["rule selection", "reductions", "seconds", "reductions/s"],
    )
    for label, program in (("indexed", DISPATCH), ("linear", UNINDEXED)):
        best = 0.0
        for _ in range(3):
            metrics, dt = _timed(run_dispatch, program)
            best = max(best, metrics.reductions / dt)
            reductions[label] = metrics.reductions
        rates[label] = best
        table.add(label, reductions[label],
                  reductions[label] / best, best)
    speedup = rates["indexed"] / rates["linear"]
    table.add("speedup", "", "", f"{speedup:.2f}x")
    payload = {
        "benchmark": "engine_throughput.dispatch",
        "workload": f"go(10000), K={_DISPATCH_K} dispatch rules",
        "reductions": reductions["indexed"],
        "linear_reductions": reductions["linear"],
        "indexed_reductions_per_sec": round(rates["indexed"], 1),
        "linear_reductions_per_sec": round(rates["linear"], 1),
        "speedup": round(speedup, 3),
    }
    return payload, table


def check_dispatch(payload):
    # The same loop either way: the unindexed copy changes time, never
    # the reductions.
    assert payload["reductions"] == payload["linear_reductions"]
    # The acceptance bar for this optimisation is 1.5x over the seed's
    # linear interpreter; measured headroom is well above this conservative
    # in-tree guard (which only compares against the compiled linear scan).
    speedup = payload["speedup"]
    assert speedup > 1.2, f"indexing speedup collapsed: {speedup:.2f}x"


def test_dispatch_indexing_speedup(emit):
    """The switch on the first argument vs. the unswitchable copy of the
    64-way dispatch loop."""
    payload, table = dispatch_comparison()
    emit(table)
    check_dispatch(payload)


if __name__ == "__main__":
    payload, table = dispatch_comparison()
    print(table.render())
    check_dispatch(payload)
    JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {JSON_PATH}")
