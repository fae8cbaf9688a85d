"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from checkout import ROOT, use_checkout_source

use_checkout_source()

from layers import LAYERS  # noqa: E402
from run import benchmark  # noqa: E402
from workloads import WORKLOADS, counts, load_manifest  # noqa: E402

from repro import reduce_tree, reliable_reduce_tree  # noqa: E402
from repro.apps import trees  # noqa: E402
from repro.apps.arithmetic import eval_arith_node  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
MANIFEST = load_manifest()

SMALL = {
    "tr1_tree": {"inputs": 1, "leaves": 64, "processors": 8},
    "sieve": {"inputs": 1, "limit": [100, 110], "processors": 1},
    "reliable_lossy": {**MANIFEST["workloads"]["reliable_lossy"]["params"],
                       "inputs": 2, "leaves": 32},
    "crunch_parallel": {"inputs": 1, "processors": 4, "work": [50, 60], "workers": 2},
}


def small_result(name: str, trace: int) -> dict:
    workload = WORKLOADS[name](SMALL[name], seed=1)
    args = argparse.Namespace(workload=name, seed=1, seconds=0.2, trace=trace)
    return benchmark(workload, args)[0]


def test_benchmark_json_agrees_with_manifest():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(MANIFEST["workloads"])
    assert sorted(WORKLOADS) == sorted(MANIFEST["workloads"])
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert sorted(m["name"] for m in declared) == sorted(MANIFEST["metrics"])
    for metric in declared:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        assert metric["unit"] == MANIFEST["metrics"][metric["name"]]["unit"]
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_end_to_end_metrics(name):
    result = small_result(name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_per_layer_metrics(name):
    result = small_result(name, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # The layers' self times account for the traced run: the profiler's own
    # cost outside any function is the only gap.
    self_total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert self_total == pytest.approx(metrics["trace.run_s"], rel=0.15)
    if name == "crunch_parallel":
        assert metrics["parallel.commands"] > 0 and metrics["parallel.worker_cpu_s"] > 0
    else:
        assert metrics["other.self_s"] < 0.05 * self_total
        assert metrics["reducer.execute_calls"] >= metrics["machine.reductions"]
        assert metrics["parallel.commands"] == 0


def test_tree_workloads_run_what_the_public_api_runs():
    tr1 = WORKLOADS["tr1_tree"](SMALL["tr1_tree"], seed=2)
    tr1.setup()
    instance = tr1.instances[0]
    value, metrics = tr1.run(instance)
    tree = trees.tree_from_term(instance.term)
    api = reduce_tree(tree, eval_arith_node, processors=8, seed=instance.machine_seed)
    assert value == api.value == instance.expected
    assert counts(metrics) == counts(api.metrics)

    reliable = WORKLOADS["reliable_lossy"](SMALL["reliable_lossy"], seed=2)
    reliable.setup()
    instance = reliable.instances[0]
    value, metrics = reliable.run(instance)
    api = reliable_reduce_tree(
        trees.tree_from_term(instance.term), eval_arith_node,
        machine=reliable.machine(instance.machine_seed),
    )
    assert value == api.value == instance.expected
    assert counts(metrics) == counts(api.metrics)
    assert metrics.rel_retransmits > 0


def session_members(sid: int) -> list[int]:
    """Pids of the live or zombie processes in session ``sid`` (Linux)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while being read
            continue
        if int(fields[3]) == sid:
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_parallel_workload_leaves_no_process_behind():
    child = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "crunch_parallel", "--seed", "0",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        start_new_session=True,
    )
    out, _ = child.communicate(timeout=120)
    assert child.returncode == 0 and json.loads(out.splitlines()[-1])["correct"]
    assert session_members(child.pid) == []


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sieve", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
