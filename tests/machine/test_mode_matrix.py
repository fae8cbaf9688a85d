"""Every way of running a program gives the same answer.

One differential harness over the execution modes: observation
(untraced, full trace, ring trace, per-motif profile) on the sequential
backend, and untraced or fully traced runs on the parallel backend (two
workers).  Hypothesis draws
the input size, the processor count and the seed.

* Sequential runs must agree on the answer and on every machine metric
  except ``trace_dropped`` (which only a bounded trace can raise).
* Parallel runs must give the sequential answer, and agree among
  themselves on every metric (the merged counters and the epoch telemetry
  are deterministic for a given seed and worker count).  Their virtual-time
  metrics may differ from the sequential ones: shards advance their clocks
  independently between epoch barriers.
* Every traced run must be causally sound.

Per-motif profiling is not available on the parallel backend; that stays
a pinned ``NotImplementedError``.
"""

import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.trees import balanced_tree, sequential_reduce
from repro.core.api import reduce_tree
from repro.machine import Machine
from repro.machine.profile import MotifProfile
from repro.machine.trace import Trace
from repro.strand import parse_program, run_query
from tests.machine.test_trace_causality import assert_causally_sound

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "strand"


def _example(name):
    return parse_program((EXAMPLES / name).read_text(), name=name)


SIEVE = _example("sieve.str")
FIGURE1 = _example("figure1.str")
PINGPONG = _example("pingpong.str")
EVALUATOR = "eval(add, L, R, V) :- V := L + R.\neval(mul, L, R, V) :- V := L * R."


def run_sieve(size, machine, **options):
    result = run_query(SIEVE, f"primes({size * 4}, Ps)", machine=machine, **options)
    return result.value("Ps"), result.metrics


def run_figure1(size, machine, **options):
    result = run_query(FIGURE1, f"producer({size}, Xs, sync), consumer(Xs)",
                       machine=machine, **options)
    return result.value("Xs"), result.metrics


def run_pingpong(size, machine, **options):
    result = run_query(PINGPONG, f"rally({size}, W)", machine=machine,
                       services=[("player", 4)], **options)
    return result.value("W"), result.metrics


def tr1_tree(size):
    """A depth 1–5 tree whose operators and leaves also depend on ``size``."""
    return balanced_tree(
        1 + size % 5,
        lambda rng: rng.choice(["add", "mul"]),
        lambda rng: rng.randint(0, 3),
        rng=random.Random(size),
    )


def run_tr1(size, machine, **options):
    tree = tr1_tree(size)
    result = reduce_tree(tree, EVALUATOR, machine=machine, strategy="tr1",
                         **options)
    assert result.value == sequential_reduce(
        tree, lambda op, lv, rv: lv + rv if op == "add" else lv * rv
    )
    return result.value, result.metrics


PROGRAMS = {
    "sieve": run_sieve,
    "figure1": run_figure1,
    "pingpong": run_pingpong,
    "tr1": run_tr1,
}

#: Sequential observation modes: (trace storage, profile?).
SEQUENTIAL_MODES = [
    (None, False),
    ("full", False),
    ("ring", False),
    (None, True),
]
#: Parallel observation modes: the trace storage (profiling is unsupported).
PARALLEL_MODES = [None, "full"]


def make_machine(processors, seed, trace, backend="sequential"):
    machine = Machine(processors, seed=seed, trace=trace is not None,
                      backend=backend,
                      workers=2 if backend == "parallel" else None)
    if trace == "ring":
        # Small enough that longer runs evict events.
        machine.trace = Trace(enabled=True, limit=64, ring=True)
    return machine


def comparable(metrics):
    """Every metric but the trace's drop count."""
    return replace(metrics, trace_dropped=0)


def run_mode(program, size, machine, profile=False):
    options = {"profile": MotifProfile()} if profile else {}
    answer, metrics = PROGRAMS[program](size, machine, **options)
    if machine.trace.enabled:
        assert len(machine.trace) > 0
        assert_causally_sound(machine.trace)
    return answer, comparable(metrics)


@pytest.mark.parametrize("program", sorted(PROGRAMS))
@settings(max_examples=6, deadline=None)
@given(size=st.integers(min_value=1, max_value=12),
       processors=st.integers(min_value=2, max_value=4),
       seed=st.integers(min_value=0, max_value=99))
def test_every_mode_agrees(program, size, processors, seed):
    sequential = {
        (trace, profile): run_mode(
            program, size, make_machine(processors, seed, trace), profile)
        for trace, profile in SEQUENTIAL_MODES
    }
    answer, metrics = sequential[(None, False)]
    for mode, outcome in sequential.items():
        assert outcome == (answer, metrics), mode

    parallel = {
        trace: run_mode(
            program, size,
            make_machine(processors, seed, trace, backend="parallel"))
        for trace in PARALLEL_MODES
    }
    par_answer, par_metrics = parallel[None]
    assert par_answer == answer
    for mode, outcome in parallel.items():
        assert outcome == (answer, par_metrics), mode


def test_parallel_profile_not_implemented():
    with pytest.raises(NotImplementedError, match="per-motif profiling"):
        run_mode("sieve", 3, make_machine(2, 0, None, backend="parallel"),
                 profile=True)
