"""High-level API: apply motif stacks and run them on a virtual machine.

This is the layer a downstream user touches first::

    from repro import reduce_tree
    from repro.apps.arithmetic import paper_example_tree, eval_arith_node

    result = reduce_tree(paper_example_tree(), eval_arith_node,
                         processors=4, strategy="tr1")
    assert result.value == 24

``reduce_tree`` accepts the node evaluator either as Strand source text
(rules for ``eval/4``) or as a Python callable ``fn(op, lv, rv) -> value``
registered as the foreign procedure ``eval/4`` — the paper's multilingual
model.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Iterable

from repro.core.motif import AppliedMotif, Motif, library_from_source
from repro.errors import ReproError
from repro.machine.metrics import MachineMetrics
from repro.machine.simulator import Machine
from repro.motifs.reliable import reliable_tree_reduce
from repro.motifs.supervisor import SuperviseTransformation, supervised_tree_reduce
from repro.motifs.tree_reduce1 import (
    sequential_tree_motif,
    static_tree_motif,
    tree_reduce_1,
)
from repro.motifs.tree_reduce2 import tree_reduce_2
from repro.apps import trees
from repro.strand.engine import StrandEngine
from repro.strand.foreign import ForeignRegistry, to_python
from repro.strand.program import Program
from repro.strand.terms import Struct, Term, Var, deref

__all__ = [
    "RunResult",
    "run_applied",
    "reduce_tree",
    "reliable_reduce_tree",
    "supervised_reduce_tree",
    "TREE_STRATEGIES",
    "as_application",
]

#: Tree-reduction strategies offered by :func:`reduce_tree`.
TREE_STRATEGIES = ("tr1", "tr2", "static", "sequential")


@dataclass
class RunResult:
    """Outcome of a motif-stack run."""

    value: Any
    metrics: MachineMetrics
    bindings: dict[str, Term]
    engine: StrandEngine
    applied: AppliedMotif


# Motif stacks are stateless apart from their application memo, so one
# instance per parameterization lets repeated ``*reduce_tree`` calls share
# parsed libraries, applied programs, and (transitively) compiled programs.
#
# The caches are *bounded*: each cached stack pins its applied programs and
# compiled rule plans, so an unbounded cache in a long-lived process (a
# notebook sweeping parameters, a benchmark harness) grows without limit.
# The bounds are sized generously above any realistic number of concurrent
# parameterizations — eviction only re-pays one stack construction.
_STACK_CACHE_SIZE = 32  # distinct (factory, parameters) stacks
_APPLICATION_CACHE_SIZE = 256  # distinct application names


@lru_cache(maxsize=_STACK_CACHE_SIZE)
def _stack(factory: Callable[..., Motif], **params: Any) -> Motif:
    """The shared motif stack ``factory(**params)``."""
    return factory(**params)


@lru_cache(maxsize=_APPLICATION_CACHE_SIZE)
def _empty_application(name: str) -> Program:
    """A shared, never-mutated empty application program.  One object per
    name keeps motif-application caches keyed on a stable identity across
    ``reduce_tree`` calls with Python-callable evaluators."""
    return Program(name=name)


def as_application(evaluator: str | Callable | Program, name: str = "application",
                   cost: float | Callable[..., float] = 1.0
                   ) -> tuple[Program, Callable[[ForeignRegistry], None] | None]:
    """Normalize a user-supplied node evaluator into ``(program, foreign_setup)``.

    * Strand source / :class:`Program` → the application program itself
      (source text is parsed once per process; transformations never
      mutate their input, so the program object is shared);
    * Python callable → a shared empty application plus a hook registering
      it as the foreign procedure ``eval/4`` with the given cost model.
    """
    if isinstance(evaluator, Program):
        return evaluator, None
    if isinstance(evaluator, str):
        return library_from_source(evaluator, name=name), None
    if callable(evaluator):
        fn = evaluator

        def setup(registry: ForeignRegistry) -> None:
            registry.register("eval", 4, fn, cost=cost)

        return _empty_application(name), setup
    raise ReproError(f"cannot use {evaluator!r} as a node evaluator")


def run_applied(
    applied: AppliedMotif,
    goals: Iterable[Term] | Term,
    machine: Machine | None = None,
    *,
    watched: Iterable[tuple[str, int]] = (),
    foreign: ForeignRegistry | None = None,
    max_reductions: int = 5_000_000,
    **engine_options: Any,
) -> tuple[StrandEngine, MachineMetrics]:
    """Run already-constructed goal terms against an applied motif stack."""
    engine = StrandEngine(
        applied.program,
        machine=machine,
        foreign=applied.make_foreign(foreign),
        watched=watched,
        library=applied.library_indicators,
        services=applied.services,
        max_reductions=max_reductions,
        **engine_options,
    )
    if isinstance(goals, (Struct,)):
        goals = [goals]
    for goal in goals:
        engine.spawn(goal, proc=1, ready=0.0)
    metrics = engine.run()
    return engine, metrics


def _create(machine: Machine, entry: str, *args: Term) -> Struct:
    """``create(P, entry(args…))`` — boot the servers, then send the entry
    message."""
    return Struct("create", (machine.size, Struct(entry, args)))


def _run_tree(
    tree: trees.Tree,
    evaluator: str | Callable | Program,
    machine: Machine,
    motif: Motif,
    goal: Callable[[Var], Term],
    failure: str,
    eval_cost: float | Callable[..., float],
    **run_options: Any,
) -> RunResult:
    """The runner behind every ``*reduce_tree`` entry point: run ``goal``
    (given the result variable) under ``motif`` and return the bound
    result, or raise ``failure`` if the run ends with it unbound."""
    application, setup = as_application(evaluator, cost=eval_cost)
    # Single-leaf trees have no evaluations; answer directly but uniformly.
    if isinstance(tree, trees.Leaf):
        applied = AppliedMotif(program=application)
        engine = StrandEngine(application, machine=machine)
        return RunResult(tree.value, machine.metrics(), {}, engine, applied)
    applied = motif.apply(application)
    # Message loss can strand the rest of an attempt a Supervise retry has
    # already superseded; with a Supervise layer in the stack, abandon such
    # stragglers at quiescence instead of reporting a deadlock.
    run_options.setdefault("abandon_stragglers", any(
        isinstance(stage.transformation, SuperviseTransformation)
        for stage in motif.stages()
    ))
    if setup is not None:
        applied.foreign_setup.append(setup)
        applied.user_names.add("eval")
    value_var = Var("Value")
    engine, metrics = run_applied(applied, goal(value_var), machine, **run_options)
    value = deref(value_var)
    if type(value) is Var:
        raise ReproError(failure)
    return RunResult(to_python(value), metrics, {"Value": value_var}, engine, applied)


def reduce_tree(
    tree: trees.Tree,
    evaluator: str | Callable | Program,
    *,
    processors: int = 4,
    strategy: str = "tr1",
    machine: Machine | None = None,
    seed: int = 0,
    topology: str | None = None,
    backend: str = "sequential",
    workers: int | None = None,
    epoch_window: float | None = None,
    server_library: str = "ports",
    termination: bool = True,
    eval_cost: float | Callable[..., float] = 1.0,
    max_reductions: int = 5_000_000,
    **engine_options: Any,
) -> RunResult:
    """Reduce a binary tree with a chosen motif strategy.

    Parameters mirror the paper's design space: ``strategy`` is one of

    * ``"tr1"``        — Tree-Reduce-1 (Server ∘ Rand ∘ Tree1, §3.4)
    * ``"tr2"``        — Tree-Reduce-2 (Server ∘ TreeReduce, §3.5)
    * ``"static"``     — static partition (§3.1)
    * ``"sequential"`` — single-processor fold (baseline)

    ``backend="parallel"`` shards the virtual processors across ``workers``
    OS processes (see :mod:`repro.machine.parallel`).  A Python evaluator
    then reaches the workers by reference, so it must be a module-level
    function such as :func:`repro.apps.arithmetic.eval_arith_node`; a
    lambda or closure raises ``NotImplementedError``.
    ``backend``/``workers``/``epoch_window`` are ignored when an explicit
    ``machine`` is passed (configure it there instead).
    """
    if strategy not in TREE_STRATEGIES:
        raise ReproError(f"unknown strategy {strategy!r}; choose from {TREE_STRATEGIES}")
    if machine is None:
        machine = Machine(
            1 if strategy == "sequential" else processors,
            topology=topology,
            seed=seed,
            backend=backend,
            workers=workers,
            epoch_window=epoch_window,
        )
    if strategy == "tr1":
        motif = _stack(tree_reduce_1, server_library=server_library,
                       termination=termination)
        if termination:
            goal = lambda v: _create(machine, "boot", trees.tree_term(tree), v, Var("Done"))
        else:
            goal = lambda v: _create(machine, "reduce", trees.tree_term(tree), v)
    elif strategy == "tr2":
        motif = _stack(tree_reduce_2, server_library=server_library)

        def goal(v: Var) -> Term:
            # Labelling must be a function of the *machine's* seed, not the
            # ``seed`` parameter (which is ignored when a machine is passed
            # in), or two runs on the same machine could label differently.
            _entries, table = trees.label_table(
                tree, machine.size, random.Random(machine.seed + 0x5EED)
            )
            return _create(machine, "init", table, v)
    elif strategy == "static":
        motif = _stack(static_tree_motif)
        goal = lambda v: Struct("sreduce", (trees.tree_term(tree), v, 1, machine.size))
    else:  # sequential
        motif = _stack(sequential_tree_motif)
        goal = lambda v: Struct("reduce_seq", (trees.tree_term(tree), v))
    return _run_tree(
        tree, evaluator, machine, motif, goal,
        f"tree reduction under {strategy!r} finished without binding the result",
        eval_cost, watched=[("eval", 4)],
        max_reductions=max_reductions, **engine_options,
    )


def reliable_reduce_tree(
    tree: trees.Tree,
    evaluator: str | Callable | Program,
    *,
    processors: int = 4,
    machine: Machine | None = None,
    seed: int = 0,
    topology: str | None = None,
    retries: int = 6,
    timeout: float = 30.0,
    backoff: int = 2,
    max_timeout: float = 240.0,
    supervise: bool = False,
    sup_retries: int = 3,
    sup_timeout: float = 600.0,
    fallback: str = "0",
    server_library: str = "ports",
    eval_cost: float | Callable[..., float] = 1.0,
    max_reductions: int = 5_000_000,
    **engine_options: Any,
) -> RunResult:
    """Reduce a binary tree under the Reliable delivery stack
    (``Server ∘ Reliable ∘ Rand ∘ Tree1``), optionally with the Supervise
    layer between Rand and Tree1 (``supervise=True``).

    Pass a :class:`Machine` built with a lossy
    :class:`~repro.machine.faults.FaultPlan` (message drops, duplicates,
    partitions) to exercise the protocol; the result's ``metrics`` then
    carry the reliability counters (retransmits, acks, duplicates
    suppressed, unreachable reports), and destinations the protocol gave
    up on are listed in
    ``repro.motifs.reliable.reliable_state(result.engine).unreachable``.
    Like every stack with a Supervise layer, the supervised variant runs
    with ``abandon_stragglers=True``: attempts superseded by a Supervise
    retry may be permanently stranded by message loss, and are abandoned at
    quiescence rather than reported as a deadlock.
    """
    if machine is None:
        machine = Machine(processors, topology=topology, seed=seed)
    motif = _stack(
        reliable_tree_reduce, retries=retries, timeout=timeout,
        backoff=backoff, max_timeout=max_timeout, supervise=supervise,
        sup_retries=sup_retries, sup_timeout=sup_timeout,
        fallback=fallback, server_library=server_library,
    )
    entry = "sup_run" if supervise else "reduce"
    return _run_tree(
        tree, evaluator, machine, motif,
        lambda v: _create(machine, entry, trees.tree_term(tree), v),
        "reliable tree reduction finished without binding the result "
        "(destination permanently unreachable? check "
        "reliable_state(engine).unreachable)",
        eval_cost, watched=[("eval", 4)], max_reductions=max_reductions,
        **engine_options,
    )


def supervised_reduce_tree(
    tree: trees.Tree,
    evaluator: str | Callable | Program,
    *,
    processors: int = 4,
    machine: Machine | None = None,
    seed: int = 0,
    topology: str | None = None,
    retries: int = 3,
    timeout: float = 600.0,
    backoff: int = 2,
    fallback: str = "0",
    server_library: str = "ports",
    eval_cost: float | Callable[..., float] = 1.0,
    max_reductions: int = 5_000_000,
    **engine_options: Any,
) -> RunResult:
    """Reduce a binary tree under the Supervise motif stack
    (``Server ∘ Rand ∘ Supervise ∘ Tree1′``) — fault-tolerant Tree-Reduce-1.

    Pass a :class:`Machine` constructed with a
    :class:`~repro.machine.faults.FaultPlan` to run against injected
    processor crashes and message faults; the result's ``metrics`` then
    carry the fault and supervision counters.  ``timeout`` must exceed the
    fault-free completion time of the largest supervised subcomputation, or
    healthy attempts will be retried (and ultimately degraded to
    ``fallback``).  The run abandons stragglers of superseded attempts at
    quiescence (``abandon_stragglers=True``), so message loss that strands
    them does not read as a deadlock.
    """
    if machine is None:
        machine = Machine(processors, topology=topology, seed=seed)
    motif = _stack(
        supervised_tree_reduce, retries=retries, timeout=timeout,
        backoff=backoff, fallback=fallback, server_library=server_library,
    )
    return _run_tree(
        tree, evaluator, machine, motif,
        lambda v: _create(machine, "sup_run", trees.tree_term(tree), v),
        "supervised tree reduction finished without binding the result "
        "(was the supervision channel itself severed?)",
        eval_cost, watched=[("eval", 4)], max_reductions=max_reductions,
        **engine_options,
    )
