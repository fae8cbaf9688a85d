"""The benchmark's workloads.

Each workload turns a seed into fixed inputs, sets its program up through
the public calls (parse, motif application, compile), runs one input on a
fresh machine, and knows every answer from a reference that does not use
the Strand engine.  Parameters come from ``manifest.json``.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.apps import trees
from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.motif import AppliedMotif, Motif
from repro.machine import FaultPlan, Machine, Partition
from repro.machine.metrics import MachineMetrics
from repro.motifs.reliable import reliable_tree_reduce
from repro.motifs.tree_reduce1 import tree_reduce_1
from repro.strand import (
    ForeignRegistry,
    Program,
    StrandEngine,
    Struct,
    Term,
    Var,
    compile_program,
    parse_program,
    to_python,
)

HERE = Path(__file__).resolve().parent
PROGRAMS = HERE / "programs"
MANIFEST = HERE / "manifest.json"

#: MachineMetrics fields that are exact functions of the program, the input
#: and the machine seed: every repetition of one input must reproduce them.
COUNTS = ("reductions", "suspensions", "sends", "makespan", "rel_retransmits")


@dataclass(frozen=True)
class Instance:
    """One generated input: the goal's input term, its reference answer and
    the virtual machine's seed."""

    term: Term
    expected: Any
    machine_seed: int


def counts(metrics: MachineMetrics) -> tuple:
    return tuple(getattr(metrics, name) for name in COUNTS)


class Workload:
    """Seeded inputs plus one program; subclasses say how to build each."""

    #: ``name/arity`` pairs tracked as tasks (only changes memory accounting).
    watched: tuple[tuple[str, int], ...] = ()
    #: Machine options whose runs must give the same answer and counts.
    cross_checks: tuple[dict, ...] = ()

    def __init__(self, params: dict, seed: int):
        self.params = params
        rng = random.Random(seed)
        self.instances = [self.make_instance(rng) for _ in range(params["inputs"])]

    # -- set-up ----------------------------------------------------------
    def setup(self) -> dict[str, float]:
        """Parse, apply the motif stack and compile; return each phase's
        wall time in seconds and the rule counts in and out."""
        t0 = time.perf_counter()
        motif, application = self.parse()
        t1 = time.perf_counter()
        if motif is not None:
            applied = motif.apply(application)
        else:
            applied = AppliedMotif(
                application, user_names={name for name, _ in application.indicators}
            )
        t2 = time.perf_counter()
        compile_program(applied.program)
        t3 = time.perf_counter()
        self.program = applied.program
        self.services = applied.services
        self.foreign = applied.make_foreign(self.foreign_procedures())
        applied.user_names.update(name for name, _ in self.foreign.indicators())
        self.library = applied.library_indicators
        libraries = [m.library for m in motif.stages()] if motif else []
        return {
            "parse_s": t1 - t0,
            "apply_s": t2 - t1,
            "compile_s": t3 - t2,
            "rules_in": sum(p.rule_count() for p in [application, *libraries]),
            "rules_out": applied.program.rule_count() if motif else 0,
        }

    def foreign_procedures(self) -> ForeignRegistry:
        return ForeignRegistry()

    # -- one run ---------------------------------------------------------
    def run(self, instance: Instance, **machine_options: Any) -> tuple[Any, MachineMetrics]:
        """Run one input on a fresh machine; return the answer as Python
        data and the machine's metrics."""
        engine = StrandEngine(
            self.program,
            machine=self.machine(instance.machine_seed, **machine_options),
            foreign=self.foreign,
            watched=self.watched,
            library=self.library,
            services=self.services,
        )
        result = Var("Result")
        engine.spawn(self.goal(instance.term, result), proc=1, ready=0.0)
        metrics = engine.run()
        return to_python(result), metrics

    # -- subclass hooks --------------------------------------------------
    def make_instance(self, rng: random.Random) -> Instance:
        raise NotImplementedError

    def parse(self) -> tuple[Motif | None, Program]:
        raise NotImplementedError

    def goal(self, term: Term, result: Var) -> Struct:
        raise NotImplementedError

    def machine(self, seed: int, **options: Any) -> Machine:
        return Machine(self.params["processors"], seed=seed, **options)


class _TreeWorkload(Workload):
    """A random arithmetic tree reduced by a motif stack, with ``eval/4``
    as the Python foreign procedure; the reference is a plain fold."""

    watched = (("eval", 4),)

    def make_instance(self, rng: random.Random) -> Instance:
        tree = arithmetic_tree(self.params["leaves"], seed=rng.randrange(2**31))
        return Instance(
            trees.tree_term(tree),
            trees.sequential_reduce(tree, eval_arith_node),
            rng.randrange(2**31),
        )

    def foreign_procedures(self) -> ForeignRegistry:
        registry = ForeignRegistry()
        registry.register("eval", 4, eval_arith_node)
        return registry


class Tr1Tree(_TreeWorkload):
    """Tree-Reduce-1: Server ∘ Rand ∘ ShortCircuit ∘ Tree1."""

    def parse(self):
        return tree_reduce_1(server_library="ports", termination=True), Program(name="tr1")

    def goal(self, term, result):
        return Struct("create", (
            self.params["processors"], Struct("boot", (term, result, Var("Done"))),
        ))


class ReliableLossy(_TreeWorkload):
    """Server ∘ Reliable ∘ Rand ∘ Tree1 on a lossy, partitioned network.

    The servers' bootstrap spawns predate the Reliable protocol, so a
    dropped one leaves a server that never boots and the reduction cannot
    finish (``motifs/reliable.py`` documents this limit).  Machine seeds
    whose failure model would drop a bootstrap spawn are skipped: the
    bootstrap spawns are the run's first remote messages, so asking a fresh
    machine for the fates of its first ``processors - 1`` messages tells
    which seeds to skip, without running the engine.
    """

    def make_instance(self, rng: random.Random) -> Instance:
        instance = super().make_instance(rng)
        seed = instance.machine_seed
        while not self._bootstrap_survives(seed):
            seed = rng.randrange(2**31)
        return Instance(instance.term, instance.expected, seed)

    def _bootstrap_survives(self, seed: int) -> bool:
        machine = self.machine(seed)
        return all(
            machine.message_fate(1, dst, 0.0, duplicable=False)[0] != "drop"
            for dst in range(2, machine.size + 1)
        )

    def parse(self):
        return reliable_tree_reduce(supervise=False), Program(name="reliable")

    def goal(self, term, result):
        return Struct("create", (
            self.params["processors"], Struct("reduce", (term, result)),
        ))

    def machine(self, seed, **options):
        p = self.params
        faults = FaultPlan(
            drop_rate=p["drop_rate"],
            duplicate_rate=p["duplicate_rate"],
            partitions=tuple(
                Partition(frozenset(group), float(start), float(end))
                for group, start, end in p["partitions"]
            ),
        )
        return super().machine(seed, faults=faults, **options)


class Sieve(Workload):
    """The concurrent sieve, no motif; the reference is a plain sieve."""

    def make_instance(self, rng: random.Random) -> Instance:
        low, high = self.params["limit"]
        limit = rng.randint(low, high)
        return Instance(limit, plain_sieve(limit), rng.randrange(2**31))

    def parse(self):
        source = (PROGRAMS / "sieve.str").read_text()
        return None, parse_program(source, name="sieve")

    def goal(self, term, result):
        return Struct("primes", (term, result))


class CrunchParallel(Workload):
    """Independent arithmetic loops, one per virtual processor, on the
    parallel backend; the reference is the closed form W(W+1)/2, and the
    sequential backend must agree on answer and counts."""

    cross_checks = ({"backend": "sequential"},)

    def make_instance(self, rng: random.Random) -> Instance:
        low, high = self.params["work"]
        work = rng.randint(low, high)
        return Instance(
            work, [work * (work + 1) // 2] * self.params["processors"],
            rng.randrange(2**31),
        )

    def parse(self):
        source = (PROGRAMS / "crunch.str").read_text()
        return None, parse_program(source, name="crunch")

    def goal(self, term, result):
        return Struct("go", (self.params["processors"], term, result))

    def machine(self, seed, **options):
        options.setdefault("backend", "parallel")
        if options["backend"] == "parallel":
            options.setdefault("workers", self.params["workers"])
        return super().machine(seed, **options)


def plain_sieve(limit: int) -> list[int]:
    """The primes up to ``limit`` by the textbook array sieve."""
    flags = [True] * (limit + 1)
    flags[:2] = [False] * min(2, limit + 1)
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = [False] * len(range(p * p, limit + 1, p))
    return [n for n, prime in enumerate(flags) if prime]


WORKLOADS: dict[str, type[Workload]] = {
    "tr1_tree": Tr1Tree,
    "sieve": Sieve,
    "reliable_lossy": ReliableLossy,
    "crunch_parallel": CrunchParallel,
}


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def load_workload(name: str, seed: int) -> Workload:
    """The named workload with its parameters from ``manifest.json``."""
    return WORKLOADS[name](load_manifest()["workloads"][name]["params"], seed)
