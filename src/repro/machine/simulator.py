"""The virtual multicomputer: processors + network + clocks.

The paper's experiments ran on 1990 MIMD machines; we substitute a
deterministic discrete-event model (see DESIGN.md §2).  The
:class:`Machine` owns processor state and the latency model; the Strand
engine (``repro.strand.engine``) drives it, asking for delivery delays and
charging reduction costs.

Determinism: all randomness (``rand_num``) comes from a seeded
``random.Random`` owned by the machine, and the engine's event heap breaks
time ties with a monotone sequence number.
"""

from __future__ import annotations

import random
from dataclasses import asdict

from repro.errors import MachineError
from repro.machine.faults import FaultPlan, FaultStats, Partition
from repro.machine.metrics import MachineMetrics
from repro.machine.network import Network
from repro.machine.processor import VirtualProcessor
from repro.machine.topology import Topology, topology_by_name
from repro.machine.trace import Trace

__all__ = ["Machine"]


class Machine:
    """``P`` virtual processors joined by a :class:`Network`.

    Parameters
    ----------
    processors:
        Number of virtual processors (1-based numbering, as in the paper's
        ``rand_num(N, O)`` / ``distribute`` convention).
    topology:
        A :class:`Topology`, a name (``'full'``, ``'ring'``, ``'mesh'``,
        ``'hypercube'``, ``'tree'``), or ``None`` for fully connected.
    seed:
        Seed for the machine RNG (drives ``rand_num`` and fault injection;
        nothing else).
    trace:
        Enable event tracing (see :class:`Trace`).
    faults:
        Optional :class:`~repro.machine.faults.FaultPlan`.  The crash
        schedule is resolved here, from the machine RNG, so it is fixed by
        the seed before the first reduction runs.
    backend:
        ``"sequential"`` (default) runs the whole simulation in-process;
        ``"parallel"`` shards the virtual processors across OS worker
        processes (see :mod:`repro.machine.parallel`), synchronized with a
        BSP-style epoch protocol.  Fault injection is not implemented on
        the parallel backend.
    workers:
        Worker-process count for ``backend="parallel"`` (default:
        ``min(processors, os.cpu_count())``); ignored otherwise.
    epoch_window:
        Optional conservative time-window width for the parallel backend.
        ``None`` (default) ends each epoch at local quiescence or after a
        fixed number of reductions — exact for confluent programs and far
        fewer barriers; a positive float also bounds every epoch to that
        much virtual time, which keeps cross-shard message delivery
        causally ordered even for time-racy programs when the window is at
        most the minimum cross-processor latency.
    """

    def __init__(
        self,
        processors: int = 1,
        topology: Topology | str | None = None,
        seed: int = 0,
        startup_latency: float = 2.0,
        trace: bool = False,
        faults: FaultPlan | None = None,
        backend: str = "sequential",
        workers: int | None = None,
        epoch_window: float | None = None,
    ):
        if processors < 1:
            raise MachineError(f"need at least one processor, got {processors}")
        if backend not in ("sequential", "parallel"):
            raise MachineError(
                f"unknown backend {backend!r}; choose 'sequential' or 'parallel'"
            )
        if backend == "parallel" and faults is not None:
            raise NotImplementedError(
                "fault injection is not supported on the parallel backend"
            )
        if workers is not None and backend != "parallel":
            raise MachineError("workers= only applies to backend='parallel'")
        if workers is not None and workers < 1:
            raise MachineError(f"need at least one worker, got {workers}")
        if epoch_window is not None and epoch_window <= 0:
            raise MachineError(f"epoch_window must be positive, got {epoch_window}")
        self.backend = backend
        if backend == "parallel":
            import os

            default_workers = min(processors, os.cpu_count() or 1)
            self.workers = min(workers or default_workers, processors)
        else:
            self.workers = None
        self.epoch_window = epoch_window
        if topology is None:
            topo = topology_by_name("full", processors)
        elif isinstance(topology, str):
            topo = topology_by_name(topology, processors)
        else:
            topo = topology
        if topo.size != processors:
            raise MachineError(
                f"topology size {topo.size} != processor count {processors}"
            )
        self.network = Network(topo, startup=startup_latency)
        self.procs: list[VirtualProcessor] = [
            VirtualProcessor(number=i + 1) for i in range(processors)
        ]
        self.rng = random.Random(seed)
        self.seed = seed
        self.trace = Trace(enabled=trace)
        self.faults = faults
        self.fault_stats = FaultStats()
        # processor -> virtual crash time, fixed by the seed at construction
        # (drawn before any rand_num draw so the schedule never depends on
        # program behaviour).
        self.crash_schedule: dict[int, float] = (
            faults.resolve_crashes(processors, self.rng) if faults else {}
        )
        # Partition windows, resolved after the crash schedule (explicit
        # cuts plus at most one random one) so both are fixed by the seed.
        self.partitions: tuple[Partition, ...] = (
            faults.resolve_partitions(processors, self.rng) if faults else ()
        )

    # -- addressing ---------------------------------------------------------
    @property
    def size(self) -> int:
        return len(self.procs)

    def proc(self, number: int) -> VirtualProcessor:
        """Processor by 1-based number."""
        if not 1 <= number <= len(self.procs):
            raise MachineError(f"processor {number} out of range 1..{len(self.procs)}")
        return self.procs[number - 1]

    def normalize(self, number: int) -> int:
        """Map any integer onto a valid processor number (1-based modulo),
        the conventional wrap-around used when placing ``@ J`` processes."""
        return (number - 1) % len(self.procs) + 1

    # -- communication ------------------------------------------------------
    def latency(self, src: int, dst: int) -> float:
        return self.network.latency(src, dst)

    def hops(self, src: int, dst: int) -> int:
        return self.network.topology.hops(src, dst)

    def rand_proc(self) -> int:
        """A uniformly random processor number in ``1..P`` (the paper's
        ``rand_num(N, R)``)."""
        return self.rng.randint(1, len(self.procs))

    # -- fault injection ----------------------------------------------------
    def link_cut(self, src: int, dst: int, now: float) -> bool:
        """True when an active partition severs the ``src -> dst`` link at
        virtual time ``now`` (no RNG involved)."""
        return any(p.severs(src, dst, now) for p in self.partitions)

    def message_fate(
        self, src: int, dst: int, now: float, *, duplicable: bool = True
    ) -> tuple[str, float]:
        """Decide what happens to an explicit message sent ``src -> dst`` at
        virtual time ``now``:
        ``('deliver' | 'drop' | 'delay' | 'duplicate', latency)``.

        A message arriving at a processor that is (or will by then be)
        crashed is lost deterministically, as is one crossing an active
        partition — no RNG draw in either case, so the draw sequence stays
        identical across fault-plan variations that only change crash times
        or partition windows.  Drop/delay/duplicate draws happen only when
        the plan is lossy, so a fault-free machine replays
        pre-failure-model traces byte-for-byte.

        ``duplicable=False`` (the remote-spawn path) keeps the RNG draw —
        so the sequence never depends on the message kind — but resolves a
        duplicate outcome to a plain delivery.
        """
        latency = self.network.latency(src, dst)
        faults = self.faults
        if faults is None:
            return "deliver", latency
        crash_at = self.crash_schedule.get(dst)
        if (crash_at is not None and crash_at <= now + latency) or not self.proc(
            dst
        ).alive:
            self.fault_stats.messages_dropped += 1
            self.trace.record(now, src, "fault", f"drop:dead-dest p{dst}")
            return "drop", latency
        if self.link_cut(src, dst, now):
            self.fault_stats.partition_dropped += 1
            self.trace.record(now, src, "fault", f"drop:partition->p{dst}")
            return "drop", latency
        if faults.lossy:
            draw = self.rng.random()
            if draw < faults.drop_rate:
                self.fault_stats.messages_dropped += 1
                self.trace.record(now, src, "fault", f"drop:msg->p{dst}")
                return "drop", latency
            if draw < faults.drop_rate + faults.delay_rate:
                self.fault_stats.messages_delayed += 1
                latency *= 1.0 + faults.delay_factor
                self.trace.record(now, src, "fault", f"delay:msg->p{dst}")
                return "delay", latency
            if (
                duplicable
                and draw < faults.drop_rate + faults.delay_rate + faults.duplicate_rate
            ):
                self.fault_stats.messages_duplicated += 1
                self.trace.record(now, src, "fault", f"dup:msg->p{dst}")
                return "duplicate", latency
        return "deliver", latency

    # -- results ------------------------------------------------------------
    def metrics(self) -> MachineMetrics:
        return MachineMetrics.from_processors(
            self.procs,
            trace_dropped=self.trace.dropped,
            **asdict(self.fault_stats),
        )

    def reset(self) -> None:
        """Clear all processor state and counters; keep topology, seed, and
        fault plan (the re-seeded RNG re-resolves the identical crash
        schedule and partition windows), so back-to-back runs on one
        machine report per-run — not cumulative — fault counts."""
        self.procs = [VirtualProcessor(number=i + 1) for i in range(len(self.procs))]
        self.rng = random.Random(self.seed)
        self.trace.clear()
        self.fault_stats.clear()
        self.crash_schedule = (
            self.faults.resolve_crashes(len(self.procs), self.rng)
            if self.faults
            else {}
        )
        self.partitions = (
            self.faults.resolve_partitions(len(self.procs), self.rng)
            if self.faults
            else ()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(P={self.size}, topology={type(self.network.topology).__name__})"
        )
