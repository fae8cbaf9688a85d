"""Aggregated machine metrics — the measurement surface for every benchmark.

A :class:`MachineMetrics` snapshot is computed from processor state after a
run.  It deliberately exposes exactly the quantities the paper's claims are
phrased in: virtual makespan (for speedup), per-processor busy time (load
balance, E3), message and hop counts (E5), and watched-task high-water marks
(memory behaviour, E4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from repro.machine.faults import FaultStats
from repro.machine.processor import ProcessorCounters, VirtualProcessor

__all__ = [
    "MachineMetrics",
    "EpochTelemetry",
    "imbalance",
    "jain_fairness",
    "coefficient_of_variation",
]

#: Kinds of cross-shard wire message the parallel backend routes.
WIRE_KINDS = ("spawn", "bind", "psend", "pclose")


def imbalance(loads: list[float]) -> float:
    """``max/mean`` load ratio; 1.0 is perfect balance.  Empty or all-idle
    loads give 1.0 (a degenerate but balanced machine)."""
    if not loads:
        return 1.0
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 1.0
    return max(loads) / mean


def jain_fairness(loads: list[float]) -> float:
    """Jain's fairness index in ``(0, 1]``; 1.0 is perfect balance."""
    if not loads or all(x == 0 for x in loads):
        return 1.0
    num = sum(loads) ** 2
    den = len(loads) * sum(x * x for x in loads)
    return num / den


def coefficient_of_variation(loads: list[float]) -> float:
    """Std-dev over mean of the loads; 0.0 is perfect balance."""
    if not loads:
        return 0.0
    mean = sum(loads) / len(loads)
    if mean == 0:
        return 0.0
    var = sum((x - mean) ** 2 for x in loads) / len(loads)
    return math.sqrt(var) / mean


@dataclass
class EpochTelemetry:
    """What the parallel backend's epoch protocol did during one run.

    ``epochs`` counts barrier rounds in which workers drained,
    ``worker_epochs`` sums the active workers over those rounds (so
    ``worker_epochs > epochs`` means some round ran workers side by side),
    and ``wire`` counts routed messages by kind.  These are deterministic
    for a given seed and worker count.  ``busy_s`` holds, per round, each
    worker's wall-clock seconds spent applying its inbox and draining
    (``None`` for a worker that sat the round out), and ``startup_s`` the
    wall-clock seconds from starting the worker processes until every one
    had acknowledged ``init``.  Both vary from run to run, so equality never
    compares them and ``summary()`` leaves them out.
    """

    epochs: int = 0
    worker_epochs: int = 0
    wire: dict[str, int] = field(default_factory=lambda: dict.fromkeys(WIRE_KINDS, 0))
    busy_s: list[tuple[float | None, ...]] = field(
        default_factory=list, compare=False, repr=False
    )
    startup_s: float = field(default=0.0, compare=False, repr=False)

    def summary(self) -> str:
        wire = ", ".join(f"{kind}={count}" for kind, count in self.wire.items())
        return (
            f"epochs={self.epochs} worker_epochs={self.worker_epochs} "
            f"wire({wire})"
        )


@dataclass(kw_only=True)
class MachineMetrics(ProcessorCounters, FaultStats):
    """Snapshot of one finished run.

    The summed processor counters are inherited from
    :class:`~repro.machine.processor.ProcessorCounters` and the fault,
    supervision, and reliability counters from
    :class:`~repro.machine.faults.FaultStats`, their one declarations."""

    processors: int
    makespan: float
    busy: list[float]
    peak_live_tasks: list[int]
    peak_live_values: list[int]
    # Charged virtual time outside the "library" set (experiment E8): every
    # cost a reduction charges lands in its processor's ``busy``.
    user_cost: float = field(init=False)
    # Events the Trace dropped past its limit — nonzero means every
    # trace-derived figure is a lower bound.
    trace_dropped: int = 0
    # Epoch-protocol telemetry; only parallel-backend runs carry it.
    parallel: EpochTelemetry | None = None

    def __post_init__(self) -> None:
        self.user_cost = self.total_busy - self.library_cost

    @classmethod
    def from_processors(
        cls, procs: list[VirtualProcessor], **fault_counters: int
    ) -> "MachineMetrics":
        totals = ProcessorCounters()
        for p in procs:
            totals.add(p)
        return cls(
            processors=len(procs),
            makespan=max((p.clock for p in procs), default=0.0),
            busy=[p.busy for p in procs],
            peak_live_tasks=[p.peak_live_tasks for p in procs],
            peak_live_values=[p.peak_live_values for p in procs],
            **vars(totals),
            **fault_counters,
        )

    # -- derived figures -----------------------------------------------------
    @property
    def total_busy(self) -> float:
        return sum(self.busy)

    @property
    def imbalance(self) -> float:
        return imbalance(self.busy)

    @property
    def fairness(self) -> float:
        return jain_fairness(self.busy)

    @property
    def cv(self) -> float:
        return coefficient_of_variation(self.busy)

    @property
    def efficiency(self) -> float:
        """Fraction of total processor-time spent busy (``∈ (0, 1]``)."""
        if self.makespan == 0:
            return 1.0
        return self.total_busy / (self.processors * self.makespan)

    @property
    def messages(self) -> int:
        """All cross-processor traffic: explicit sends + remote bindings."""
        return self.sends + self.remote_bindings

    @property
    def max_peak_live_tasks(self) -> int:
        return max(self.peak_live_tasks, default=0)

    @property
    def max_peak_live_values(self) -> int:
        return max(self.peak_live_values, default=0)

    @property
    def library_fraction(self) -> float:
        """Fraction of charged cost spent in motif-library procedures."""
        total = self.total_busy
        if total == 0:
            return 0.0
        return self.library_cost / total

    @property
    def faults_injected(self) -> int:
        return (
            self.crashes + self.messages_dropped + self.messages_delayed
            + self.messages_duplicated + self.partition_dropped
        )

    @property
    def reliability_events(self) -> int:
        """All Reliable-motif protocol activity (zero when the motif is
        absent or never had to act)."""
        return (
            self.rel_retransmits + self.rel_acks
            + self.rel_duplicates_suppressed + self.rel_unreachable
        )

    def counters(self) -> dict[str, int]:
        """Every fault/reliability/trace counter as one flat dict — the
        uniform export surface for bench JSON and reporting tables, so no
        counter exists only in one harness's ad-hoc output."""
        counters = {f.name: getattr(self, f.name) for f in fields(FaultStats)}
        counters["trace_dropped"] = self.trace_dropped
        return counters

    def summary(self) -> str:
        text = (
            f"P={self.processors} makespan={self.makespan:.1f} "
            f"busy={self.total_busy:.1f} eff={self.efficiency:.3f} "
            f"imb={self.imbalance:.3f} red={self.reductions} "
            f"msgs={self.messages} (sends={self.sends}, remote_binds={self.remote_bindings}) "
            f"peak_tasks={self.max_peak_live_tasks}"
        )
        if self.faults_injected:
            text += (
                f" faults(crashes={self.crashes}, dropped={self.messages_dropped}, "
                f"delayed={self.messages_delayed}, duplicated={self.messages_duplicated}, "
                f"partition_dropped={self.partition_dropped}, "
                f"abandoned={self.processes_abandoned}, "
                f"migrated={self.processes_migrated}, "
                f"orphans={self.orphaned_suspensions}, "
                f"timeouts={self.sup_timeouts}, retries={self.sup_retries}, "
                f"degraded={self.sup_degraded})"
            )
        if self.reliability_events:
            text += (
                f" reliable(retransmits={self.rel_retransmits}, acks={self.rel_acks}, "
                f"dup_suppressed={self.rel_duplicates_suppressed}, "
                f"unreachable={self.rel_unreachable})"
            )
        if self.trace_dropped:
            text += f" trace_dropped={self.trace_dropped} (trace truncated)"
        if self.parallel is not None:
            text += f" {self.parallel.summary()}"
        return text
