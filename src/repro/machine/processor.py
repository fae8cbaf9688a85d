"""Per-processor state for the virtual multicomputer."""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ProcessorCounters", "VirtualProcessor"]


@dataclass(kw_only=True)
class ProcessorCounters:
    """The per-processor counters a run's metrics sum: their one declaration.

    :class:`VirtualProcessor` and
    :class:`~repro.machine.metrics.MachineMetrics` both inherit it, so
    ``MachineMetrics.from_processors`` sums every field here over the
    processors and the parallel backend's merge sums them over every shard's
    replica of a processor (applying a remote binding charges the binder's
    processor on the applying shard)."""

    reductions: int = 0
    suspensions: int = 0
    wakeups: int = 0
    sends: int = 0  # explicit messages (port sends, remote spawns)
    remote_bindings: int = 0  # cross-processor variable bindings
    hops: int = 0  # total hops of messages originated here
    tasks_started: int = 0  # watched processes spawned (experiment E4)
    # Virtual time charged to procedures in the "library" set (experiment
    # E8); the rest of ``busy`` is user cost.
    library_cost: float = 0.0

    def add(self, other: ProcessorCounters) -> None:
        """Add every counter of ``other`` to this record's."""
        for f in fields(ProcessorCounters):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass
class VirtualProcessor(ProcessorCounters):
    """One virtual processor: a clock plus activity counters.

    The engine serializes execution per processor: each reduction advances
    ``clock`` by its cost.  ``busy`` accumulates only executed work, so
    ``busy / makespan`` is per-processor utilization and ``max(busy) /
    mean(busy)`` is the load-imbalance figure used by experiment E3.
    """

    number: int  # 1-based, as in the paper's rand_num(N, O) convention
    # Fail-stop state: a crashed processor executes nothing further and its
    # clock freezes at the crash time (so a crash never inflates makespan).
    alive: bool = True
    crashed_at: float | None = None
    clock: float = 0.0
    busy: float = 0.0

    # Watched-procedure accounting (experiment E4): number of live
    # (spawned but not yet reduced) watched processes, and its high-water.
    live_tasks: int = 0
    peak_live_tasks: int = 0

    # Live "resident values" (bound-but-unconsumed results; experiment E4).
    live_values: int = 0
    peak_live_values: int = 0

    def task_spawned(self) -> None:
        self.live_tasks += 1
        self.tasks_started += 1
        if self.live_tasks > self.peak_live_tasks:
            self.peak_live_tasks = self.live_tasks

    def task_finished(self) -> None:
        self.live_tasks -= 1

    def value_produced(self) -> None:
        self.live_values += 1
        if self.live_values > self.peak_live_values:
            self.peak_live_values = self.live_values

    def value_consumed(self) -> None:
        self.live_values -= 1
