"""Per-processor state for the virtual multicomputer."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["VirtualProcessor"]


@dataclass
class VirtualProcessor:
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
    reductions: int = 0
    suspensions: int = 0
    wakeups: int = 0
    sends: int = 0  # explicit messages (port sends, remote spawns)
    remote_bindings: int = 0  # cross-processor variable bindings
    hops: int = 0  # total hops of messages originated here

    # Watched-procedure accounting (experiment E4): number of live
    # (spawned but not yet reduced) watched processes, and its high-water.
    live_tasks: int = 0
    peak_live_tasks: int = 0
    tasks_started: int = 0

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
