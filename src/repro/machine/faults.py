"""Deterministic fault injection for the virtual multicomputer.

The machine model is extended with a *failure model*: processors can crash
at scheduled virtual times, and task/port messages crossing the network can
be dropped or delayed.  Every random decision is drawn from the single
machine RNG (``Machine.rng``), interleaved with ``rand_num`` draws by the
deterministic event order — so a failure run is exactly replayable from the
machine seed, and two same-seed runs produce identical traces and metrics.

Model choices (see ``docs/INTERNALS.md``, *Failure model*):

* **Crashes** are fail-stop: a crashed processor executes nothing further.
  Its runnable processes are abandoned (or, with ``migrate=True``, requeued
  on the next live processor); its suspended processes become *orphaned* —
  they are removed from the suspension table, counted, and listed in any
  subsequent deadlock report.
* **Messages** subject to faults are the explicit ones — remote spawns and
  port sends.  Variable-binding wakeups model shared single-assignment
  state, not messages, and are delivered reliably.
* A message whose destination processor is (or will be) crashed at arrival
  time is lost, deterministically, with no RNG draw.
* **Partitions** are time-windowed link cuts between two processor groups
  (:class:`Partition`): a message whose endpoints sit on opposite sides of
  an active cut is lost deterministically, with no RNG draw, and delivery
  resumes when the window closes (scheduled healing).
* **Duplicate delivery** re-delivers a port message twice (the classic
  at-least-once network artefact the Reliable motif's dedup suppresses).
  Remote *spawns* are never duplicated — a twice-spawned bootstrap task
  would corrupt programs that are correct on a reliable network.
* When all fault rates are zero, no RNG draws happen on the message path,
  so a fault-free machine reproduces exactly the traces it produced before
  the failure model existed.  Zero-rate partition/duplicate fields likewise
  leave the RNG draw sequence untouched.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, fields

__all__ = ["FaultPlan", "FaultStats", "Partition"]


@dataclass(frozen=True)
class Partition:
    """A time-windowed network partition.

    Processors in ``group`` are cut off from every processor *not* in
    ``group`` during ``[start, end)`` — messages crossing the cut in either
    direction are lost deterministically.  Traffic within a side is
    unaffected, and the cut heals (delivery resumes) at ``end``.
    """

    group: frozenset[int]
    start: float
    end: float

    def __post_init__(self):
        object.__setattr__(self, "group", frozenset(self.group))
        if not self.group:
            raise ValueError("partition group must name at least one processor")
        if not self.start <= self.end:
            raise ValueError(
                f"partition window must have start <= end, got "
                f"[{self.start}, {self.end})"
            )

    def severs(self, src: int, dst: int, now: float) -> bool:
        """True when a ``src -> dst`` message sent at ``now`` crosses the cut."""
        if not self.start <= now < self.end:
            return False
        return (src in self.group) != (dst in self.group)


@dataclass(frozen=True)
class FaultPlan:
    """Configuration for deterministic fault injection.

    Parameters
    ----------
    crash:
        Explicit ``processor -> virtual time`` crash schedule.  Takes
        precedence over ``crash_rate`` for the listed processors.
    crash_rate:
        Probability that each processor (outside ``immortal``) crashes,
        drawn once per processor from the machine RNG at machine
        construction; the crash time is then drawn uniformly from
        ``crash_window``.
    crash_window:
        ``(earliest, latest)`` virtual-time window for randomly scheduled
        crashes.
    drop_rate:
        Per-message probability that a remote spawn or port send is lost.
    delay_rate:
        Per-message probability that delivery is delayed; the latency is
        multiplied by ``1 + delay_factor``.
    delay_factor:
        Extra latency multiplier for delayed messages.
    duplicate_rate:
        Per-message probability that a port send is delivered twice.
        Remote spawns are exempt (see the module docstring).
    partitions:
        Explicit :class:`Partition` windows — deterministic link cuts with
        scheduled healing, no RNG involved.
    partition_rate:
        Probability (drawn once per machine from the machine RNG, after the
        crash schedule) that one additional random partition is scheduled:
        a random group of non-immortal processors cut off for
        ``partition_duration`` starting at a time drawn uniformly from
        ``partition_window``.
    partition_window:
        ``(earliest, latest)`` virtual-time window for the random
        partition's start.
    partition_duration:
        Length of the random partition's window.
    immortal:
        Processors that never crash randomly (default: processor 1, which
        hosts the root computation and the supervisor).  An explicit
        ``crash`` entry overrides immortality.
    migrate:
        When True, a crashed processor's runnable queue is requeued on the
        next live processor (checkpoint-style recovery) instead of being
        abandoned.
    """

    crash: dict[int, float] = field(default_factory=dict)
    crash_rate: float = 0.0
    crash_window: tuple[float, float] = (10.0, 200.0)
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    delay_factor: float = 4.0
    duplicate_rate: float = 0.0
    partitions: tuple[Partition, ...] = ()
    partition_rate: float = 0.0
    partition_window: tuple[float, float] = (10.0, 200.0)
    partition_duration: float = 60.0
    immortal: frozenset[int] = frozenset({1})
    migrate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "crash", dict(self.crash))
        object.__setattr__(self, "immortal", frozenset(self.immortal))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        for rate_name in (
            "crash_rate", "drop_rate", "delay_rate", "duplicate_rate",
            "partition_rate",
        ):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], got {rate}")
        if self.drop_rate + self.delay_rate + self.duplicate_rate > 1.0:
            raise ValueError(
                "drop_rate + delay_rate + duplicate_rate must not exceed 1.0"
            )
        if self.partition_duration < 0.0:
            raise ValueError(
                f"partition_duration must be >= 0, got {self.partition_duration}"
            )

    @property
    def lossy(self) -> bool:
        """True when the message path needs RNG draws."""
        return (
            self.drop_rate > 0.0
            or self.delay_rate > 0.0
            or self.duplicate_rate > 0.0
        )

    def resolve_crashes(self, processors: int, rng: random.Random) -> dict[int, float]:
        """The concrete ``processor -> crash time`` schedule.

        Random entries are drawn in ascending processor order so the draw
        sequence (and hence everything downstream of the shared RNG) is a
        pure function of the machine seed.
        """
        schedule: dict[int, float] = {}
        for pnum in range(1, processors + 1):
            if pnum in self.crash:
                schedule[pnum] = float(self.crash[pnum])
            elif self.crash_rate > 0.0 and pnum not in self.immortal:
                if rng.random() < self.crash_rate:
                    lo, hi = self.crash_window
                    schedule[pnum] = rng.uniform(lo, hi)
        return schedule

    def resolve_partitions(
        self, processors: int, rng: random.Random
    ) -> tuple[Partition, ...]:
        """The concrete partition windows: the explicit ones plus (with
        probability ``partition_rate``) one randomly drawn cut.

        Random draws happen only when ``partition_rate > 0``, in a fixed
        order after the crash schedule's draws, so a zero-rate plan leaves
        the RNG draw sequence — and hence every downstream trace —
        untouched.
        """
        resolved = list(self.partitions)
        if self.partition_rate > 0.0 and processors >= 2:
            if rng.random() < self.partition_rate:
                candidates = [
                    p for p in range(1, processors + 1) if p not in self.immortal
                ]
                if candidates:
                    size = rng.randint(1, max(1, len(candidates) // 2))
                    group = frozenset(rng.sample(candidates, size))
                    start = rng.uniform(*self.partition_window)
                    resolved.append(
                        Partition(group, start, start + self.partition_duration)
                    )
        return tuple(resolved)


@dataclass
class FaultStats:
    """Counters for injected faults and the supervision responses to them.

    Owned by the :class:`~repro.machine.simulator.Machine`; snapshot into
    :class:`~repro.machine.metrics.MachineMetrics` (which inherits these
    fields) after a run.  This is the one declaration of each counter.
    """

    crashes: int = 0
    messages_dropped: int = 0
    messages_delayed: int = 0
    messages_duplicated: int = 0
    partition_dropped: int = 0
    processes_abandoned: int = 0
    processes_migrated: int = 0
    orphaned_suspensions: int = 0
    # Supervision motif accounting (bumped by the motif's own primitives).
    sup_timeouts: int = 0
    sup_retries: int = 0
    sup_degraded: int = 0
    # Reliable motif accounting (bumped by the motif's primitives).
    rel_retransmits: int = 0
    rel_acks: int = 0
    rel_duplicates_suppressed: int = 0
    rel_unreachable: int = 0

    def clear(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)
