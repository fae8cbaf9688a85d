"""Structured, causally-linked event traces for the virtual machine.

Tracing is off by default (it costs memory on big runs); benchmarks, tests,
and the CLI's ``--gantt``/``--trace-out`` flags turn it on.  The disabled
path is a single ``enabled`` check with no allocation, so the engine hot
path pays (nearly) nothing when observability is off.

Every recorded event gets a **monotonic event id** and a **cause link** —
the id of the event that causally produced it (``0`` for roots).  The
runtime threads causality through every machine interaction:

* ``spawn`` → ``reduce``/``suspend`` (a process's events point at the spawn
  or wake that made it runnable);
* ``send`` → ``bind`` (delivery) → ``wake`` (a woken process points at the
  binding that woke it, which points at the send that carried it);
* ``timeout`` → the ``after/2`` arm site; the timeout's probe binding points
  at the timeout event;
* ``crash`` → the ``fault`` events for every process it abandons, migrates,
  or orphans.

Walking ``cause`` links backwards from any event terminates at a root goal
spawn (or an injected fault), so any binding or failure can be attributed.
Events also carry the **motif tag** of the rule layer that produced them
(see :mod:`repro.core.motif`) and, for reductions, the virtual ``dur``
charged — enough to reconstruct a full per-motif schedule offline.

Storage modes:

* **full** (default) — append until ``limit``, then count drops (the trace
  is a complete prefix; ``truncated`` flags the loss);
* **ring** (``ring=True``) — keep the *last* ``limit`` events, evicting the
  oldest (the trace is a complete suffix; ``dropped`` counts evictions).

A :class:`~repro.machine.tracefile.TraceSink` can be attached to stream
events out (JSONL) as they are recorded, bounding memory on long runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator

__all__ = ["TraceEvent", "Trace"]


@dataclass(frozen=True)
class TraceEvent:
    """One machine event.

    ``kind`` is one of ``reduce``, ``spawn``, ``suspend``, ``wake``,
    ``send``, ``bind``, ``fail``, ``fault``, ``crash``, ``timeout``;
    ``time`` is the virtual time at which it happened on processor
    ``proc``; ``detail`` is a short human-readable payload (goal indicator,
    message summary, …).

    ``eid`` is the monotonic event id (1-based; unique within one trace),
    ``cause`` the id of the event that causally produced this one (``0``
    for roots), ``motif`` the motif layer the event is attributed to
    (``""`` for user code and runtime plumbing), and ``dur`` the virtual
    cost charged (nonzero only for ``reduce`` events).
    """

    time: float
    proc: int
    kind: str
    detail: str
    eid: int = 0
    cause: int = 0
    motif: str = ""
    dur: float = 0.0


class Trace:
    """An append-only event log with ids, cause links and query helpers.

    ``cause`` is the *current causal context*: the scheduler/reducer set it
    to the event id of whatever is currently executing, and ``record``
    defaults new events' cause links to it.  Callers with more specific
    knowledge (a delivery caused by a particular send) pass ``cause``
    explicitly.
    """

    def __init__(self, enabled: bool = False, limit: int | None = 1_000_000,
                 ring: bool = False):
        self.enabled = enabled
        self.limit = limit
        self.ring = ring
        self.events: list[TraceEvent] | deque[TraceEvent]
        if ring and limit is not None:
            self.events = deque(maxlen=limit)
        else:
            self.events = []
        self.dropped = 0
        self.cause = 0
        self._next_id = 1
        self._sink = None  # TraceSink | None

    def attach_sink(self, sink) -> None:
        """Stream every subsequently recorded event to ``sink`` (an object
        with a ``write(event)`` method, e.g.
        :class:`~repro.machine.tracefile.TraceSink`)."""
        self._sink = sink

    def record(self, time: float, proc: int, kind: str, detail: str,
               cause: int | None = None, motif: str = "",
               dur: float = 0.0) -> int:
        """Record one event; returns its id (``0`` when disabled or full).

        ``cause=None`` (the default) links the event to the current causal
        context ``self.cause``."""
        if not self.enabled:
            return 0
        if self.limit is not None and not self.ring \
                and len(self.events) >= self.limit:
            self.dropped += 1
            return 0
        eid = self._next_id
        self._next_id = eid + 1
        if self.ring and self.limit is not None \
                and len(self.events) == self.limit:
            self.dropped += 1  # deque evicts the oldest on append
        event = TraceEvent(time, proc, kind, detail, eid,
                           self.cause if cause is None else cause, motif, dur)
        self.events.append(event)
        if self._sink is not None:
            self._sink.write(event)
        return eid

    @property
    def truncated(self) -> bool:
        """True when events were dropped past ``limit`` — ``of_kind()`` and
        ``__len__`` then under-report and the trace must not be treated as
        complete.  In ring mode the retained events are the *latest* ones
        (the prefix was evicted)."""
        return self.dropped > 0

    def clear(self) -> None:
        """Empty the log for reuse, resetting the ``dropped`` count, the id
        counter, and the causal context, so a reused trace reports neither
        stale truncation nor continuing event ids."""
        self.events.clear()
        self.dropped = 0
        self.cause = 0
        self._next_id = 1

    def of_kind(self, kind: str) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

    def by_id(self) -> dict[int, TraceEvent]:
        """``eid -> event`` lookup (for walking cause chains)."""
        return {e.eid: e for e in self.events}

    def chain(self, eid: int) -> list[TraceEvent]:
        """The causal chain ending at event ``eid``, root first.

        Follows ``cause`` links back to a root (cause 0); links pointing at
        evicted events (ring mode) terminate the walk."""
        index = self.by_id()
        out: list[TraceEvent] = []
        seen: set[int] = set()
        while eid and eid in index and eid not in seen:
            seen.add(eid)
            event = index[eid]
            out.append(event)
            eid = event.cause
        out.reverse()
        return out

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def format(self, max_events: int | None = None) -> str:
        """Human-readable rendering, time-ordered."""
        events = sorted(self.events, key=lambda e: (e.time, e.proc, e.eid))
        if max_events is not None:
            events = events[:max_events]
        lines = [
            f"t={e.time:10.2f}  p{e.proc:<3d} {e.kind:<8s} {e.detail}" for e in events
        ]
        if self.dropped:
            lines.append(f"... ({self.dropped} events dropped)")
        return "\n".join(lines)
