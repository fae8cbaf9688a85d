"""The discrete-event scheduler half of the runtime core.

The seed engine held scheduling state (event heap, per-processor ready
queues, the suspension table) and reduction logic (rule selection, builtin
and foreign dispatch) in one class, and ``machine/`` and ``strand/`` reached
into each other's internals through it.  The split runtime gives each half
one job: the :class:`Scheduler` owns *when and where* a process runs — the
event heap ordering processors by next-executable time, per-processor heaps
ordering processes by readiness, suspension/wakeup, quiescence detection and
deadlock reporting — while the reducer (see :mod:`repro.strand.reducer`)
owns *what one reduction does*.

Everything is deterministic given the machine seed: ties break on a
monotone sequence number issued here.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Sequence

from repro.errors import DeadlockError, StrandError
from repro.machine.simulator import Machine
from repro.strand.terms import Struct, Var, deref

__all__ = ["Process", "Scheduler", "RUNNABLE", "SUSPENDED", "DONE",
           "deadlock_report"]

RUNNABLE = 0
SUSPENDED = 1
DONE = 2


class Process:
    """One lightweight process: a goal plus scheduling state.

    ``blocked_on`` holds the variables the process last suspended on (None
    while runnable) — deadlock reports read it to say *why* each stuck
    process is stuck.

    ``cause_evt`` is the trace event id that made the process runnable (its
    spawn, or the latest wake) — the causal context every event recorded
    during its reduction links back to; it stays 0 when tracing is off.
    ``motif`` is the provenance tag of the procedure the goal calls
    (``None`` for user code); ``target`` is the goal's link target.
    """

    __slots__ = ("goal", "proc", "ready", "state", "seq", "lib",
                 "blocked_on", "cause_evt", "motif", "target")

    def __init__(self, goal: Struct, proc: int, ready: float, seq: int,
                 lib: bool, target: tuple, motif: str | None = None):
        self.goal = goal
        self.proc = proc
        self.ready = ready
        self.state = RUNNABLE
        self.seq = seq
        self.lib = lib
        self.blocked_on: list[Var] | None = None
        self.cause_evt = 0
        self.motif = motif
        self.target = target

    def describe(self) -> str:
        from repro.strand.pretty import format_term

        return f"p{self.proc}: {format_term(self.goal)}"


class Scheduler:
    """Event heap + per-processor queues + the suspension table.

    ``run`` drives the loop, delegating each reduction attempt to an
    ``execute(process, now) -> cost | None`` callback and quiescence policy
    to an ``on_quiesce() -> bool`` callback (the engine decides whether
    closing ports may release the remaining suspensions).
    """

    def __init__(self, machine: Machine, max_reductions: int):
        self.machine = machine
        size = machine.size
        self.queues: list[list] = [[] for _ in range(size)]
        self.events: list = []
        # One live event marker per processor (None = none outstanding).
        self.event_time: list[float | None] = [None] * size
        # Timed callbacks — ``(time, seq, fn)`` — interleaved with the event
        # heap in virtual-time order (timer first on ties).  Crash events
        # and supervision timeouts (``after/2``) both live here, so failure
        # injection and failure *handling* share one deterministic clock.
        self.timers: list = []
        self.seq = 0
        self.suspended: dict[int, Process] = {}
        # Processes that were suspended on a processor when it crashed:
        # removed from the suspension table (they will never run) but kept
        # for the deadlock report, which names them as the likely reason
        # other processes are stuck.
        self.orphans: list[Process] = []
        self.max_reductions = max_reductions
        self.reduction_budget = max_reductions

    # ------------------------------------------------------------------
    # Queue plumbing
    # ------------------------------------------------------------------
    def push(self, process) -> None:
        """Queue ``process`` and arm its processor's marker.
        ``StrandEngine.spawn_body`` inlines this for a rule's body goals,
        whose processor (the parent's) is alive."""
        vp = self.machine.procs[process.proc - 1]
        if not vp.alive:
            # Fail-stop: work destined for a crashed processor is lost.
            process.state = DONE
            self.machine.fault_stats.processes_abandoned += 1
            return
        heappush(self.queues[process.proc - 1], (process.ready, process.seq, process))
        self.schedule(process.proc, max(process.ready, vp.clock))

    def add_timer(self, time: float, fn: Callable[[float], None]) -> None:
        """Arm a callback at virtual time ``time``; ``fn(now)`` runs before
        any reduction scheduled at a later time (and before reductions at
        the same time).  Callbacks are charged no cost, so a timer that has
        nothing to do (e.g. an ``after/2`` whose probe is already bound)
        never inflates the makespan."""
        self.seq += 1
        heappush(self.timers, (time, self.seq, fn))

    def schedule(self, pnum: int, time: float) -> None:
        """Ensure the event heap holds a marker for processor ``pnum`` at or
        before ``time``.  One live marker per processor keeps the heap
        O(P + transitions) instead of O(runnable × clock-advances).

        The reference semantics of marker arming.  ``drain`` and
        ``StrandEngine.spawn_body`` inline it with the same sequence numbers
        in the same order; a test pins ``spawn_body`` against spawning each
        goal through ``spawn`` and ``push``."""
        current = self.event_time[pnum - 1]
        if current is None or time < current:
            self.event_time[pnum - 1] = time
            self.seq += 1
            heappush(self.events, (time, self.seq, pnum))

    # ------------------------------------------------------------------
    # Suspension and wakeup
    # ------------------------------------------------------------------
    def suspend(self, process: Process, variables: list[Var],
                now: float = 0.0) -> None:
        if not variables:
            raise StrandError(f"process suspended on no variables: {process.describe()}")
        real = []
        seen: set[int] = set()
        for var in variables:
            var = deref(var)
            if type(var) is not Var or id(var) in seen:
                continue
            seen.add(id(var))
            real.append(var)
        if not real:
            # Every blocker got bound while we were deciding — retry soon.
            process.ready = now
            self.push(process)
            return
        process.state = SUSPENDED
        process.blocked_on = real
        self.suspended[id(process)] = process
        for var in real:
            if var.waiters is None:
                var.waiters = []
            var.waiters.append(process)
        vp = self.machine.procs[process.proc - 1]
        vp.suspensions += 1
        trace = self.machine.trace
        if trace.enabled:
            trace.record(now, process.proc, "suspend",
                         process.goal.functor,
                         motif=process.motif or "")

    def wake(self, waiters: list, binder_proc: int, now: float,
             cause: int | None = None) -> None:
        """Wake suspended waiters.  ``cause`` is the trace event id of the
        binding that released them (``None`` = current causal context); the
        wake event becomes each process's new causal context."""
        machine = self.machine
        procs = machine.procs
        trace = machine.trace
        for process in waiters:
            if process.state != SUSPENDED:
                continue
            process.state = RUNNABLE
            process.blocked_on = None
            self.suspended.pop(id(process), None)
            if binder_proc != process.proc:
                latency = machine.latency(binder_proc, process.proc)
                vp = procs[binder_proc - 1]
                vp.remote_bindings += 1
                vp.hops += machine.hops(binder_proc, process.proc)
            else:
                latency = 0.0
            process.ready = now + latency
            procs[process.proc - 1].wakeups += 1
            self.push(process)
            if trace.enabled:
                eid = trace.record(now, process.proc, "wake",
                                   process.goal.functor, cause=cause,
                                   motif=process.motif or "")
                if eid:
                    process.cause_evt = eid

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def run(self, execute: Callable, on_quiesce: Callable[[], bool]) -> None:
        """Run until the pool drains.  Raises :class:`DeadlockError` if
        suspended processes remain after ``on_quiesce`` declines to release
        them, and propagates reducer errors unchanged."""
        while True:
            self.drain(execute)
            if not self.suspended:
                break
            if not on_quiesce():
                self.deadlock()

    def drain(self, execute: Callable, horizon: float | None = None,
              floor: int = 0) -> float | None:
        """Process timers and events in virtual-time order.

        With ``horizon=None`` (sequential operation) the loop runs until
        both heaps are empty.  With a horizon (the parallel backend's
        conservative epoch window) items at ``time >= horizon`` are left in
        place and the earliest such pending time is returned — the caller
        barriers there, exchanges cross-shard messages, and resumes with a
        later horizon.  Returns ``None`` once nothing is pending.

        ``floor`` is a pause point on the reduction budget: the attempt
        that would take ``reduction_budget`` below it is not made.  Its
        process goes back on its queue and its processor's event marker is
        re-armed unchanged, so a later ``drain`` resumes exactly there; the
        marker's time is returned.  The default floor of 0 never pauses —
        going below it is budget exhaustion, which raises.
        """
        machine = self.machine
        procs = machine.procs
        events = self.events
        queues = self.queues
        event_time = self.event_time
        timers = self.timers
        while events or timers:
            if timers and (not events or timers[0][0] <= events[0][0]):
                time = timers[0][0]
                if horizon is not None and time >= horizon:
                    return time
                _, _, fn = heappop(timers)
                fn(time)
                continue
            time = events[0][0]
            if horizon is not None and time >= horizon:
                return time
            time, eseq, pnum = heappop(events)
            index = pnum - 1
            if event_time[index] != time:
                continue  # stale duplicate marker
            event_time[index] = None
            queue = queues[index]
            if not queue:
                continue
            vp = procs[index]
            actual = queue[0][0]
            if vp.clock > actual:
                actual = vp.clock
            if actual <= time:  # else busy until ``actual``: re-arm below
                ready, pseq, process = heappop(queue)
                if process.state == RUNNABLE:
                    self.reduction_budget -= 1
                    if self.reduction_budget < floor:
                        if self.reduction_budget < 0:
                            raise StrandError(
                                f"reduction budget of {self.max_reductions} "
                                f"exhausted (possible runaway recursion)"
                            )
                        # Pause: undo the pop and the decrement, leaving
                        # both heaps exactly as they were before this
                        # iteration.
                        self.reduction_budget += 1
                        heappush(queue, (ready, pseq, process))
                        event_time[index] = time
                        heappush(events, (time, eseq, pnum))
                        return time
                    cost = execute(process, actual)
                    if cost is not None:  # None: suspended, costs nothing
                        vp.clock = actual + cost
                        vp.busy += cost
                        vp.reductions += 1
            # Re-arm from the queue's head (``schedule`` inlined).
            queue = queues[index]
            if queue:
                marker = queue[0][0]
                if vp.clock > marker:
                    marker = vp.clock
                current = event_time[index]
                if current is None or marker < current:
                    event_time[index] = marker
                    self.seq += 1
                    heappush(events, (marker, self.seq, pnum))
        return None

    # ------------------------------------------------------------------
    # Processor failure
    # ------------------------------------------------------------------
    def kill_processor(self, pnum: int, now: float,
                       migrate_to: int | None = None) -> None:
        """Fail-stop processor ``pnum`` at virtual time ``now``.

        Runnable processes queued there are abandoned — or, when
        ``migrate_to`` names a live processor, requeued on it after one
        network hop's latency (checkpoint-style recovery).  Suspended
        processes become orphans: removed from the suspension table (no
        binding can ever run them again) and kept for the deadlock report.
        """
        vp = self.machine.procs[pnum - 1]
        if not vp.alive:
            return
        vp.alive = False
        vp.crashed_at = now
        stats = self.machine.fault_stats
        stats.crashes += 1
        trace = self.machine.trace
        # The crash is a causal root; everything it abandons, migrates, or
        # orphans links back to it.
        crash_evt = trace.record(now, pnum, "crash", f"p{pnum}", cause=0)
        # Drain the runnable queue deterministically (readiness, then seq).
        entries = sorted(self.queues[pnum - 1])
        self.queues[pnum - 1] = []
        # Any outstanding event marker becomes stale (None never equals a
        # popped time), so the run loop skips it.
        self.event_time[pnum - 1] = None
        for ready, _seq, process in entries:
            if process.state != RUNNABLE:
                continue
            if migrate_to is not None:
                process.proc = migrate_to
                process.ready = max(ready, now) + self.machine.latency(
                    pnum, migrate_to
                )
                stats.processes_migrated += 1
                eid = trace.record(
                    now, pnum, "fault",
                    f"migrate:{process.goal.functor}->p{migrate_to}",
                    cause=crash_evt,
                )
                if eid:
                    process.cause_evt = eid
                self.push(process)
            else:
                process.state = DONE
                stats.processes_abandoned += 1
                trace.record(now, pnum, "fault",
                             f"abandon:{process.goal.functor}",
                             cause=crash_evt)
        for key, process in list(self.suspended.items()):
            if process.proc == pnum:
                del self.suspended[key]
                process.state = DONE
                self.orphans.append(process)
                stats.orphaned_suspensions += 1
                trace.record(now, pnum, "fault",
                             f"orphan:{process.goal.functor}",
                             cause=crash_evt)

    # ------------------------------------------------------------------
    # Quiescence: stragglers and deadlock reporting
    # ------------------------------------------------------------------
    def abandon_suspended(self, now: float) -> None:
        """Drop every suspended process (the ``abandon_stragglers``
        policy), in processor then spawn order, counting each as
        ``processes_abandoned`` and tracing it as a straggler."""
        stats = self.machine.fault_stats
        trace = self.machine.trace
        for process in sorted(self.suspended.values(),
                              key=lambda p: (p.proc, p.seq)):
            process.state = DONE
            stats.processes_abandoned += 1
            trace.record(now, process.proc, "fault",
                         f"straggler:{process.goal.functor}")
        self.suspended.clear()

    def stuck(self) -> list[tuple]:
        """One deadlock-report row per suspended process."""
        return [_report_row(process) for process in self.suspended.values()]

    def deadlock(self) -> None:
        """Raise :class:`DeadlockError` for the suspended processes."""
        raise DeadlockError(deadlock_report(
            self.stuck(), [_report_row(process) for process in self.orphans]
        ))


def _report_row(process: Process) -> tuple:
    """``(proc, seq, description, names of still-unbound blockers)``."""
    waiting = [v.name for v in (process.blocked_on or ())
               if type(deref(v)) is Var]
    return (process.proc, process.seq, process.describe(), waiting)


def deadlock_report(stuck: Sequence[tuple], orphans: Sequence[tuple] = ()) -> str:
    """The deadlock listing over :meth:`Scheduler.stuck` rows, in a
    deterministic order (processor, then spawn sequence), each with the
    variables it is blocked on; ``orphans`` are rows for suspensions lost
    with a crashed processor.  The parallel backend passes the rows of
    every shard."""
    stuck = sorted(stuck, key=lambda row: (row[0], row[1]))
    shown = stuck[:12]
    lines = []
    for _proc, _seq, describe, waiting in shown:
        suffix = f"  [waiting on {', '.join(waiting)}]" if waiting else ""
        lines.append(describe + suffix)
    more = len(stuck) - len(shown)
    listing = "\n  ".join(lines) + (f"\n  ... and {more} more" if more > 0 else "")
    orphan_note = ""
    if orphans:
        lost = sorted(orphans, key=lambda row: (row[0], row[1]))
        names = ", ".join(row[2] for row in lost[:6])
        extra = len(lost) - min(len(lost), 6)
        orphan_note = (
            f"\n{len(lost)} suspension(s) orphaned by crashed "
            f"processor(s): {names}"
            + (f", ... and {extra} more" if extra > 0 else "")
        )
    return (
        f"computation deadlocked with {len(stuck)} suspended "
        f"process(es):\n  {listing}" + orphan_note
    )
