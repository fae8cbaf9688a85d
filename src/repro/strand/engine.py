"""The Strand runtime facade on the virtual multicomputer.

Semantics (paper §2.1): "The state of a computation is represented by a pool
of lightweight processes.  Execution proceeds by repeatedly selecting and
attempting to reduce processes in this pool.  ...  The availability of data
serves as the synchronization mechanism."

Architecture
------------
The runtime is a pipeline: *parse → transform → compile → schedule/reduce*
(see ``docs/INTERNALS.md``).  :class:`StrandEngine` is the facade that wires
the pieces together:

* the **compile layer** (:mod:`repro.strand.compile`) lowers the program to
  a :class:`CompiledProgram` — one generated Python function per rule
  (head match, guards and body build) and an order-preserving
  first-argument rule index;
* the **scheduler** (:mod:`repro.strand.scheduler`) is a discrete-event
  simulator: a global event heap orders processors by the earliest time they
  can next execute, and per-processor heaps order processes by readiness;
* the **reducer** (:mod:`repro.strand.reducer`) performs one reduction
  attempt: primitive (builtin or raw foreign), foreign, or compiled
  user-rule dispatch.

The engine itself keeps the parts builtins interact with: binding (with
wakeups), ports, spawning (local and remote with the network's latency),
and the quiescence policy for declared services.

Everything is deterministic given the machine seed: ties break on a
monotone sequence number.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Iterable

from repro.errors import (
    DoubleAssignmentError,
    StrandError,
)
from repro.machine.metrics import MachineMetrics
from repro.machine.simulator import Machine
from repro.strand.compile import CompiledProgram, compile_program
from repro.strand.foreign import ForeignRegistry, to_python
from repro.strand.parser import parse_query
from repro.strand.program import Program
from repro.strand.reducer import PRIMITIVE, Reducer
from repro.strand.scheduler import Process, Scheduler
from repro.strand.streams import PortRef
from repro.strand.terms import Atom, Cons, NIL, Struct, Term, Var, deref, term_eq

__all__ = ["Process", "StrandEngine", "QueryResult", "run_query"]


def _msg_tag(msg: Term) -> str:
    """Short classification of a message for traces (its functor)."""
    msg = deref(msg)
    if type(msg) is Struct:
        return msg.functor
    if type(msg) is Atom:
        return msg.name
    return type(msg).__name__.lower()


class QueryResult:
    """Answer bindings + machine metrics + any ``write/1`` output."""

    def __init__(self, bindings: dict[str, Term], metrics: MachineMetrics,
                 output: list[str], engine: "StrandEngine"):
        self.bindings = bindings
        self.metrics = metrics
        self.output = output
        self.engine = engine

    def __getitem__(self, name: str) -> Term:
        return deref(self.bindings[name])

    def value(self, name: str) -> Any:
        """The binding for ``name`` converted to Python data."""
        return to_python(self.bindings[name])


class StrandEngine:
    """Runs a :class:`Program` on a :class:`Machine`.

    Parameters
    ----------
    program:
        The (already motif-transformed) program to run; compiled on entry
        (cached per program instance, so re-running the same program pays
        compilation once).
    machine:
        Virtual multicomputer; defaults to a single processor.
    foreign:
        Registry of Python procedures callable from Strand.
    watched:
        ``name/arity`` pairs whose live-process high-water is tracked per
        processor (experiment E4's memory proxy).
    library:
        ``name/arity`` pairs charged as *motif library* cost rather than
        user cost (experiment E8's overhead split).
    services:
        ``name/arity`` pairs of perpetual service processes (servers,
        merges).  When only services remain suspended and every open port
        has gone quiet, the engine closes all ports so services can
        terminate — the engine-level complement of the short-circuit
        termination motif.
    profile:
        Optional :class:`~repro.machine.profile.MotifProfile` — when set,
        every reduction, suspension, and explicit message is attributed to
        the ``(motif, predicate)`` pair that caused it.  ``None`` (the
        default) keeps the hot path at a single ``is not None`` check.
    abandon_stragglers:
        When True, processes still suspended once the computation is
        otherwise quiescent (no runnable work, no pending timers, ports
        already closed) are abandoned instead of raising
        :class:`DeadlockError`.  Message-loss faults can permanently strand
        the guts of a superseded supervision attempt — its retry already
        resolved the output the stragglers were computing — so the tree
        runners switch it on for every stack with a Supervise layer.
        Abandoned stragglers are counted as ``processes_abandoned`` and
        traced.  Leave False (the default) anywhere deadlock detection
        matters.
    """

    def __init__(
        self,
        program: Program,
        machine: Machine | None = None,
        foreign: ForeignRegistry | None = None,
        *,
        watched: Iterable[tuple[str, int]] = (),
        library: Iterable[tuple[str, int]] = (),
        services: Iterable[tuple[str, int]] = (),
        max_reductions: int = 5_000_000,
        abandon_stragglers: bool = False,
        profile=None,
    ):
        self.program = program
        self.machine = machine or Machine(1)
        self.foreign = foreign or ForeignRegistry()
        self.watched = set(watched)
        self.library = set(library)
        self.services = set(services) | {("merge", 3)}
        self.max_reductions = max_reductions
        self.abandon_stragglers = abandon_stragglers
        self.profile = profile
        # Shard context when this engine runs inside a parallel-backend
        # worker (None in sequential operation and in the coordinating
        # parent).
        self.shard = None

        self.compiled: CompiledProgram = compile_program(program)
        self.scheduler = Scheduler(self.machine, max_reductions)
        self.reducer = Reducer(self, self.compiled, self.foreign)

        self.output: list[str] = []
        self.ports: list[PortRef] = []
        self._ports_closed = False
        self._crash_timers_installed = False

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def spawn(self, goal: Term, proc: int = 1, ready: float = 0.0,
              lib: bool | None = None, cause: int | None = None,
              motif: str | None = None, inherit: bool = False) -> Process:
        """Add a process to the pool on processor ``proc`` (1-based).

        ``cause`` is the trace event id the spawn links back to (``None`` =
        current causal context).  The process keeps its goal's link target
        (:meth:`Reducer.link`), and is classified by it — ``lib`` (library
        or user cost) and ``motif`` (provenance) — under three rules:

        * a rule's body goals are spawned by :meth:`spawn_body`, not here: a
          primitive inherits the rule's ``lib`` and ``motif``, any other
          goal is classified by library membership and its own tag;
        * a goal arriving by ``@`` or on the parallel wire (``inherit``, the
          sender's ``lib``): a primitive inherits the sender's lib flag, any
          other goal is classified by its indicator;
        * ``call/1`` (``lib``) passes on the caller's lib flag and looks
          provenance up; Supervise's ``sup_spawn(Copy) :- call(Copy)``
          depends on this.

        Otherwise a given ``lib`` or ``motif`` wins; ``None`` looks it up.
        """
        if type(goal) is not Struct:
            goal = deref(goal)
            if type(goal) is Atom:
                goal = Struct(goal.name, ())
            elif type(goal) is not Struct:
                raise StrandError(f"cannot spawn non-goal term {goal!r}")
        target = self.reducer.links[goal.functor, len(goal.args)]
        kind, _fn, target_lib, watched, target_motif = target
        if lib is None or inherit and kind is not PRIMITIVE:
            lib = target_lib
        if motif is None or inherit and kind is not PRIMITIVE:
            motif = target_motif
        scheduler = self.scheduler
        scheduler.seq += 1
        process = Process(goal, proc, ready, scheduler.seq, lib, target, motif)
        if watched:
            self.machine.procs[proc - 1].task_spawned()
        scheduler.push(process)
        trace = self.machine.trace
        if trace.enabled:
            eid = trace.record(ready, proc, "spawn", goal.functor,
                               cause=cause, motif=motif or "")
            # The spawn becomes the child's causal context; if it was
            # dropped (trace full), fall back so chains skip the hole.
            process.cause_evt = eid if eid else (
                trace.cause if cause is None else cause
            )
        return process

    def spawn_body(self, goals: tuple, parent: Process, ready: float) -> None:
        """``spawn(goal, parent.proc, ready, parent.lib, None, parent.motif,
        inherit=True)`` for each body goal in turn, in one loop with
        ``Scheduler.push`` inlined (the parent is running, so its processor
        is alive).  The marker time ``max(ready, clock)`` is the same for
        every goal, so only the first can arm it."""
        proc, lib, motif = parent.proc, parent.lib, parent.motif
        vp = self.machine.procs[proc - 1]
        scheduler = self.scheduler
        queue = scheduler.queues[proc - 1]
        links = self.reducer.links
        trace = self.machine.trace
        traced = trace.enabled
        time = vp.clock if vp.clock > ready else ready
        current = scheduler.event_time[proc - 1]
        arm = current is None or time < current
        seq = scheduler.seq
        for goal in goals:
            if type(goal) is not Struct:
                goal = _body_goal(goal, parent)
            target = links[goal.functor, len(goal.args)]
            seq += 1
            if target[0] is PRIMITIVE:
                process = Process(goal, proc, ready, seq, lib, target,
                                  target[4] if motif is None else motif)
            else:
                process = Process(goal, proc, ready, seq, target[2], target, target[4])
            if target[3]:
                vp.task_spawned()
            heappush(queue, (ready, seq, process))
            if arm:
                arm = False
                seq += 1
                scheduler.event_time[proc - 1] = time
                heappush(scheduler.events, (time, seq, proc))
            if traced:
                eid = trace.record(ready, proc, "spawn", goal.functor,
                                   motif=process.motif or "")
                process.cause_evt = eid if eid else trace.cause
        scheduler.seq = seq

    def spawn_remote(self, goal: Term, src: int, dst: int, now: float,
                     lib: bool = False) -> Process | None:
        """Spawn on another processor; the task travels as a message.

        Under a fault plan the message may be dropped (returns ``None`` —
        the task is simply lost, as on a real network) or delayed (the
        fate's inflated latency is used).  The send is accounted either
        way: the message left the source.  Inside a parallel-backend worker
        a destination owned by another shard gets the task at the next
        epoch barrier (also ``None`` here)."""
        latency = 0.0
        cause: int | None = None
        if src != dst:
            fate, latency, cause = self._send(src, dst, now, "spawn", goal,
                                              duplicable=False)
            if fate == "drop":
                return None
            shard = self.shard
            if shard is not None and not shard.owns(dst):
                shard.remote_spawn(goal, dst, now + latency, lib, now)
                return None
        return self.spawn(goal, dst, now + latency, lib, cause, inherit=True)

    def _send(self, src: int, dst: int, now: float, kind: str, msg: Term,
              duplicable: bool = True) -> tuple[str, float, int | None]:
        """Account one explicit message ``src -> dst``: its fate under the
        fault plan, the sender's ``sends`` and ``hops``, the profile and the
        ``send`` trace event.  Returns ``(fate, latency, send event id)``."""
        machine = self.machine
        fate, latency = machine.message_fate(src, dst, now,
                                             duplicable=duplicable)
        vp = machine.procs[src - 1]
        vp.sends += 1
        vp.hops += machine.hops(src, dst)
        if self.profile is not None:
            self.profile.message()
        cause: int | None = None
        if machine.trace.enabled:
            cause = machine.trace.record(
                now, src, "send", f"{kind}:{_msg_tag(msg)}->{dst}"
            ) or None
        return fate, latency, cause

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def bind(self, target: Term, value: Term, proc: int, now: float,
             cause: int | None = None) -> None:
        """Bind ``target`` (which must deref to an unbound variable, or to a
        term structurally equal to ``value``) and wake its waiters.

        ``cause`` is the trace event id that produced the binding (``None``
        = current causal context; port delivery passes the send event);
        woken waiters link to the bind event, completing the
        send → bind → wake chain."""
        target = deref(target)
        if type(target) is not Var:
            if term_eq(target, value):
                return
            self.double_assignment(target, value, None)
        value_d = deref(value)
        if value_d is target:
            return  # X := X — trivially satisfied
        target.ref = value_d
        shard = self.shard
        if shard is not None and not shard.suppress:
            vid = shard.var_vids.get(id(target))
            if vid is not None:
                # The variable is replicated on other shards (it crossed a
                # shard boundary inside some message): broadcast the binding
                # so every replica resolves at the next epoch barrier.
                shard.queue_bind(vid, value_d, proc, now)
        waiters = target.waiters
        target.waiters = None
        trace = self.machine.trace
        beid = (trace.record(now, proc, "bind", target.name, cause=cause)
                if trace.enabled else 0)
        if type(value_d) is Var:
            # Aliasing two unbound variables: move waiters across.
            if waiters:
                if value_d.waiters is None:
                    value_d.waiters = waiters
                else:
                    value_d.waiters.extend(waiters)
            return
        if waiters:
            self.scheduler.wake(waiters, proc, now, beid or None)

    def bind_if_unbound(self, target: Term, value: Term, proc: int,
                        now: float, cause: int | None = None) -> bool:
        """Bind only when ``target`` is still an unbound variable; return
        whether a binding happened.  This is the race-free primitive the
        supervision motif needs: a timeout and a late-completing attempt
        may both try to resolve the same probe, and whichever runs first in
        the deterministic event order wins — the loser is a no-op instead
        of a double-assignment error."""
        target = deref(target)
        if type(target) is not Var:
            return False
        self.bind(target, value, proc, now, cause=cause)
        return True

    def double_assignment(self, target: Term, value: Term, process: Process | None):
        from repro.strand.pretty import format_term

        where = f" in {process.describe()}" if process else ""
        raise DoubleAssignmentError(
            f"assignment to bound value {format_term(target)} "
            f"(new value {format_term(value)}){where}"
        )

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------
    def register_port(self, port: PortRef) -> None:
        self.ports.append(port)

    def port_send(self, port: PortRef, msg: Term, src: int, now: float) -> None:
        if port.closed:
            raise StrandError(f"send on closed port {port!r}")
        owner = port.owner
        deliver_at = now
        cause: int | None = None
        fate = "deliver"
        if src != owner:
            fate, latency, cause = self._send(src, owner, now, "port", msg)
            if fate == "drop":
                # Lost message: the stream tail does not advance, so the
                # dropped element simply never appears — later sends splice
                # in after the last delivered one.
                return
            if fate == "delay":
                deliver_at = now + (latency - self.machine.latency(src, owner))
        shard = self.shard
        if shard is not None:
            gid = shard.port_gid(port)
            if gid[0] != shard.id:
                # Stub of a port owned by another shard: the owner splices
                # the message into the real stream at the epoch barrier.
                shard.remote_port_send(gid, msg, src, now)
                return
        if fate == "duplicate":
            # At-least-once artefact: the element is spliced into the
            # stream twice, back to back.  Receivers without dedup see
            # the message twice.
            self._port_append(port, msg, src, deliver_at, cause)
        self._port_append(port, msg, src, deliver_at, cause)

    def _port_append(self, port: PortRef, msg: Term, src: int, at: float,
                     cause: int | None = None) -> None:
        old_tail = port.tail
        new_tail = Var("PortTail")
        port.tail = new_tail
        self.bind(old_tail, Cons(msg, new_tail), src, at, cause=cause)

    def port_close(self, port: PortRef, src: int, now: float) -> None:
        if port.closed:
            return
        shard = self.shard
        if shard is not None:
            gid = shard.port_gid(port)
            if gid[0] != shard.id:
                port.closed = True
                shard.remote_port_close(gid, src, now)
                return
        port.closed = True
        self.bind(port.tail, NIL, src, now)

    def close_all_ports(self, now: float) -> None:
        """Terminate every open port's stream (quiescence handling)."""
        for port in self.ports:
            if not port.closed:
                self.port_close(port, port.owner, now)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> MachineMetrics:
        """Run until the pool drains.  Raises :class:`DeadlockError` if
        suspended processes remain that cannot be resolved by closing
        ports, and :class:`ProcessFailureError` on unmatched processes."""
        if self.shard is None and self.machine.backend == "parallel":
            from repro.machine.parallel import run_parallel

            return run_parallel(self)
        # Display names for anonymous variables restart at _G1 each run, so
        # same-seed runs in one process emit byte-identical traces (the
        # counter is otherwise process-global and would keep climbing).
        Var.reset_names()
        self.machine.trace.cause = 0
        self._install_crash_timers()
        self.scheduler.run(self.reducer.execute, self._try_quiesce)
        return self.machine.metrics()

    def _install_crash_timers(self) -> None:
        """Arm one scheduler timer per entry in the machine's seed-fixed
        crash schedule (idempotent across repeated ``run`` calls)."""
        if self._crash_timers_installed:
            return
        self._crash_timers_installed = True
        for pnum in sorted(self.machine.crash_schedule):
            when = self.machine.crash_schedule[pnum]
            self.scheduler.add_timer(
                when, lambda now, p=pnum: self._crash(p, now)
            )

    def _crash(self, pnum: int, now: float) -> None:
        migrate_to = None
        faults = self.machine.faults
        if faults is not None and faults.migrate:
            migrate_to = self._next_live(pnum)
        self.scheduler.kill_processor(pnum, now, migrate_to=migrate_to)

    def _next_live(self, pnum: int) -> int | None:
        """The next live processor after ``pnum`` in ring order (migration
        target for a crashed processor's runnable queue)."""
        size = self.machine.size
        for offset in range(1, size):
            candidate = (pnum - 1 + offset) % size + 1
            if self.machine.procs[candidate - 1].alive:
                return candidate
        return None

    def quiesce_state(self) -> tuple[int, bool, bool, float]:
        """This engine's input to :meth:`quiesce_action`: ``(suspended
        processes, whether all of them are declared services, whether a
        port is open, latest processor clock)``.  In a parallel-backend
        worker the clock is over the processors its shard owns."""
        procs = self.machine.procs
        if self.shard is not None:
            procs = [vp for vp in procs if self.shard.owns(vp.number)]
        suspended = self.scheduler.suspended.values()
        return (
            len(suspended),
            all(process.goal.indicator in self.services
                for process in suspended),
            any(not port.closed for port in self.ports),
            max((vp.clock for vp in procs), default=0.0),
        )

    def quiesce_action(self, services_only: bool,
                       open_ports: bool) -> str | None:
        """Both backends' quiescence policy, once runnable work is gone but
        suspensions remain: ``"close"`` the open ports (once) when only
        services are suspended, ``"abandon"`` the stragglers, or ``None``
        for a deadlock.  With ``abandon_stragglers``, non-service
        suspensions do not block the close (they may be stragglers of
        superseded supervision attempts), and whatever is still suspended
        after it is abandoned.  Returning ``"close"`` records the close, so
        the decision closes at most once per run."""
        if self.abandon_stragglers or services_only:
            if open_ports and not self._ports_closed:
                self._ports_closed = True
                return "close"
        if self.abandon_stragglers:
            return "abandon"
        return None

    def _try_quiesce(self) -> bool:
        """Apply :meth:`quiesce_action` to this engine's own state."""
        _suspended, services_only, open_ports, now = self.quiesce_state()
        action = self.quiesce_action(services_only, open_ports)
        if action == "close":
            self.close_all_ports(now)
        elif action == "abandon":
            self.scheduler.abandon_suspended(now)
        return action is not None


def _body_goal(term: Term, parent: Process) -> Struct:
    """A body goal as a structure (it may be a bound variable or an atom)."""
    goal = deref(term)
    if type(goal) is Atom:
        return Struct(goal.name, ())
    if type(goal) is not Struct:
        raise StrandError(
            f"body goal {goal!r} of {parent.describe()} is not callable"
        )
    return goal


def run_query(
    program: Program,
    query: str,
    machine: Machine | None = None,
    foreign: ForeignRegistry | None = None,
    **engine_options: Any,
) -> QueryResult:
    """Parse a goal conjunction, run it to completion, return bindings.

    >>> result = run_query(program, "go(4)")
    >>> result = run_query(program, "reduce(T, Value)")
    >>> result["Value"]
    """
    goals, varmap = parse_query(query)
    engine = StrandEngine(program, machine=machine, foreign=foreign, **engine_options)
    for goal in goals:
        engine.spawn(goal, proc=1, ready=0.0)
    metrics = engine.run()
    return QueryResult(dict(varmap), metrics, engine.output, engine)
