"""Parallel execution backend: shard the virtual processors across OS
worker processes.

The sequential backend simulates all ``P`` virtual processors in one Python
process; this module executes the same simulation on real hardware
parallelism.  Processor ``p`` is owned by worker ``(p - 1) % workers``; each
worker process hosts a full :class:`~repro.strand.engine.StrandEngine` (its
own scheduler, reducer, and compiled program) but only ever runs processes
placed on its owned processors.

Synchronization is a BSP-style epoch protocol driven by the parent process:

1. every active worker drains its local event heap, buffering every
   cross-shard effect in an *outbox*.  An epoch ends when the round's
   reduction budget is spent, at local quiescence, or — with
   ``Machine(epoch_window=...)`` — at a conservative global time horizon,
   whichever comes first.  The budget is what lets shards overlap: a
   worker seeded with all the work ships its cross-shard spawns after a
   bounded stretch instead of after draining everything it owns.  It is
   :data:`EPOCH_REDUCTIONS` after a round that routed messages and doubles,
   up to :data:`MAX_EPOCH_REDUCTIONS`, after a round that routed none, so
   long shard-local stretches are not cut into barriers that deliver
   nothing;
2. at the barrier the parent routes outboxes to inboxes: remote spawns to
   the destination's owner, port messages to the port's owner, variable
   bindings broadcast to every other shard (and applied to the parent's own
   replicas, which is how query variables receive their answers);
3. each worker applies its inbox in a deterministic order — sorted by
   ``(virtual send time, source shard, per-shard message sequence)`` — and
   the next epoch begins.  A worker stays active while it has inbox
   messages or paused work;
4. once no worker is active, the parent takes the sequential quiescence
   decision, :meth:`~repro.strand.engine.StrandEngine.quiesce_action`,
   over the shards' last :meth:`~repro.strand.engine.StrandEngine.quiesce_state`
   snapshots (a worker sends one with every epoch that drains it).  The
   run ends when nothing is suspended, or with a deadlock; a ``"close"``
   or ``"abandon"`` action becomes one barrier message in every inbox, and
   the epochs go on.  The action round is an epoch like any other, under
   the same horizon and reduction budget.

Workers answer three commands: ``init``, ``epoch`` and ``finish``.

Pause points depend only on reduction and message counts, never on
wall-clock time, so repeated runs stay bit-deterministic.  Each run starts
fresh worker processes and joins them at the end.  On Linux, in a parent
running a single thread, workers are forked: they inherit the imported
``repro`` and start in a few milliseconds.  Elsewhere, and while the
parent has other live threads (fork could copy a lock one of them holds),
they are spawned, which costs a fresh interpreter and ``import repro`` —
a few tenths of a second per run.  Either way the ``init`` command ships
the pickled program, foreign registry and options over the pipe, so the
same things must be picklable under both start methods.

Cross-shard data travels as a flat, iterative *wire encoding* (see
:func:`freeze`/:func:`thaw`) so 100k-element lists neither recurse the
interpreter nor the pickler.  Variables that cross a shard boundary get a
global id ``(shard, counter)`` and exist as replicas on every shard that has
seen them; binding any replica broadcasts the value, and the engine's
suppression flag keeps an applied binding from echoing back out.  Ports are
replicated as send-only stubs: a stub send is shipped to the owning shard,
which splices it into the real stream with the original sender and send
time, so delivery latency and wake accounting match the sequential backend.

The shard hooks only move data.  Each worker's engine runs its own send
accounting, spawn delivery, port closing and straggler abandonment; the
parent runs the engine's quiescence decision and formats the stuck
processes ``finish`` returns with the scheduler's
:func:`~repro.strand.scheduler.deadlock_report`, so both backends share one
implementation of each.

Guarantees and limits
---------------------
* Same seed, same program: the parallel backend computes the same *result
  values* as the sequential backend for confluent programs (anything whose
  answer does not depend on message-arrival races).  Virtual-time metrics
  and trace interleavings are not byte-identical: ``rand_num`` draws come
  from per-worker RNG streams, and each worker advances its shard's clocks
  independently between barriers.  With ``epoch_window`` at most the
  minimum cross-processor latency, cross-shard delivery is additionally
  causally ordered (no shard runs past a time before all messages for it
  have arrived), which extends the equivalence to time-racy programs.
* Repeated parallel runs with the same seed and worker count are
  deterministic.
* Fault injection (``Machine(faults=...)``) and per-motif profiling
  (``profile=``) raise :class:`NotImplementedError` on this backend.
* ``max_reductions`` is enforced per worker, not globally.
* Processor counters (every
  :class:`~repro.machine.processor.ProcessorCounters` field) are summed
  over every shard's replica of a processor, and fault and motif counters
  (every :class:`~repro.machine.faults.FaultStats` field) over the workers.
* The returned metrics carry :class:`~repro.machine.metrics.EpochTelemetry`
  (barrier rounds, active workers, routed messages by kind, per-round
  worker busy seconds, and worker start-up seconds).
* Merged output (``write/1``) is grouped by shard, not interleaved by
  virtual time; cross-shard trace events carry no causal link across the
  epoch barrier.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sys
import threading
import traceback
from dataclasses import fields, replace
from time import perf_counter

from repro import errors as _errors
from repro.errors import DeadlockError, StrandError
from repro.machine.faults import FaultStats
from repro.machine.metrics import EpochTelemetry, MachineMetrics
from repro.strand.scheduler import deadlock_report

__all__ = ["run_parallel", "shard_of", "freeze", "thaw", "WireContext"]

#: Shard id the coordinating parent uses in global variable ids.
PARENT_SHARD = -1

#: Reduction attempts after which a worker's epoch ends even if it still
#: has local work, so its outbox reaches the other shards while it keeps
#: working.  Each epoch starts with this budget after a round that routed
#: messages.
EPOCH_REDUCTIONS = 2048

#: Ceiling of the epoch budget, which doubles after every round that routed
#: no messages: such a barrier delivers nothing, it only makes both workers
#: wait for the slower one and wake again.  On CRUNCH at 2 workers this cuts
#: 26 rounds to 7 and leaves less of each run to the difference between the
#: two cores' speeds.
MAX_EPOCH_REDUCTIONS = 16 * EPOCH_REDUCTIONS


def shard_of(proc: int, workers: int) -> int:
    """Owner worker of 1-based virtual processor ``proc``."""
    return (proc - 1) % workers


# --------------------------------------------------------------------------
# Wire format: flat, iterative term encoding
# --------------------------------------------------------------------------

class WireContext:
    """Per-process tables mapping local terms to global wire ids.

    ``vid_to_var`` / ``var_vids`` track variables that crossed a shard
    boundary (vid = ``(origin shard, counter)``); ``gid_ports`` /
    ``port_gids`` do the same for ports.  Both directions are kept so every
    registered object stays referenced — ``id()`` keys would otherwise be
    reused after garbage collection.
    """

    def __init__(self, shard_id: int):
        self.id = shard_id
        self.counter = 0
        self.vid_to_var: dict[tuple, object] = {}
        self.var_vids: dict[int, tuple] = {}
        self.gid_ports: dict[tuple, object] = {}
        self.port_gids: dict[int, tuple] = {}

    def vid_for(self, var) -> tuple:
        vid = self.var_vids.get(id(var))
        if vid is None:
            self.counter += 1
            vid = (self.id, self.counter)
            self.var_vids[id(var)] = vid
            self.vid_to_var[vid] = var
        return vid

    def replica(self, vid: tuple, name: str):
        from repro.strand.terms import Var

        var = self.vid_to_var.get(vid)
        if var is None:
            var = Var(name)
            self.vid_to_var[vid] = var
            self.var_vids[id(var)] = vid
        return var

    def port_gid(self, port) -> tuple:
        gid = self.port_gids.get(id(port))
        if gid is None:
            self.counter += 1
            gid = (self.id, self.counter)
            self.port_gids[id(port)] = gid
            self.gid_ports[gid] = port
        return gid

    def port_replica(self, gid: tuple, owner: int, label: str):
        from repro.strand.streams import PortRef
        from repro.strand.terms import Var

        port = self.gid_ports.get(gid)
        if port is None:
            port = PortRef(Var("StubTail"), owner, label=label)
            self.gid_ports[gid] = port
            self.port_gids[id(port)] = gid
        return port


def freeze(term, ctx: WireContext) -> list:
    """Encode a term as a flat post-order op list (picklable at any depth).

    Unbound variables are encoded by global id (registering them in ``ctx``
    if new); bound variables are dereferenced through, so a value never
    crosses the wire as a variable.  Ports become global-id references.
    """
    from repro.strand.streams import PortRef
    from repro.strand.terms import Atom, Cons, Struct, Tup, Var, deref

    ops: list = []
    work: list = [term]
    while work:
        item = work.pop()
        if type(item) is tuple:
            # Rebuild markers double as wire ops: they surface after their
            # node's children, yielding the post-order the decoder expects.
            ops.append(item)
            continue
        t = deref(item)
        tt = type(t)
        if tt is Var:
            ops.append(("v", ctx.vid_for(t), t.name))
        elif tt is Atom:
            ops.append(("a", t.name))
        elif tt is Cons:
            work.append(("cons",))
            work.append(t.tail)
            work.append(t.head)
        elif tt is Struct:
            work.append(("s", t.functor, len(t.args)))
            work.extend(reversed(t.args))
        elif tt is Tup:
            work.append(("u", len(t.args)))
            work.extend(reversed(t.args))
        elif tt is PortRef:
            ops.append(("p", ctx.port_gid(t), t.owner, t.label))
        else:
            ops.append(("k", t))
    return ops


def thaw(ops: list, ctx: WireContext):
    """Decode a :func:`freeze` op list into a term, resolving global ids
    against (and extending) ``ctx``."""
    from repro.strand.terms import Atom, Cons, Struct, Tup

    stack: list = []
    for op in ops:
        kind = op[0]
        if kind == "k":
            stack.append(op[1])
        elif kind == "a":
            stack.append(Atom(op[1]))
        elif kind == "v":
            stack.append(ctx.replica(op[1], op[2]))
        elif kind == "cons":
            tail = stack.pop()
            head = stack.pop()
            stack.append(Cons(head, tail))
        elif kind == "s":
            n = op[2]
            base = len(stack) - n
            args = stack[base:]
            del stack[base:]
            stack.append(Struct(op[1], args))
        elif kind == "u":
            base = len(stack) - op[1]
            args = stack[base:]
            del stack[base:]
            stack.append(Tup(args))
        else:  # "p"
            stack.append(ctx.port_replica(op[1], op[2], op[3]))
    return stack[0]


# --------------------------------------------------------------------------
# Shard context: the engine-side hook target inside a worker
# --------------------------------------------------------------------------

class _ShardContext(WireContext):
    """What ``engine.shard`` points at inside a worker process.

    The engine consults it on every cross-processor effect; effects whose
    destination is not owned here are frozen into the outbox instead of
    being applied, and committed by the owning shard at the next barrier.
    """

    def __init__(self, shard_id: int, workers: int, engine):
        super().__init__(shard_id)
        self.workers = workers
        self.engine = engine
        self.outbox: list = []
        self.msg_seq = 0
        # True while a remote *bind* message is being applied, so the
        # engine's bind hook does not echo it back out.
        self.suppress = False

    def owns(self, proc: int) -> bool:
        return (proc - 1) % self.workers == self.id

    def _push(self, kind: str, time: float, payload: tuple) -> None:
        self.msg_seq += 1
        self.outbox.append((time, self.id, self.msg_seq, kind, payload))

    # The engine has already accounted each send; these only ship it.
    def remote_spawn(self, goal, dst: int, ready: float, lib: bool,
                     now: float) -> None:
        self._push("spawn", now, (dst, ready, bool(lib), freeze(goal, self)))

    def queue_bind(self, vid: tuple, value, proc: int, now: float) -> None:
        self._push("bind", now, (vid, proc, freeze(value, self)))

    def remote_port_send(self, gid: tuple, msg, src: int, now: float) -> None:
        self._push("psend", now, (gid, src, freeze(msg, self)))

    def remote_port_close(self, gid: tuple, src: int, now: float) -> None:
        self._push("pclose", now, (gid, src))


def _apply_message(shard: _ShardContext, msg: tuple) -> None:
    """Commit one routed message on its destination shard."""
    time, _src_shard, _seq, kind, payload = msg
    engine = shard.engine
    if kind == "spawn":
        dst, ready, lib, ops = payload
        engine.spawn(thaw(ops, shard), dst, ready, lib, inherit=True)
    elif kind == "bind":
        vid, proc, ops = payload
        target = shard.replica(vid, "_Remote")
        value = thaw(ops, shard)
        shard.suppress = True
        try:
            engine.bind(target, value, proc, time)
        finally:
            shard.suppress = False
    elif kind == "psend":
        gid, src, ops = payload
        port = shard.gid_ports[gid]
        if port.closed:
            raise StrandError(f"send on closed port {port!r}")
        engine._port_append(port, thaw(ops, shard), src, time)
    elif kind == "pclose":
        gid, src = payload
        engine.port_close(port=shard.gid_ports[gid], src=src, now=time)
    elif kind == "close":
        engine.close_all_ports(time)
    else:  # "abandon"
        engine.scheduler.abandon_suspended(time)


_MSG_ORDER = lambda m: (m[0], m[1], m[2])  # noqa: E731 - (time, shard, seq)


# --------------------------------------------------------------------------
# Worker process
# --------------------------------------------------------------------------

class _WorkerState:
    """All per-worker mutable state, keyed off the init command."""

    def __init__(self):
        self.engine = None
        self.shard: _ShardContext | None = None

    # -- commands -------------------------------------------------------
    def init(self, payload) -> None:
        from repro.machine.simulator import Machine
        from repro.strand.engine import StrandEngine
        from repro.strand.terms import Var

        (shard_id, workers, program, foreign, options, processors, topology,
         seed, startup, trace_cfg) = payload
        Var.reset_names()
        enabled, limit, ring = trace_cfg
        machine = Machine(
            processors,
            topology=topology,
            # Distinct per-worker RNG stream, fixed by (seed, shard).
            seed=seed * 1_000_003 + shard_id + 1,
            startup_latency=startup,
            trace=enabled,
        )
        if enabled:
            from repro.machine.trace import Trace

            machine.trace = Trace(enabled=True, limit=limit, ring=ring)
        self.engine = StrandEngine(program, machine, foreign, **options)
        self.shard = _ShardContext(shard_id, workers, self.engine)
        self.engine.shard = self.shard
        machine.trace.cause = 0

    def epoch(self, payload) -> tuple:
        """Apply the inbox, then drain for at most ``budget`` attempts
        (fewer once the ``max_reductions`` budget runs low, which still
        raises when exhausted).  Reply with the outbox, the next pending
        time, the wall-clock seconds taken and, once drained (next time
        ``None``), the shard's :meth:`~StrandEngine.quiesce_state`."""
        start = perf_counter()
        inbox, horizon, budget = payload
        engine = self.engine
        engine.machine.trace.cause = 0
        inbox.sort(key=_MSG_ORDER)
        for msg in inbox:
            _apply_message(self.shard, msg)
        scheduler = engine.scheduler
        floor = max(0, scheduler.reduction_budget - budget)
        next_time = scheduler.drain(engine.reducer.execute, horizon, floor)
        outbox = self.shard.outbox
        self.shard.outbox = []
        state = engine.quiesce_state() if next_time is None else None
        return (outbox, next_time, perf_counter() - start, state)

    def finish(self, _payload) -> tuple:
        engine = self.engine
        machine = engine.machine
        return (
            machine.procs,
            machine.fault_stats,
            list(machine.trace.events),
            machine.trace.dropped,
            engine.output,
            engine.scheduler.stuck(),
        )


def _clear_profiling_hooks() -> None:
    """Remove the profile and trace hooks a forked worker inherits from its
    parent, so a parent running under ``cProfile`` (which uses
    ``sys.monitoring`` from Python 3.12) does not profile its workers too."""
    sys.setprofile(None)
    sys.settrace(None)
    monitoring = getattr(sys, "monitoring", None)
    if monitoring is not None:
        for tool in range(6):  # sys.monitoring's tool ids
            if monitoring.get_tool(tool) is not None:
                monitoring.set_events(tool, 0)


def _worker_main(conn) -> None:
    """Entry point of one worker process.  It is a module-level function,
    so spawn can find it by name; the worker's state is built from the
    init command under both start methods."""
    _clear_profiling_hooks()
    state = _WorkerState()
    handlers = {
        "init": state.init,
        "epoch": state.epoch,
        "finish": state.finish,
    }
    try:
        while True:
            cmd, payload = conn.recv()
            if cmd == "stop":
                return
            try:
                conn.send(("ok", handlers[cmd](payload)))
            except Exception as exc:  # marshal errors back to the parent
                conn.send((
                    "error",
                    (type(exc).__name__, str(exc), traceback.format_exc()),
                ))
    except (EOFError, KeyboardInterrupt):
        return
    finally:
        conn.close()


# --------------------------------------------------------------------------
# Parent coordinator
# --------------------------------------------------------------------------

def _start_method() -> str:
    """``fork`` on Linux while this process runs a single thread, else
    ``spawn``.  A forked child holds a copy of every lock another thread
    held at the fork, and would block on it forever."""
    if sys.platform == "linux" and threading.active_count() == 1:
        return "fork"
    return "spawn"


class _WorkerPool:
    def __init__(self, workers: int):
        from multiprocessing.connection import Connection
        from multiprocessing.util import register_after_fork

        ctx = multiprocessing.get_context(_start_method())
        self.conns = []
        self.procs = []
        for _ in range(workers):
            parent_conn, child_conn = ctx.Pipe()
            # A forked worker inherits the parent's end of its own pipe and
            # of every earlier worker's; closing them in the child lets it
            # see EOF once the parent's end closes.  Spawn runs nothing.
            register_after_fork(parent_conn, Connection.close)
            proc = ctx.Process(target=_worker_main, args=(child_conn,),
                               daemon=True)
            proc.start()
            child_conn.close()
            self.conns.append(parent_conn)
            self.procs.append(proc)

    def command(self, targets, cmd: str, payloads) -> list:
        """Issue ``cmd`` to each target worker concurrently; collect replies
        in shard order.  Raises the (mapped) worker exception on error."""
        for w in targets:
            self.conns[w].send((cmd, payloads[w]))
        results = {}
        failure = None
        for w in targets:
            status, value = self.conns[w].recv()
            if status == "error":
                if failure is None:
                    failure = (w, value)
            else:
                results[w] = value
        if failure is not None:
            w, (name, message, _tb) = failure
            cls = getattr(_errors, name, None)
            if cls is None or not (isinstance(cls, type)
                                   and issubclass(cls, BaseException)):
                cls = StrandError
            raise cls(f"[worker {w}] {message}")
        return [results[w] for w in targets]

    def shutdown(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()


def _route(messages, workers: int, inboxes: list, parent_binds: list,
           wire: dict[str, int]) -> None:
    """Distribute one barrier's outbox messages, counting them by kind in
    ``wire``.

    Spawns and port traffic go to the owning shard; binds are broadcast to
    every shard except the sender and remembered for the parent (whose
    replicas include the query variables)."""
    for msg in messages:
        _time, src_shard, _seq, kind, payload = msg
        wire[kind] += 1
        if kind == "spawn":
            inboxes[shard_of(payload[0], workers)].append(msg)
        elif kind in ("psend", "pclose"):
            inboxes[payload[0][0]].append(msg)
        else:  # bind: broadcast
            for w in range(workers):
                if w != src_shard:
                    inboxes[w].append(msg)
            parent_binds.append(msg)


def _next_budget(budget: int, routed: int) -> int:
    """Epoch budget for the round after one that routed ``routed``
    messages: back to :data:`EPOCH_REDUCTIONS` after traffic, doubled (up
    to :data:`MAX_EPOCH_REDUCTIONS`) after a quiet round."""
    if routed:
        return EPOCH_REDUCTIONS
    return min(2 * budget, MAX_EPOCH_REDUCTIONS)


def _parent_apply_binds(parent_ctx: WireContext, binds: list) -> None:
    from repro.strand.terms import Var, deref

    binds.sort(key=_MSG_ORDER)
    for msg in binds:
        vid, _proc, ops = msg[4]
        target = deref(parent_ctx.replica(vid, "_Remote"))
        value = deref(thaw(ops, parent_ctx))
        if type(target) is Var and target is not value:
            target.ref = value


def run_parallel(engine) -> MachineMetrics:
    """Execute ``engine``'s pending goal pool on the parallel backend.

    Called by :meth:`StrandEngine.run` when the machine was built with
    ``backend="parallel"``.  Returns the merged machine metrics; the
    engine's machine is updated in place (merged processor counters, merged
    trace, merged ``write/1`` output), and every binding made to the
    caller's goal variables is applied, so downstream result extraction is
    backend-agnostic.
    """
    from repro.strand.scheduler import RUNNABLE

    machine = engine.machine
    if machine.faults is not None:
        raise NotImplementedError(
            "fault injection is not supported on the parallel backend"
        )
    if engine.profile is not None:
        raise NotImplementedError(
            "per-motif profiling is not supported on the parallel backend"
        )
    workers = machine.workers or 1
    processors = machine.size
    epoch_window = machine.epoch_window

    # -- initial pool: freeze the goals spawned before run() -------------
    parent_ctx = WireContext(PARENT_SHARD)
    initial: list = []
    seq = 0
    for pnum in range(1, processors + 1):
        for _ready, _pseq, process in sorted(
            engine.scheduler.queues[pnum - 1],
            key=lambda entry: (entry[0], entry[1]),
        ):
            if process.state != RUNNABLE:
                continue
            seq += 1
            initial.append((
                process.ready, PARENT_SHARD, seq, "spawn",
                (pnum, process.ready, bool(process.lib),
                 freeze(process.goal, parent_ctx)),
            ))

    trace_cfg = (
        machine.trace.enabled,
        machine.trace.limit,
        machine.trace.ring,
    )
    # The worker engines' options, read off the engine.  No
    # ``abandon_stragglers``: the parent makes every quiescence decision.
    options = dict(
        watched=tuple(sorted(engine.watched)),
        library=tuple(sorted(engine.library)),
        services=tuple(sorted(engine.services)),
        max_reductions=engine.max_reductions,
    )
    telemetry = EpochTelemetry()
    started = perf_counter()
    pool = _WorkerPool(workers)
    try:
        init_payloads = {
            w: (
                w, workers, engine.program, engine.foreign, options,
                processors, machine.network.topology, machine.seed,
                machine.network.startup, trace_cfg,
            )
            for w in range(workers)
        }
        try:
            pool.command(range(workers), "init", init_payloads)
        except (TypeError, AttributeError, ImportError, pickle.PicklingError) as exc:
            raise NotImplementedError(
                "engine configuration cannot be shipped to parallel workers "
                f"(not picklable): {exc}"
            ) from exc
        telemetry.startup_s = perf_counter() - started

        inboxes: list[list] = [[] for _ in range(workers)]
        _route(initial, workers, inboxes, [], telemetry.wire)
        worker_next: list[float | None] = [None] * workers
        # Each shard's quiesce_state as of its last drained epoch; a shard
        # that has not run since then has not changed.
        states = [(0, True, False, 0.0)] * workers
        budget = EPOCH_REDUCTIONS
        while True:
            horizon = None
            if epoch_window is not None:
                pending = [t for t in worker_next if t is not None]
                pending.extend(
                    msg[4][1] if msg[3] == "spawn" else msg[0]
                    for box in inboxes for msg in box
                )
                if pending:
                    horizon = min(pending) + epoch_window
            active = [
                w for w in range(workers)
                if inboxes[w] or (worker_next[w] is not None and (
                    horizon is None or worker_next[w] < horizon))
            ]
            if not active:
                # Global quiescence: the sequential policy over all shards.
                if not any(state[0] for state in states):
                    break
                action = engine.quiesce_action(
                    all(state[1] for state in states),
                    any(state[2] for state in states),
                )
                if action is None:
                    break  # deadlock: finish reports what is stuck
                # "close" or "abandon" travels as a barrier message; it
                # skips _route, so it is not wire traffic.
                now = max(state[3] for state in states)
                for box in inboxes:
                    box.append((now, PARENT_SHARD, 0, action, None))
                continue
            payloads = {}
            for w in active:
                payloads[w] = (inboxes[w], horizon, budget)
                inboxes[w] = []
            routed = sum(telemetry.wire.values())
            replies = pool.command(active, "epoch", payloads)
            busy: list[float | None] = [None] * workers
            binds: list = []
            for w, (outbox, next_time, seconds, state) in zip(active, replies):
                worker_next[w] = next_time
                busy[w] = seconds
                if state is not None:
                    states[w] = state
                _route(outbox, workers, inboxes, binds, telemetry.wire)
            _parent_apply_binds(parent_ctx, binds)
            telemetry.epochs += 1
            telemetry.worker_epochs += len(active)
            telemetry.busy_s.append(tuple(busy))
            budget = _next_budget(budget, sum(telemetry.wire.values()) - routed)

        # ---- merge: metrics, trace, output -----------------------------
        finals = pool.command(range(workers), "finish",
                              {w: None for w in range(workers)})
    finally:
        pool.shutdown()
    stuck = [row for final in finals for row in final[5]]
    if stuck:
        raise DeadlockError(deadlock_report(stuck))

    # Each processor's record is its owning shard's replica, plus the
    # counters the other shards charged to their replicas.
    merged = [finals[shard_of(p, workers)][0][p - 1]
              for p in range(1, processors + 1)]
    trace_batches = []
    output: list[str] = []
    for w, (procs, _stats, events, dropped, out, _stuck) in enumerate(finals):
        trace_batches.append((w, events, dropped))
        output.extend(out)
        for vp in procs:
            owner = merged[vp.number - 1]
            if owner is not vp:
                owner.add(vp)

    machine.procs = merged
    for f in fields(FaultStats):
        setattr(machine.fault_stats, f.name,
                sum(getattr(final[1], f.name) for final in finals))
    engine.output[:] = output
    _merge_traces(machine.trace, trace_batches)
    metrics = machine.metrics()
    metrics.parallel = telemetry
    return metrics


def _merge_traces(trace, batches: list) -> None:
    """Renumber per-worker event ids into one global trace, ordered by
    ``(time, shard, local id)``; intra-shard cause links are remapped,
    cross-shard links do not exist (they are cut at epoch barriers)."""
    rows = []
    dropped = 0
    for w, events, worker_dropped in batches:
        dropped += worker_dropped
        rows.extend((ev.time, w, ev.eid, ev) for ev in events)
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    eid_map = {(w, old): new for new, (_t, w, old, _ev) in enumerate(rows, 1)}
    merged = [
        replace(ev, eid=new, cause=eid_map.get((w, ev.cause), 0))
        for new, (_t, w, _old, ev) in enumerate(rows, 1)
    ]
    if isinstance(trace.events, list):
        trace.events[:] = merged
    else:  # ring deque
        trace.events.clear()
        trace.events.extend(merged)
    trace.dropped += dropped
    trace._next_id = len(merged) + 1

