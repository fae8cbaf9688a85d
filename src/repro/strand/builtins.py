"""Body builtins of the Strand dialect.

Each builtin is a function ``fn(engine, process, args, now) -> float`` that
either completes (returning the virtual cost to charge) or raises
:class:`~repro.strand.arith.Suspend` with the variables it is waiting on.
Builtins may bind variables (via ``engine.bind``) and spawn continuation
processes (via ``engine.spawn``) — ``merge/3`` is the canonical example of
a builtin that re-spawns itself.

The set matches the primitives the paper's programs use: ``:=``, ``length``,
``make_tuple``, ``put_arg``, ``rand_num``, ``distribute``, ``merge``, plus
the port primitives Strand systems provided underneath (``open_port``,
``send_port``, ``close_port``) and no-cost instrumentation hooks used by
the memory experiment (E4).  A motif's own runtime primitives follow the
same contract but live in the motif, registered as raw foreign procedures
(``motifs/reliable.py``, ``motifs/supervisor.py``).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import PragmaError, StrandError
from repro.strand.arith import ArithFail, Suspend, eval_arith, is_arith_expr
from repro.strand.streams import PortRef
from repro.strand.terms import (
    Atom,
    Cons,
    NIL,
    Struct,
    Term,
    Tup,
    Var,
    deref,
    term_eq,
)

__all__ = ["BUILTINS", "need_bound", "need_int"]

# Populated at module bottom: (name, arity) -> callable.
BUILTINS: dict[tuple[str, int], Callable] = {}


def _builtin(name: str, arity: int):
    def register(fn: Callable) -> Callable:
        BUILTINS[(name, arity)] = fn
        return fn

    return register


def need_bound(term: Term) -> Term:
    """Deref; raise Suspend if unbound."""
    term = deref(term)
    if type(term) is Var:
        raise Suspend([term])
    return term


def need_int(term: Term, what: str) -> int:
    """Evaluate an arithmetic argument to an integer (suspending on vars)."""
    try:
        value = eval_arith(term)
    except ArithFail as e:
        raise StrandError(f"{what}: {e}") from None
    if not isinstance(value, int):
        raise StrandError(f"{what}: expected integer, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

@_builtin(":=", 2)
def _assign(engine, process, args, now):
    lhs, rhs = deref(args[0]), deref(args[1])
    if is_arith_expr(rhs):
        try:
            value = eval_arith(rhs)
        except ArithFail as e:
            raise StrandError(f"arithmetic in := failed: {e}") from None
    else:
        value = rhs
    if type(lhs) is not Var:
        # The paper: "Attempts to assign to a variable that has a value are
        # signaled as run-time errors."  Identical re-assignment is
        # tolerated (it is a no-op and arises naturally from short-circuit
        # chains); differing values are a hard error, raised by bind().
        if term_eq(lhs, value):
            return 1.0
        engine.double_assignment(lhs, value, process)
    engine.bind(lhs, value, process.proc, now)
    return 1.0


# ---------------------------------------------------------------------------
# Tuples
# ---------------------------------------------------------------------------

@_builtin("length", 2)
def _length(engine, process, args, now):
    t = need_bound(args[0])
    if type(t) is Tup:
        n = len(t.args)
    elif type(t) is Cons or t is NIL:
        n = 0
        while type(t) is Cons:
            n += 1
            t = need_bound(t.tail)
        if t is not NIL:
            raise StrandError(f"length/2 on improper list ending in {t!r}")
    elif type(t) is Struct:
        n = len(t.args)
    else:
        raise StrandError(f"length/2 needs a tuple or list, got {t!r}")
    engine.bind(args[1], n, process.proc, now)
    return 1.0


@_builtin("make_tuple", 2)
def _make_tuple(engine, process, args, now):
    n = need_int(args[0], "make_tuple/2 size")
    if n < 0:
        raise StrandError(f"make_tuple/2: negative size {n}")
    engine.bind(args[1], Tup([Var() for _ in range(n)]), process.proc, now)
    return 1.0


@_builtin("put_arg", 3)
def _put_arg(engine, process, args, now):
    i = need_int(args[0], "put_arg/3 index")
    t = need_bound(args[1])
    if type(t) is not Tup:
        raise StrandError(f"put_arg/3 needs a tuple, got {t!r}")
    if not 1 <= i <= len(t.args):
        raise StrandError(f"put_arg/3 index {i} out of range 1..{len(t.args)}")
    slot = deref(t.args[i - 1])
    if type(slot) is not Var:
        raise StrandError(f"put_arg/3: slot {i} already holds {slot!r}")
    engine.bind(slot, args[2], process.proc, now)
    return 1.0


@_builtin("arg", 3)
def _arg(engine, process, args, now):
    i = need_int(args[0], "arg/3 index")
    t = need_bound(args[1])
    if type(t) not in (Tup, Struct):
        raise StrandError(f"arg/3 needs a tuple or structure, got {t!r}")
    if not 1 <= i <= len(t.args):
        raise StrandError(f"arg/3 index {i} out of range 1..{len(t.args)}")
    engine.bind(args[2], t.args[i - 1], process.proc, now)
    return 1.0


# ---------------------------------------------------------------------------
# Random numbers & placement
# ---------------------------------------------------------------------------

@_builtin("rand_num", 2)
def _rand_num(engine, process, args, now):
    n = need_int(args[0], "rand_num/2 bound")
    if n < 1:
        raise StrandError(f"rand_num/2: bound must be >= 1, got {n}")
    engine.bind(args[1], engine.machine.rng.randint(1, n), process.proc, now)
    return 1.0


@_builtin("@", 2)
def _place(engine, process, args, now):
    goal, where = args[0], deref(args[1])
    if type(where) is Atom:
        raise PragmaError(
            f"pragma '@ {where.name}' reached the engine; a motif "
            f"transformation (e.g. Random) must erase it first"
        )
    target = engine.machine.normalize(need_int(where, "@/2 processor"))
    engine.spawn_remote(goal, src=process.proc, dst=target, now=now, lib=process.lib)
    return 1.0


# ---------------------------------------------------------------------------
# Ports and streams
# ---------------------------------------------------------------------------

@_builtin("open_port", 2)
def _open_port(engine, process, args, now):
    tail = Var("PortTail")
    port = PortRef(tail, owner=process.proc)
    engine.register_port(port)
    engine.bind(args[0], port, process.proc, now)
    engine.bind(args[1], tail, process.proc, now)
    return 1.0


@_builtin("send_port", 2)
def _send_port(engine, process, args, now):
    port = need_bound(args[0])
    if not isinstance(port, PortRef):
        raise StrandError(f"send_port/2 needs a port, got {port!r}")
    engine.port_send(port, args[1], src=process.proc, now=now)
    return 1.0


@_builtin("close_port", 1)
def _close_port(engine, process, args, now):
    port = need_bound(args[0])
    if not isinstance(port, PortRef):
        raise StrandError(f"close_port/1 needs a port, got {port!r}")
    engine.port_close(port, src=process.proc, now=now)
    return 1.0


@_builtin("distribute", 3)
def _distribute(engine, process, args, now):
    """``distribute(Node, Msg, DT)`` — send Msg on the Node-th port of the
    server tuple DT (§3.2, transformation step 2)."""
    node = need_int(args[0], "distribute/3 node")
    dt = need_bound(args[2])
    if type(dt) is not Tup:
        raise StrandError(f"distribute/3 needs a tuple of ports, got {dt!r}")
    if not 1 <= node <= len(dt.args):
        raise StrandError(
            f"distribute/3 node {node} out of range 1..{len(dt.args)}"
        )
    port = need_bound(dt.args[node - 1])
    if not isinstance(port, PortRef):
        raise StrandError(f"distribute/3: slot {node} holds {port!r}, not a port")
    engine.port_send(port, args[1], src=process.proc, now=now)
    return 1.0


@_builtin("merge", 3)
def _merge(engine, process, args, now):
    """Binary stream merge: items from either input appear on the output.

    Deterministic fairness: after forwarding from one input the merge
    re-spawns with the inputs swapped, so neither stream can starve the
    other.
    """
    xs, ys, out = deref(args[0]), deref(args[1]), deref(args[2])
    if type(xs) is Cons:
        rest = Var("MergeOut")
        engine.bind(out, Cons(xs.head, rest), process.proc, now)
        engine.spawn(
            Struct("merge", (ys, xs.tail, rest)), process.proc,
            ready=now + 1.0, lib=process.lib, motif=process.motif,
        )
        return 1.0
    if type(ys) is Cons:
        rest = Var("MergeOut")
        engine.bind(out, Cons(ys.head, rest), process.proc, now)
        engine.spawn(
            Struct("merge", (ys.tail, xs, rest)), process.proc,
            ready=now + 1.0, lib=process.lib, motif=process.motif,
        )
        return 1.0
    if xs is NIL:
        engine.bind(out, ys, process.proc, now)
        return 1.0
    if ys is NIL:
        engine.bind(out, xs, process.proc, now)
        return 1.0
    blocked = [v for v in (xs, ys) if type(v) is Var]
    raise Suspend(blocked)


# ---------------------------------------------------------------------------
# Metacall, timers, and first-writer-wins binding (the Supervise and
# Reliable motifs are built on these; their own primitives live in
# motifs/supervisor.py and motifs/reliable.py)
# ---------------------------------------------------------------------------

@_builtin("call", 1)
def _call(engine, process, args, now):
    """Metacall: spawn the (bound) argument as a new process here."""
    goal = need_bound(args[0])
    if type(goal) not in (Struct, Atom):
        raise StrandError(f"call/1 needs a goal, got {goal!r}")
    engine.spawn(goal, process.proc, ready=now + 1.0, lib=process.lib)
    return 1.0  # provenance of the called goal is looked up, not inherited


@_builtin("after", 2)
def _after(engine, process, args, now):
    """``after(Delay, Probe)`` — arm a virtual timer; when it fires, bind
    ``Probe`` to ``timeout`` *unless something already bound it*.  An
    expired no-op timer costs nothing and advances no clock, so timeouts
    that never trip do not inflate the makespan."""
    try:
        delay = eval_arith(args[0])
    except ArithFail as e:
        raise StrandError(f"after/2 delay: {e}") from None
    if not isinstance(delay, (int, float)) or delay < 0:
        raise StrandError(f"after/2: delay must be a non-negative number, got {delay!r}")
    probe = args[1]
    proc = process.proc
    # Causal context at arm time: the timeout (if it fires) links back to
    # the reduction that armed it, not to whatever happens to be executing
    # when the timer pops.
    trace = engine.machine.trace
    armed = trace.cause if trace.enabled else 0

    def fire(fire_now: float, probe=probe, proc=proc, armed=armed):
        # A timer armed by a processor that has since crashed must not
        # fire: fail-stop means the processor executes nothing further,
        # including its pending timeouts.
        if not engine.machine.procs[proc - 1].alive:
            return
        if type(deref(probe)) is not Var:
            return  # something already resolved the probe — no-op timer
        teid = engine.machine.trace.record(
            fire_now, proc, "timeout", "after/2", cause=armed
        )
        engine.bind(probe, Atom("timeout"), proc, fire_now,
                    cause=teid or None)

    engine.scheduler.add_timer(now + delay, fire)
    return 1.0


@_builtin("soft_bind", 2)
def _soft_bind(engine, process, args, now):
    """Bind-if-unbound: the race-free resolution primitive.  First writer
    (in deterministic event order) wins; later writers are no-ops."""
    engine.bind_if_unbound(args[0], args[1], process.proc, now)
    return 1.0


# ---------------------------------------------------------------------------
# Output & instrumentation
# ---------------------------------------------------------------------------

@_builtin("write", 1)
def _write(engine, process, args, now):
    from repro.strand.pretty import format_term

    engine.output.append(format_term(deref(args[0])))
    return 1.0


@_builtin("true", 0)
def _true(engine, process, args, now):
    return 0.0


@_builtin("note_value_produced", 0)
def _note_value_produced(engine, process, args, now):
    engine.machine.proc(process.proc).value_produced()
    return 0.0


@_builtin("note_value_consumed", 0)
def _note_value_consumed(engine, process, args, now):
    engine.machine.proc(process.proc).value_consumed()
    return 0.0
