"""The Reliable motif: acked, retransmitted, deduplicated message delivery.

The machine's failure model (:mod:`repro.machine.faults`) can drop, delay,
and duplicate explicit messages, and sever links with time-windowed
partitions.  The Supervise motif answers with whole-task restart — one lost
message costs an entire attempt.  ``Reliable = (T_rel, L_rel)`` adds
*message-level* fault tolerance instead, as a motif that composes between
Rand and Server::

    Server ∘ Reliable ∘ Rand ∘ [Supervise ∘] Tree1

* **Transformation** — rewrites every top-level ``send(Node, Msg)`` goal
  (the sends Rand just emitted, plus any the user wrote) into
  ``rsend(Node, Msg)``, and wraps each Rand-generated dispatch rule
  ``server([p(V…)|In]) :- p(V…), server(In)`` with an ``rmsg``-accepting
  twin that acks, dedups, and then dispatches.  The original rules are
  kept, so local unwrapped traffic (``create``'s initial message) still
  matches.
* **Library** — the sender-side protocol: ``rsend`` draws a per-(sender,
  destination) sequence token (``rel_seq/2``), posts the message wrapped as
  ``rmsg(Tok, Msg, Ack)``, and races the ack against an ``after/2``
  retransmit timer with capped exponential backoff.  Acks are variable
  bindings, which the failure model delivers reliably — only the ``rmsg``
  itself can be lost.  When the retry cap is exhausted the destination is
  reported on the run's status stream (``reliable_state(engine).unreachable``,
  via ``rel_dead/2``) instead of retransmitting forever.
* **Receive side** — ``rel_accept/2`` consults the run's seen-set and
  classifies each token ``new`` or ``dup``; duplicates (retransmissions
  that crossed their own ack, or network-duplicated deliveries) are acked
  and discarded without re-dispatching the payload.

Composition with Server is what gives ``rsend`` its published
``rsend(Node, Msg, DT)`` form: the library's ``rel_post`` calls
``send/2``, so Server's argument-threading transformation threads ``DT``
through the whole protocol and lowers the inner send to
``distribute/3`` — Reliable needs no placement or port machinery of its
own.

Guarantees and limits (documented in ``docs/MOTIFS.md``):

* delivery is *at-least-once* on the wire and *exactly-once* at dispatch
  (the seen-set suppresses redeliveries);
* a destination that is slow rather than dead can be falsely reported
  unreachable — inherent to timeout-based failure detection;
* the bootstrap (``create``'s remote ``server_init`` spawns) predates the
  protocol and is not protected; a server that never boots is exactly the
  "permanently unreachable" case the status stream reports.

Runtime primitives: the five ``rel_*`` procedures below are raw foreign
procedures (the builtin contract ``fn(engine, process, args, now) ->
cost``), registered by the motif's ``foreign_setup``.  Their per-run
bookkeeping is :func:`reliable_state`, kept per engine.
"""

from __future__ import annotations

import weakref

from repro.core.motif import ComposedMotif, Motif
from repro.errors import StrandError, TransformError
from repro.motifs.random_map import rand_motif
from repro.motifs.server import server_motif
from repro.motifs.supervisor import supervised_tree1
from repro.motifs.tree_reduce1 import tree1_motif
from repro.strand.builtins import need_bound, need_int
from repro.strand.foreign import ForeignRegistry
from repro.strand.program import Program, Rule
from repro.strand.terms import Atom, Cons, Struct, Term, Var, deref, term_eq
from repro.transform.rewrite import map_rules, rewrite_body
from repro.transform.transformation import Transformation

__all__ = [
    "ReliableState",
    "ReliableTransformation",
    "reliable_motif",
    "reliable_state",
    "reliable_tree_reduce",
    "RELIABLE_LIBRARY",
    "RELIABLE_PRIMITIVES",
]

RELIABLE_LIBRARY = """
% Reliable library.  rsend/2 is the acked send: draw a sequence token,
% post the wrapped message, and race the ack against a retransmit timer.
% Server's transformation threads DT through this whole chain (rel_post
% calls send/2), turning rsend/2 into the published rsend(Node, Msg, DT).
rsend(Node, Msg) :-
    rel_seq(Node, Tok),
    rel_post(Node, Tok, Msg, Ack, {retries}, {timeout}).

rel_post(Node, Tok, Msg, Ack, Left, T) :-
    send(Node, rmsg(Tok, Msg, Ack)),
    after(T, Probe),
    rel_wait(Probe, Ack, Node, Tok, Msg, Left, T).

% Acked: defuse the pending timer (soft_bind makes the race benign) and
% stop.  This rule wins over the timeout rules whenever the ack is known,
% so a late ack after an expiry is still a success, not a retransmit.
rel_wait(Probe, Ack, _Node, _Tok, _Msg, _Left, _T) :- known(Ack) |
    soft_bind(Probe, done).
% Timed out with budget left: retransmit under capped exponential backoff.
rel_wait(timeout, Ack, Node, Tok, Msg, Left, T) :- Left > 0 |
    rel_note(retransmit),
    L1 := Left - 1,
    T1 := min(T * {backoff}, {max_timeout}),
    rel_post(Node, Tok, Msg, Ack, L1, T1).
% Budget exhausted: report the destination on the status stream instead of
% hanging the sender.
rel_wait(timeout, _Ack, Node, Tok, _Msg, 0, _T) :-
    rel_dead(Node, Tok).
"""


class ReliableState:
    """One run's bookkeeping for the Reliable protocol.

    ``next_seq`` assigns per-(sender processor, destination) sequence
    numbers; ``seen`` is the receive-side dedup set of delivered
    ``(sender, destination, seq)`` tokens; ``unreachable`` is the status
    stream — one entry per destination the protocol gave up on, in
    delivery order."""

    def __init__(self):
        self.next_seq: dict[tuple[int, int], int] = {}
        self.seen: set[tuple[int, int, int]] = set()
        self.unreachable: list[tuple[int, int, int]] = []


# Keyed by engine rather than kept in the foreign registry: one registry may
# serve many runs, and each run needs fresh sequence numbers and seen-set.
_STATES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def reliable_state(engine) -> ReliableState:
    """The Reliable protocol's state for ``engine`` (empty until the
    protocol first runs on it)."""
    state = _STATES.get(engine)
    if state is None:
        state = _STATES[engine] = ReliableState()
    return state


def _rel_seq(engine, process, args, now):
    """``rel_seq(Node, Tok)`` — assign the next per-(sender, destination)
    sequence number and bind ``Tok`` to the send token
    ``sid(Sender, Node, Seq)`` that identifies this logical message across
    retransmissions."""
    node = need_int(args[0], "rel_seq/2 node")
    key = (process.proc, node)
    state = reliable_state(engine)
    seq = state.next_seq.get(key, 0) + 1
    state.next_seq[key] = seq
    engine.bind(args[1], Struct("sid", (process.proc, node, seq)), process.proc, now)
    return 1.0


def _rel_token(term: Term, what: str) -> tuple[int, int, int]:
    tok = need_bound(term)
    if type(tok) is not Struct or tok.indicator != ("sid", 3):
        raise StrandError(f"{what} needs a sid/3 token, got {tok!r}")
    parts = tuple(deref(a) for a in tok.args)
    if not all(isinstance(p, int) for p in parts):
        raise StrandError(f"{what}: malformed token {tok!r}")
    return parts  # type: ignore[return-value]


def _rel_accept(engine, process, args, now):
    """``rel_accept(Tok, Verdict)`` — receive-side dedup: bind ``Verdict``
    to ``new`` the first time a token is seen and ``dup`` on every
    redelivery (retransmission or network duplicate)."""
    key = _rel_token(args[0], "rel_accept/2")
    state = reliable_state(engine)
    if key in state.seen:
        engine.machine.fault_stats.rel_duplicates_suppressed += 1
        engine.machine.trace.record(
            now, process.proc, "fault", f"rel:dup-suppressed p{key[0]}#{key[2]}"
        )
        verdict = Atom("dup")
    else:
        state.seen.add(key)
        verdict = Atom("new")
    engine.bind(args[1], verdict, process.proc, now)
    return 1.0


def _rel_ack(engine, process, args, now):
    """``rel_ack(Ack)`` — acknowledge receipt by binding the sender's ack
    variable (variable-binding wakeups are reliable in the failure model,
    so the ack itself cannot be lost).  Idempotent: redeliveries re-ack the
    already-bound variable at no cost."""
    if engine.bind_if_unbound(args[0], Atom("ack"), process.proc, now):
        engine.machine.fault_stats.rel_acks += 1
    return 1.0


def _rel_note(engine, process, args, now):
    """Zero-cost reliability accounting hook: ``rel_note(retransmit)``."""
    what = need_bound(args[0])
    name = what.name if type(what) is Atom else str(what)
    if name == "retransmit":
        engine.machine.fault_stats.rel_retransmits += 1
    else:
        raise StrandError(f"rel_note/1: unknown event {name!r}")
    engine.machine.trace.record(now, process.proc, "fault", f"rel:{name}")
    return 0.0


def _rel_dead(engine, process, args, now):
    """``rel_dead(Node, Tok)`` — the retry cap is exhausted: report ``Node``
    permanently unreachable on the status stream
    (``reliable_state(engine).unreachable``) instead of hanging the sender."""
    node = need_int(args[0], "rel_dead/2 node")
    key = _rel_token(args[1], "rel_dead/2")
    engine.machine.fault_stats.rel_unreachable += 1
    reliable_state(engine).unreachable.append(key)
    engine.machine.trace.record(
        now, process.proc, "fault", f"rel:unreachable p{node}#{key[2]}"
    )
    return 1.0


#: The protocol's raw foreign procedures, registered by ``foreign_setup``.
RELIABLE_PRIMITIVES = {
    ("rel_seq", 2): _rel_seq,
    ("rel_accept", 2): _rel_accept,
    ("rel_ack", 1): _rel_ack,
    ("rel_note", 1): _rel_note,
    ("rel_dead", 2): _rel_dead,
}


def _register_primitives(registry: ForeignRegistry) -> None:
    registry.register_primitives(RELIABLE_PRIMITIVES)


def _recv_name(indicator: tuple[str, int]) -> str:
    return f"rel_recv_{indicator[0]}_{indicator[1]}"


def _dispatch_shape(rule: Rule) -> Struct | None:
    """The dispatched message pattern when ``rule`` is a Rand-style server
    dispatch rule ``server([p(V…)|In]) :- p(V…), server(In)``; else None."""
    if rule.indicator != ("server", 1) or rule.guards or len(rule.body) != 2:
        return None
    arg = deref(rule.head.args[0])
    if type(arg) is not Cons:
        return None
    msg = deref(arg.head)
    if type(msg) is not Struct or msg.functor == "rmsg":
        return None
    first, second = (deref(goal) for goal in rule.body)
    if not term_eq(first, msg):
        return None
    if (
        type(second) is not Struct
        or second.indicator != ("server", 1)
        or deref(second.args[0]) is not deref(arg.tail)
    ):
        return None
    return msg


def _wrapped_rule(rule: Rule) -> Rule:
    """The ``rmsg``-accepting twin of a dispatch rule: ack, dedup, then
    dispatch the payload — while the stream advances regardless of the
    new/dup verdict."""
    msg = _dispatch_shape(rule)
    assert msg is not None
    tail = deref(rule.head.args[0]).tail
    tok, ack, verdict = Var("Tok"), Var("Ack"), Var("Verdict")
    head = Struct("server", (Cons(Struct("rmsg", (tok, msg, ack)), tail),))
    body: list[Term] = [
        Struct("rel_accept", (tok, verdict)),
        Struct(_recv_name(msg.indicator), (verdict, ack, *msg.args)),
        Struct("server", (tail,)),
    ]
    return Rule(head, [], body)


def _helper_rules(indicator: tuple[str, int]) -> list[Rule]:
    """``rel_recv_<p>_<n>``: ack then dispatch on ``new``; ack only on
    ``dup``.  The payload is called with explicit arguments (not via
    ``call/1``) so outer transformations — Server's DT threading — reach
    the payload procedure through the normal call graph."""
    name, arity = indicator
    recv = _recv_name(indicator)
    new_vars = tuple(Var(f"V{i + 1}") for i in range(arity))
    new_ack = Var("Ack")
    fresh = Rule(
        Struct(recv, (Atom("new"), new_ack, *new_vars)),
        [],
        [Struct("rel_ack", (new_ack,)), Struct(name, new_vars)],
    )
    dup_vars = tuple(Var(f"_V{i + 1}") for i in range(arity))
    dup_ack = Var("Ack")
    dup = Rule(
        Struct(recv, (Atom("dup"), dup_ack, *dup_vars)),
        [],
        [Struct("rel_ack", (dup_ack,))],
    )
    return [fresh, dup]


class ReliableTransformation(Transformation):
    """Rewrite ``send/2`` goals into the acked ``rsend/2`` protocol and wrap
    the server dispatch rules with ``rmsg``-accepting twins.

    Must sit *above* Rand (whose transformation emits the ``send`` goals
    and synthesizes the dispatch rules) and *below* Server (whose
    transformation threads ``DT`` through the protocol library).  Sends
    whose payload is an atom (the ``halt`` broadcast convention) are left
    unwrapped; sends with a literal structure payload must have a matching
    dispatch rule or the transformation refuses — an ``rmsg`` nobody
    unwraps would strand the receiver.
    """

    name = "reliable"

    def apply(self, program: Program) -> Program:
        wrapped: list[tuple[str, int]] = []
        for rule in program.rules():
            msg = _dispatch_shape(rule)
            if msg is not None and msg.indicator not in wrapped:
                wrapped.append(msg.indicator)
        if not wrapped:
            raise TransformError(
                "Reliable motif found no server/1 dispatch rules; compose "
                "it above Rand (Server ∘ Reliable ∘ Rand ∘ …)"
            )
        covered = set(wrapped)

        def rsend(goal: Term, _rule: Rule) -> Term:
            inner = deref(goal)
            if type(inner) is not Struct or inner.indicator != ("send", 2):
                return goal
            payload = deref(inner.args[1])
            if type(payload) is Atom:
                return goal  # halt-style control atoms stay raw
            if type(payload) is Struct and payload.indicator not in covered:
                raise TransformError(
                    f"send of {payload.indicator[0]}/{payload.indicator[1]} "
                    f"has no server dispatch rule to unwrap its rmsg; "
                    f"Reliable cannot deliver it"
                )
            return Struct("rsend", inner.args)

        def wrap(rule: Rule) -> Rule | list[Rule]:
            if _dispatch_shape(rule) is None:
                return rewrite_body(rule, rsend)
            # A second rename keeps the twin's variables private.
            return [rule, _wrapped_rule(rule.rename())]

        out = map_rules(program, wrap)
        for indicator in wrapped:
            for helper in _helper_rules(indicator):
                out.add_rule(helper)
        return out


def reliable_motif(
    retries: int = 6,
    timeout: float = 30.0,
    backoff: int = 2,
    max_timeout: float = 240.0,
) -> Motif:
    """The Reliable motif.

    ``timeout`` is the first retransmit deadline in virtual time — it must
    exceed a send/ack round trip, or healthy traffic retransmits
    spuriously (harmless, dedup absorbs it, but it inflates the message
    count).  Each retry multiplies the deadline by ``backoff`` up to
    ``max_timeout``; after ``retries`` unanswered posts the destination is
    reported unreachable.  The retry budget must outlast the longest
    partition the deployment should ride through:
    ``sum(min(timeout * backoff^i, max_timeout))`` over the retries is the
    time the protocol keeps trying.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout <= 0 or max_timeout < timeout:
        raise ValueError(
            f"need 0 < timeout <= max_timeout, got {timeout}, {max_timeout}"
        )
    return Motif(
        name="reliable",
        transformation=ReliableTransformation(),
        library=RELIABLE_LIBRARY.format(
            retries=retries, timeout=timeout, backoff=backoff,
            max_timeout=max_timeout,
        ),
        foreign_setup=_register_primitives,
    )


def reliable_tree_reduce(
    retries: int = 6,
    timeout: float = 30.0,
    backoff: int = 2,
    max_timeout: float = 240.0,
    supervise: bool = False,
    sup_retries: int = 3,
    sup_timeout: float = 600.0,
    fallback: str = "0",
    server_library: str = "ports",
) -> ComposedMotif:
    """``Server ∘ Reliable ∘ Rand ∘ Tree1`` — or, with ``supervise=True``,
    the full ``Server ∘ Reliable ∘ Rand ∘ Supervise ∘ Tree1′`` stack.

    Without supervision the entry message is ``reduce(Tree, Value)`` (sent
    via ``create/2``); Reliable recovers every lost dispatch message by
    retransmission, so the stack completes at drop rates where the bare
    Tree-Reduce-1 deadlocks.  With supervision the entry is
    ``sup_run(Tree, Value)``: Reliable protects the attempt dispatch while
    Supervise re-runs attempts whose *unprotected* dataflow (watch
    requests on the monitor port) was severed.  Attempts a retry
    superseded may be stranded by message loss; the tree runners abandon
    them at quiescence (``abandon_stragglers``) instead of reporting a
    deadlock.
    """
    core = (
        supervised_tree1(sup_retries, sup_timeout, 2, fallback)
        if supervise
        else rand_motif() @ tree1_motif()
    )
    return (
        server_motif(server_library)
        @ reliable_motif(retries, timeout, backoff, max_timeout)
        @ core
    )
