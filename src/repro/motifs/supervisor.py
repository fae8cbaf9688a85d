"""The Supervise motif: fault tolerance as a transformation + library pair.

The paper's framework treats every parallel-programming concern as a motif
``M = (T, L)`` that composes with the others (§2.2); supervision is the
natural next layer once the machine model admits failures (processor
crashes, message drops — see :mod:`repro.machine.faults`).  The motif's
contract:

* **Annotation** — the user marks a body goal ``P @ supervised(Retries)``.
  The annotated goal's *output argument* (declared via ``outputs``) will be
  bound even if processors crash: by the computed value if any attempt
  completes, or by a configured fallback after ``Retries`` re-attempts time
  out (graceful degradation to a partial result).
* **Transformation** — threads a monitor stream ``Mon`` through the
  procedures that (transitively) contain supervised goals, rewrites each
  supervised goal into a ``watch`` request on the monitor, and generates a
  ``sup_run`` entry wrapper that opens the monitor port and starts the
  supervisor loop.
* **Library** — the supervisor service: for each watch request it runs an
  *attempt* (a fresh-variable copy of the goal, so retries never collide
  with stragglers from earlier attempts), arms a timeout, and on expiry
  retries with an exponentially backed-off timeout or degrades to the
  fallback.  Its two runtime primitives, ``sup_fresh/4`` and
  ``sup_note/1``, are raw foreign procedures registered by the motif's
  ``foreign_setup``.

Composition: ``Supervised-Tree-Reduce = Server ∘ Rand ∘ Supervise ∘ Tree1′``
where ``Tree1′`` is the five-line reduction with ``@ supervised(R)`` in
place of ``@ random``.  The Supervise library dispatches attempts with
``call(Copy) @ random``, so the Rand stage above it rewrites attempt
placement exactly as it rewrites user code — the motif adds fault handling
without its own placement machinery.

Correctness under crashes rests on one invariant the stack establishes:
*all cross-processor dataflow goes through supervised outputs*.  The entry
wrapper (and hence the supervisor and the left recursion spine) runs on
processor 1, which the default :class:`~repro.machine.faults.FaultPlan`
keeps immortal; every right-branch subcomputation is shipped out under
supervision.  A crash therefore kills only supervised attempts, whose
timeouts fire deterministically and whose retries land elsewhere.

Caveats (documented limits of the model):

* a supervised goal's *input* arguments must be bound when the goal is
  reached — the attempt copy freshens unbound variables, so dataflow still
  in flight would be severed;
* ``supervised(R)`` must be the goal's only annotation;
* the atom ``timeout`` is reserved: a computed value equal to ``timeout``
  is indistinguishable from an expiry.
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.errors import StrandError, TransformError
from repro.motifs.random_map import rand_motif
from repro.motifs.server import server_motif
from repro.strand.builtins import need_bound, need_int
from repro.strand.foreign import ForeignRegistry
from repro.strand.program import Program, Rule
from repro.strand.terms import Atom, Struct, Term, Var, deref, rename_term
from repro.transform.callgraph import CallGraph
from repro.transform.argthread import thread_call, thread_rules
from repro.transform.rewrite import strip_placement
from repro.transform.transformation import Transformation

__all__ = [
    "SuperviseTransformation",
    "supervise_motif",
    "supervised_tree_reduce",
    "supervised_tree1",
    "SUPERVISE_LIBRARY",
    "TREE1_SUP_LIBRARY",
    "SUP_RUN",
    "SUPERVISE_SERVICES",
    "SUPERVISE_PRIMITIVES",
]

SUP_RUN = "sup_run"

#: Service procedures of the Supervise motif.  Attempts are dispatched with
#: ``@ random``, so every runnable stack has a Server stage above, which
#: threads ``DT`` through the supervisor loop: it runs as ``supervisor/3``.
SUPERVISE_SERVICES: frozenset[tuple[str, int]] = frozenset({("supervisor", 3)})

SUPERVISE_LIBRARY = """
% Supervise library.  The monitor stream carries watch(Goal, K, Out,
% Retries) requests; the supervisor runs attempts until one binds the
% goal's K-th argument or retries are exhausted.
sup_watch(Goal, K, Out, Retries, Mon) :-
    send_port(Mon, watch(Goal, K, Out, Retries)).

supervisor([watch(Goal, K, Out, Retries) | In], Timeout) :-
    sup_attempt(Goal, K, Out, Retries, Timeout),
    supervisor(In, Timeout).
supervisor([halt | _], _).
supervisor([], _).

% One attempt: a fresh-variable copy of the goal (private output, so a
% straggler from a crashed attempt can never collide with a retry), shipped
% out for execution, raced against a timer via a private probe.
sup_attempt(Goal, K, Out, Retries, Timeout) :-
    sup_fresh(Goal, K, Copy, CopyOut),
    sup_spawn(Copy),
    sup_relay(CopyOut, Probe),
    after(Timeout, Probe),
    sup_check(Probe, Goal, K, Out, Retries, Timeout).

sup_spawn(Copy) :- call(Copy) @ random.

% First writer wins the probe; the second rule lets the timeout firing
% release a relay whose value will never arrive (dead attempt), so no
% suspension outlives the race.
sup_relay(V, Probe) :- known(V) | soft_bind(Probe, V).
sup_relay(_V, Probe) :- known(Probe) | true.

% Timed out with retries remaining: back off and re-attempt.
sup_check(timeout, Goal, K, Out, Retries, Timeout) :- Retries > 0 |
    sup_note(retry),
    R1 := Retries - 1,
    T1 := Timeout * {backoff},
    sup_attempt(Goal, K, Out, R1, T1).
% Out of retries: degrade gracefully to the fallback value.
sup_check(timeout, _Goal, _K, Out, 0, _Timeout) :-
    sup_note(degrade),
    soft_bind(Out, {fallback}).
% The attempt delivered a value before the timer fired.
sup_check(Value, _Goal, _K, Out, _Retries, _Timeout) :-
    known(Value), Value \\== timeout |
    soft_bind(Out, Value).
"""

def _sup_fresh(engine, process, args, now):
    """``sup_fresh(Goal, K, Copy, CopyOut)`` — make a fresh-variable copy
    of ``Goal`` (the retry-attempt primitive: each attempt gets private
    variables so a late straggler from a previous attempt cannot collide
    with the current one) and expose the copy and its K-th argument."""
    goal = need_bound(args[0])
    k = need_int(args[1], "sup_fresh/4 index")
    if type(goal) is not Struct:
        raise StrandError(f"sup_fresh/4 needs a structure goal, got {goal!r}")
    if not 1 <= k <= len(goal.args):
        raise StrandError(
            f"sup_fresh/4 index {k} out of range 1..{len(goal.args)}"
        )
    copy = rename_term(goal)
    engine.bind(args[2], copy, process.proc, now)
    engine.bind(args[3], copy.args[k - 1], process.proc, now)
    return 1.0


def _sup_note(engine, process, args, now):
    """Zero-cost supervision accounting hook: ``sup_note(retry)`` /
    ``sup_note(degrade)`` bump the machine's fault counters.  Each follows
    exactly one expired attempt timer, so each also counts one supervision
    timeout."""
    what = need_bound(args[0])
    name = what.name if type(what) is Atom else str(what)
    stats = engine.machine.fault_stats
    if name == "retry":
        stats.sup_retries += 1
    elif name == "degrade":
        stats.sup_degraded += 1
    else:
        raise StrandError(f"sup_note/1: unknown event {name!r}")
    stats.sup_timeouts += 1
    engine.machine.trace.record(now, process.proc, "fault", f"sup:{name}")
    return 0.0


#: The library's raw foreign procedures, registered by ``foreign_setup``.
SUPERVISE_PRIMITIVES = {
    ("sup_fresh", 4): _sup_fresh,
    ("sup_note", 1): _sup_note,
}


def _register_primitives(registry: ForeignRegistry) -> None:
    registry.register_primitives(SUPERVISE_PRIMITIVES)


TREE1_SUP_LIBRARY = """
% Tree1 with supervised (instead of bare random) right-branch dispatch.
reduce(tree(V, L, R), Value) :-
    reduce(R, RV) @ supervised({retries}),
    reduce(L, LV),
    eval(V, LV, RV, Value).
reduce(leaf(X), Value) :- Value := X.
"""


def _supervised_annotation(where: Term | None) -> Struct | None:
    """The ``supervised(Retries)`` annotation struct, if that is what the
    placement is."""
    if where is None:
        return None
    where = deref(where)
    if type(where) is Struct and where.indicator == ("supervised", 1):
        return where
    return None


class SuperviseTransformation(Transformation):
    """Thread a monitor stream through supervised code and generate the
    entry wrapper.

    Parameters
    ----------
    outputs:
        ``indicator -> output argument position`` (1-based) for every goal
        type that may carry ``@ supervised(R)`` — the argument the
        supervisor guarantees to bind.
    entry:
        The procedure a ``sup_run`` wrapper (same arity) is generated for:
        ``sup_run(A1..Ak)`` opens the monitor port, starts the supervisor
        loop, and calls the entry with the monitor threaded.
    timeout:
        Initial attempt timeout in virtual time units; doubled (by the
        library's backoff factor) on every retry.
    """

    name = "supervise"

    def __init__(
        self,
        outputs: dict[tuple[str, int], int],
        entry: tuple[str, int],
        timeout: float = 40.0,
    ):
        self.outputs = dict(outputs)
        self.entry = entry
        self.timeout = timeout
        for (name, arity), k in self.outputs.items():
            if not 1 <= k <= arity:
                raise TransformError(
                    f"supervised output position {k} out of range for "
                    f"{name}/{arity}"
                )

    def apply(self, program: Program) -> Program:
        graph = CallGraph(program)
        sup_procs: set[tuple[str, int]] = set()
        for rule in program.rules():
            for goal in rule.body:
                _, where = strip_placement(goal)
                if _supervised_annotation(where) is not None:
                    sup_procs.add(rule.indicator)
        if not sup_procs:
            raise TransformError(
                "Supervise motif applied to a program with no "
                "'@ supervised(R)' annotation"
            )
        affected = (sup_procs | graph.callers_of(sup_procs)) & graph.defined
        if self.entry not in affected:
            raise TransformError(
                f"supervise entry {self.entry[0]}/{self.entry[1]} does not "
                f"reach any supervised goal"
            )
        out = thread_rules(program, affected, 1, self._thread_rule)
        self._add_entry(out)
        return out

    def _thread_rule(self, rule: Rule, affected: set[tuple[str, int]]) -> Rule:
        mon = Var("Mon")
        body: list[Term] = []
        for goal in rule.body:
            inner, where = strip_placement(goal)
            annotation = _supervised_annotation(where)
            if annotation is not None:
                indicator = inner.indicator
                k = self.outputs.get(indicator)
                if k is None:
                    raise TransformError(
                        f"supervised goal {indicator[0]}/{indicator[1]} has "
                        f"no declared output position (pass it in 'outputs')"
                    )
                out_var = inner.args[k - 1]
                target = inner
                if indicator in affected:
                    target = thread_call(inner, None, mon)
                body.append(
                    Struct(
                        "sup_watch",
                        (target, k, out_var, annotation.args[0], mon),
                    )
                )
            elif inner.indicator in affected:
                body.append(thread_call(inner, where, mon))
            else:
                body.append(goal)
        return Rule(thread_call(rule.head, None, mon), rule.guards, body)

    def _add_entry(self, out: Program) -> None:
        # sup_run(A1..Ak) :-
        #     open_port(Mon, S), supervisor(S, Timeout), entry(A1..Ak, Mon).
        name, arity = self.entry
        args = [Var(f"A{i + 1}") for i in range(arity)]
        mon, stream = Var("Mon"), Var("S")
        out.add_rule(
            Rule(
                Struct(SUP_RUN, tuple(args)),
                [],
                [
                    Struct("open_port", (mon, stream)),
                    Struct("supervisor", (stream, self.timeout)),
                    Struct(name, (*args, mon)),
                ],
            )
        )


def supervise_motif(
    outputs: dict[tuple[str, int], int],
    entry: tuple[str, int],
    *,
    timeout: float = 40.0,
    backoff: int = 2,
    fallback: str = "0",
) -> Motif:
    """The Supervise motif.

    Attempts are dispatched with ``call(Copy) @ random``, so the stack
    needs a Rand and a Server stage above.  ``fallback`` is Strand source
    text for the degradation value.
    """
    return Motif(
        name="supervise",
        transformation=SuperviseTransformation(outputs, entry, timeout),
        library=SUPERVISE_LIBRARY.format(backoff=backoff, fallback=fallback),
        services=SUPERVISE_SERVICES,
        foreign_setup=_register_primitives,
    )


def supervised_tree_reduce(
    retries: int = 3,
    timeout: float = 600.0,
    backoff: int = 2,
    fallback: str = "0",
    server_library: str = "ports",
) -> ComposedMotif:
    """``Supervised-Tree-Reduce = Server ∘ Rand ∘ Supervise ∘ Tree1′``.

    The entry message is ``sup_run(Tree, Value)`` (sent via ``create/2``,
    like ``boot`` in the termination stack); ``Value`` is bound to the
    reduction result, or to the fallback for subtrees whose every attempt
    timed out.  ``timeout`` must exceed the fault-free completion time of
    the largest supervised subcomputation (half the tree), or healthy
    attempts will be retried and eventually degraded.
    """
    return server_motif(server_library) @ supervised_tree1(
        retries, timeout, backoff, fallback
    )


def supervised_tree1(retries: int, timeout: float, backoff: int,
                     fallback: str) -> ComposedMotif:
    """``Rand ∘ Supervise ∘ Tree1′``, with ``sup_run/2`` as the entry: the
    layers below delivery in every supervised Tree1 stack."""
    return (
        rand_motif(extra_entries=((SUP_RUN, 2),))
        @ supervise_motif(
            outputs={("reduce", 2): 2},
            entry=("reduce", 2),
            timeout=timeout,
            backoff=backoff,
            fallback=fallback,
        )
        @ Motif(name="tree1-sup",
                library=TREE1_SUP_LIBRARY.format(retries=retries))
    )
