"""The scheduler motif — the paper's §1 example of reuse through
modification.

"The Argonne monitor macros and Schedule packages support load-balancing on
shared-memory computers.  A user provides a set of procedures and defines
data dependencies between them; the system schedules their execution
appropriately. ...  a scheduler motif might be adapted to the demands of a
highly parallel computer by introducing additional levels in its
manager/worker hierarchy."

Two library variants share one user interface (the ``@ task`` pragma):

* **flat** — one manager (server 1) holds the task queue and the idle-worker
  list; every submission, dispatch, and completion report passes through it.
* **hierarchical** — the modification the paper describes: server 1 only
  *routes* submissions round-robin to group leaders; each leader runs the
  flat protocol over its worker range, so dispatch and completion traffic
  stay inside the group.  Experiment E11 measures the manager-bottleneck
  relief.

The transformation rewrites ``P @ task`` into ``send(1, task(P))`` and
generates a ``run_task`` dispatch rule per task type (its completion is the
binding of a declared output argument).  Termination reuses the
short-circuit motif: the stack is ``Server ∘ Sched ∘ ShortCircuit``.
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.core.pragmas import TASK
from repro.errors import TransformError
from repro.motifs.server import server_motif
from repro.motifs.termination import short_circuit_motif
from repro.strand.program import Program, Rule
from repro.strand.terms import Struct, Term, Var, deref
from repro.transform.rewrite import map_body_goals, strip_placement
from repro.transform.transformation import Transformation

__all__ = [
    "FLAT_LIBRARY",
    "HIER_LIBRARY",
    "TaskSchedule",
    "scheduler_motif",
    "scheduled_application",
]

FLAT_LIBRARY = """
% Flat manager/worker scheduler.  Server 1 becomes the manager on receipt
% of the minit message; every server (including 1) is a worker.
server(In) :- serve(In, worker).

serve([minit(T) | In], worker) :-
    nodes(N),
    idle_list(N, Idle),
    balance([T], Idle, Q1, I1),
    serve(In, manager(Q1, I1)).
serve([task(T) | In], manager(Q, Idle)) :-
    balance([T | Q], Idle, Q1, I1),
    serve(In, manager(Q1, I1)).
serve([ready(W) | In], manager(Q, Idle)) :-
    balance(Q, [W | Idle], Q1, I1),
    serve(In, manager(Q1, I1)).
serve([run(T, W) | In], St) :-
    run_task(T, W),
    serve(In, St).
serve([halt | _], _).
serve([], _).

% Pair queued tasks with idle workers until one side runs dry.
balance([T | Q], [W | Idle], QOut, IOut) :-
    send(W, run(T, W)),
    balance(Q, Idle, QOut, IOut).
balance([], Idle, QOut, IOut) :- QOut := [], IOut := Idle.
balance([T | Q], [], QOut, IOut) :- QOut := [T | Q], IOut := [].

idle_list(N, Idle) :- N > 0 |
    Idle := [N | Rest],
    N1 := N - 1,
    idle_list(N1, Rest).
idle_list(0, Idle) :- Idle := [].

report(Out, W) :- known(Out) | send(1, ready(W)).
report_now(W) :- send(1, ready(W)).
"""

HIER_LIBRARY = """
% Hierarchical scheduler: server 1 routes tasks round-robin to group
% leaders (servers 2..); each leader runs the flat protocol over its own
% worker range, keeping dispatch and completion traffic local.
server(In) :- serve(In, worker).

% Top bootstrap: hinit(G, T) creates G groups over workers 2..N, then
% routes the first task.  route waits for group setup to finish.
serve([hinit(G, T) | In], worker) :-
    nodes(N),
    spawn_groups(G, G, N, Done),
    route_first(Done, T, G, N, Next),
    serve(In, top(G, N, Next)).
serve([task(T) | In], top(G, N, Next)) :-
    route(T, G, N, Next, Next1),
    serve(In, top(G, N, Next1)).

% Leader bootstrap and the flat protocol within the group.
serve([sinit(Lo, Hi) | In], worker) :-
    idle_range(Lo, Hi, Idle),
    serve(In, leader([], Idle, Lo)).
serve([task(T) | In], leader(Q, Idle, Me)) :-
    balance3([T | Q], Idle, Me, Q1, I1),
    serve(In, leader(Q1, I1, Me)).
serve([ready(W) | In], leader(Q, Idle, Me)) :-
    balance3(Q, [W | Idle], Me, Q1, I1),
    serve(In, leader(Q1, I1, Me)).
serve([run(T, W, L) | In], St) :-
    run_task(T, W, L),
    serve(In, St).
serve([halt | _], _).
serve([], _).

spawn_groups(K, G, N, Done) :- K > 0 |
    W1 := (N - 1) // G,
    Lo := 2 + (K - 1) * W1,
    hi_of(K, G, N, W1, Hi),
    send(Lo, sinit(Lo, Hi)),
    K1 := K - 1,
    spawn_groups(K1, G, N, Done).
spawn_groups(0, _, _, Done) :- Done := done.
hi_of(G, G, N, _, Hi) :- Hi := N.
hi_of(K, G, _, W1, Hi) :- K < G | Hi := 1 + K * W1.

route_first(done, T, G, N, Next) :- route(T, G, N, 1, Next).
route(T, G, N, Next, NextOut) :-
    W1 := (N - 1) // G,
    L := 2 + (Next - 1) * W1,
    send(L, task(T)),
    NextOut := Next mod G + 1.

idle_range(Lo, Hi, Idle) :- Lo =< Hi |
    Idle := [Lo | Rest],
    Lo1 := Lo + 1,
    idle_range(Lo1, Hi, Rest).
idle_range(Lo, Hi, Idle) :- Lo > Hi | Idle := [].

balance3([T | Q], [W | Idle], Me, QOut, IOut) :-
    send(W, run(T, W, Me)),
    balance3(Q, Idle, Me, QOut, IOut).
balance3([], Idle, _, QOut, IOut) :- QOut := [], IOut := Idle.
balance3([T | Q], [], _, QOut, IOut) :- QOut := [T | Q], IOut := [].

report(Out, W, L) :- known(Out) | send(L, ready(W)).
report_now(W, L) :- send(L, ready(W)).
"""


def _gate_name(task_name: str) -> str:
    return f"submit_{task_name}_when_ready"


class TaskSchedule(Transformation):
    """Rewrite ``P @ task`` into a submission to the manager and generate
    ``run_task`` dispatch rules.

    Parameters
    ----------
    outputs:
        ``indicator -> output argument position`` (0-based) for each task
        type: the task counts as finished once that argument is bound.
        Task types found annotated in the program but missing here get
        their **last argument** as the default output.
    hierarchical:
        Generate ``run_task/3`` (worker reports to its group leader)
        instead of ``run_task/2`` (reports to server 1).
    """

    name = "task-schedule"

    def __init__(self, outputs: dict[tuple[str, int], int] | None = None,
                 hierarchical: bool = False,
                 dependencies: dict[tuple[str, int], tuple[int, ...]] | None = None):
        self.outputs = dict(outputs or {})
        self.hierarchical = hierarchical
        # The Schedule-package model (§1, [2,5]): "A user provides a set of
        # procedures and defines data dependencies between them; the system
        # schedules their execution appropriately."  ``dependencies`` maps a
        # task type to the argument positions that are its *inputs*: the
        # task is submitted to the manager only once they are all known, so
        # a dispatched task never occupies a worker waiting for another
        # task's output (which would deadlock small machines).
        self.dependencies = dict(dependencies or {})

    def apply(self, program: Program) -> Program:
        annotated: list[tuple[str, int]] = []
        gated: list[tuple[str, int]] = []

        def submit(goal: Term, _rule: Rule) -> Term:
            inner, where = strip_placement(goal)
            if where is None or deref(where) is not TASK:
                return goal
            if inner.indicator not in annotated:
                annotated.append(inner.indicator)
            if not self.dependencies.get(inner.indicator):
                return Struct("send", (1, Struct("task", (inner,))))
            if inner.indicator not in gated:
                gated.append(inner.indicator)
            return Struct(_gate_name(inner.functor), inner.args)

        out = map_body_goals(program, submit)
        for name, arity in gated:
            out.add_rule(self._gate_rule(name, arity))
        for extra in self.outputs:
            if extra not in annotated:
                annotated.append(extra)
        if not annotated:
            raise TransformError(
                "scheduler motif applied to a program with no '@ task' "
                "pragma and no declared task types"
            )
        for name, arity in annotated:
            position = self.outputs.get((name, arity), arity - 1)
            if position is not None and not 0 <= position < arity:
                raise TransformError(
                    f"task output position {position} out of range for "
                    f"{name}/{arity}"
                )
            out.add_rule(self._run_task_rule(name, arity, position))
        return out

    def _gate_rule(self, name: str, arity: int) -> Rule:
        """``gate_p(V1..Vn) :- known(Vi), ... | send(1, task(p(V1..Vn))).``

        The guard suspends until every declared input is bound, so the task
        reaches the scheduler only when it is runnable — the declared-
        dependency discipline of the Schedule package.
        """
        variables = [Var(f"V{i + 1}") for i in range(arity)]
        deps = self.dependencies[(name, arity)]
        guards: list[Term] = [Struct("known", (variables[i],)) for i in deps]
        task = Struct(name, tuple(variables))
        body: list[Term] = [Struct("send", (1, Struct("task", (task,))))]
        return Rule(Struct(_gate_name(name), tuple(variables)), guards, body)

    def _run_task_rule(self, name: str, arity: int, position: int | None) -> Rule:
        variables = [Var(f"V{i + 1}") for i in range(arity)]
        task = Struct(name, tuple(variables))
        w = Var("W")
        if self.hierarchical:
            leader = Var("Leader")
            head = Struct("run_task", (task, w, leader))
            if position is None:
                done: Term = Struct("report_now", (w, leader))
            else:
                done = Struct("report", (variables[position], w, leader))
            body: list[Term] = [task, done]
        else:
            head = Struct("run_task", (task, w))
            if position is None:
                done = Struct("report_now", (w,))
            else:
                done = Struct("report", (variables[position], w))
            body = [task, done]
        return Rule(head, [], body)


def scheduler_motif(
    outputs: dict[tuple[str, int], int] | None = None,
    hierarchical: bool = False,
    dependencies: dict[tuple[str, int], tuple[int, ...]] | None = None,
) -> Motif:
    """The scheduler motif: ``TaskSchedule`` + the flat or hierarchical
    library.  ``serve/3`` is its (post-Server) service loop."""
    return Motif(
        name="scheduler[hier]" if hierarchical else "scheduler[flat]",
        transformation=TaskSchedule(outputs, hierarchical, dependencies),
        library=HIER_LIBRARY if hierarchical else FLAT_LIBRARY,
        services={("serve", 3)},
    )


def scheduled_application(
    entry: tuple[str, int],
    *,
    hierarchical: bool = False,
    outputs: dict[tuple[str, int], int] | None = None,
    sync_outputs: dict[tuple[str, int], int] | None = None,
    dependencies: dict[tuple[str, int], tuple[int, ...]] | None = None,
    server_library: str = "ports",
) -> ComposedMotif:
    """The full stack ``Server ∘ Sched ∘ ShortCircuit``.

    The initial message is ``minit(boot(Args…, Done))`` (flat) or
    ``hinit(G, boot(Args…, Done))`` (hierarchical); ``boot``'s completion
    variable doubles as the boot task's output.
    """
    boot_indicator = ("boot", entry[1] + 1)
    task_outputs = dict(outputs or {})
    # boot drives the whole computation; holding its worker until its
    # Done variable binds would deadlock small machines, so it reports
    # ready immediately (None = report_now).
    task_outputs.setdefault(boot_indicator, None)
    return (
        server_motif(server_library)
        @ scheduler_motif(task_outputs, hierarchical, dependencies)
        @ short_circuit_motif(entry, sync_outputs)
    )
