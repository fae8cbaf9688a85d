"""Short-circuit termination detection (paper §3.3, last paragraph).

"The Random motif described here does not provide for termination detection
in an application.  If this is required, the associated transformation can
be extended to thread a short circuit through the application program and
to add code to invoke the Server motif's halt operation when the
application terminates."

The classic short-circuit technique: every application process carries two
extra arguments ``(L, R)`` forming a segment of a chain.  A rule that
spawns ``k`` application sub-processes splits its segment into ``k`` pieces
with fresh middle variables; a rule that spawns none closes its segment
with ``L := R``.  When the whole computation has finished, the chain has
collapsed and the initial left end receives the initial right end's value
(the atom ``done``); a ``watch`` process then invokes ``halt``.

Computations whose real completion is the binding of an *output* variable
(e.g. ``eval(V, LV, RV, Value)``'s ``Value``) declare that via
``sync_outputs``; their segment closes only once the output is known.
"""

from __future__ import annotations

from repro.core.motif import Motif
from repro.errors import TransformError
from repro.strand.program import Program, Rule
from repro.strand.terms import Atom, Struct, Term, Var
from repro.transform.callgraph import CallGraph
from repro.transform.argthread import thread_call, thread_rules
from repro.transform.rewrite import strip_placement
from repro.transform.transformation import Transformation

__all__ = ["ShortCircuit", "short_circuit_motif", "TERMINATION_LIBRARY", "BOOT"]

BOOT = "boot"

TERMINATION_LIBRARY = """
% The chain's left end becomes known once every segment has closed.
watch(Done) :- known(Done) | halt.
% Close a segment once a sync output is bound.
wait_done(X, L, R) :- known(X) | L := R.
"""


class ShortCircuit(Transformation):
    """Thread a termination short circuit through an application.

    Parameters
    ----------
    entry:
        The procedure whose completion means "the application is done".
        Everything reachable from it that the program defines is threaded
        (builtins and foreign calls excluded), and a ``boot`` wrapper with
        the entry's arity plus one is generated.
    sync_outputs:
        ``indicator -> argument position`` (0-based) for calls (typically
        foreign, like ``eval/4``) whose completion is the binding of an
        output argument.
    """

    name = "short-circuit"

    def __init__(
        self,
        entry: tuple[str, int],
        sync_outputs: dict[tuple[str, int], int] | None = None,
    ):
        self.entry = entry
        self.sync_outputs = dict(sync_outputs or {})

    def _affected(self, program: Program) -> set[tuple[str, int]]:
        graph = CallGraph(program)
        if self.entry not in graph.defined:
            raise TransformError(
                f"short-circuit entry {self.entry[0]}/{self.entry[1]} "
                f"is not defined in {program.name!r}"
            )
        return graph.reachable_from({self.entry}) & graph.defined

    def apply(self, program: Program) -> Program:
        out = thread_rules(program, self._affected(program), 2, self._thread_rule)
        # boot(A1..Ak, Done) :- entry(A1..Ak, Done, done), watch(Done).
        # The circuit's left end is exposed as boot's last argument so other
        # motifs (e.g. the scheduler) can observe completion.
        name, arity = self.entry
        args = [Var(f"A{i + 1}") for i in range(arity)]
        done = Var("Done")
        out.add_rule(
            Rule(
                Struct(BOOT, (*args, done)),
                [],
                [Struct(name, (*args, done, Atom("done"))), Struct("watch", (done,))],
            )
        )
        return out

    def _thread_rule(self, rule: Rule, affected: set[tuple[str, int]]) -> Rule:
        left, right = Var("L"), Var("R")
        head = thread_call(rule.head, None, left, right)
        # First pass: find the segment-consuming goals.
        segmented: list[int] = []
        for idx, goal in enumerate(rule.body):
            inner, _ = strip_placement(goal)
            if inner.indicator in affected or inner.indicator in self.sync_outputs:
                segmented.append(idx)
        if not segmented:
            return Rule(head, rule.guards, [*rule.body, Struct(":=", (left, right))])
        body: list[Term] = []
        cursor = left
        remaining = len(segmented)
        for idx, goal in enumerate(rule.body):
            if idx not in segmented:
                body.append(goal)
                continue
            remaining -= 1
            nxt = right if remaining == 0 else Var("M")
            inner, where = strip_placement(goal)
            if inner.indicator in affected:
                body.append(thread_call(inner, where, cursor, nxt))
            else:  # sync output call: keep the call, add a wait segment
                body.append(goal)
                position = self.sync_outputs[inner.indicator]
                body.append(Struct("wait_done", (inner.args[position], cursor, nxt)))
            cursor = nxt
        return Rule(head, rule.guards, body)


def short_circuit_motif(
    entry: tuple[str, int],
    sync_outputs: dict[tuple[str, int], int] | None = None,
) -> Motif:
    """The termination motif: the :class:`ShortCircuit` transformation with
    :data:`TERMINATION_LIBRARY`.  A stage above routes the ``boot``
    message: Rand's ``extra_entries`` in
    :func:`repro.motifs.random_map.random_stack`, the scheduler's
    ``minit``/``hinit`` in ``scheduled_application``."""
    return Motif(
        name="termination",
        transformation=ShortCircuit(entry, sync_outputs),
        library=TERMINATION_LIBRARY,
    )
