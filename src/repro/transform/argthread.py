"""The argument-threading transformation (Server motif step 1–4 engine).

``ThreadArgument`` generalizes the paper's Server transformation: given a
set of *operation* indicators (``send/2``, ``nodes/1``, ``halt/0``) and a
rewrite for each, it

1. finds every procedure from which an operation call is reachable
   (the call graph ancestors — paper step 1),
2. appends one fresh variable (conventionally ``DT``) to those procedures'
   heads,
3. appends that variable to every call to an affected procedure, and
4. replaces each operation call by its rewrite, which may mention the
   threaded variable (paper steps 2–4).

Only *top-level body goals* are calls; operation names appearing inside
data terms (e.g. a ``reduce(T, V)`` message under ``send``) are data and
are left untouched — this distinction is what makes the transformation
compose correctly.

:func:`thread_rules` is the loop underneath, shared with every motif that
threads arguments (the Supervise motif's monitor, the termination motif's
short circuit): it refuses arity-shift collisions and rewrites each rule of
an affected procedure with the motif's own per-rule function.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.errors import TransformError
from repro.strand.program import Program, Rule
from repro.strand.terms import Struct, Term, Var
from repro.transform.callgraph import CallGraph
from repro.transform.rewrite import map_rules, strip_placement, with_placement
from repro.transform.transformation import Transformation

__all__ = ["ThreadArgument", "OpRewriter", "thread_call", "thread_rules"]

#: Rewrites one operation call: ``(op_goal, threaded_var) -> goals``.
OpRewriter = Callable[[Struct, Var], list[Term]]


class ThreadArgument(Transformation):
    """Thread a fresh argument through every procedure that (transitively)
    calls one of ``ops``, rewriting the op calls themselves.

    Parameters
    ----------
    ops:
        ``indicator -> rewriter``.  The rewriter receives the (placement-
        stripped) op goal and the rule's threaded variable, and returns the
        replacement goal list.
    var_hint:
        Display name for the threaded variable.
    also_thread:
        Extra procedure indicators to thread even if the analysis does not
        find an op call in them (used when a composed motif knows a
        procedure will receive op calls later).
    """

    def __init__(
        self,
        ops: Mapping[tuple[str, int], OpRewriter],
        var_hint: str = "DT",
        also_thread: tuple[tuple[str, int], ...] = (),
        name: str = "thread-argument",
    ):
        self.ops = dict(ops)
        self.var_hint = var_hint
        self.also_thread = tuple(also_thread)
        self.name = name

    def affected(self, program: Program) -> set[tuple[str, int]]:
        """The procedures that will gain the threaded argument."""
        graph = CallGraph(program)
        for op in self.ops:
            if op in graph.defined:
                raise TransformError(
                    f"operation {op[0]}/{op[1]} is also defined as a "
                    f"procedure in {program.name!r}; refusing to thread"
                )
        affected = graph.callers_of(set(self.ops))
        for extra in self.also_thread:
            if extra in graph.defined:
                affected.add(extra)
        # Anything that calls an explicitly-threaded procedure must be
        # threaded too, transitively.
        affected |= graph.callers_of(set(affected)) if affected else set()
        return affected & graph.defined

    def apply(self, program: Program) -> Program:
        return thread_rules(program, self.affected(program), 1, self._thread_rule)

    def _thread_rule(self, rule: Rule, affected: set[tuple[str, int]]) -> Rule:
        dt = Var(self.var_hint)
        body: list[Term] = []
        for goal in rule.body:
            inner, where = strip_placement(goal)
            indicator = inner.indicator
            rewriter = self.ops.get(indicator)
            if rewriter is not None:
                if where is not None:
                    raise TransformError(
                        f"placement annotation on operation "
                        f"{indicator[0]}/{indicator[1]} is not supported"
                    )
                body.extend(rewriter(inner, dt))
            elif indicator in affected:
                body.append(thread_call(inner, where, dt))
            else:
                body.append(goal)
        return Rule(thread_call(rule.head, None, dt), rule.guards, body)


def thread_call(goal: Struct, where: Term | None, *args: Term) -> Term:
    """``goal`` with ``args`` appended, its placement ``where`` re-attached."""
    return with_placement(Struct(goal.functor, (*goal.args, *args)), where)


def thread_rules(
    program: Program,
    affected: set[tuple[str, int]],
    extra: int,
    thread_rule: Callable[[Rule, set[tuple[str, int]]], Rule],
) -> Program:
    """Thread ``extra`` new arguments through the ``affected`` procedures.

    Each rule of an affected procedure is replaced by
    ``thread_rule(rule, affected)`` of a fresh-variable copy, which appends
    the arguments to the head and to every call of an affected procedure.
    Other rules pass through with their provenance: they cannot call an
    affected procedure, or they would be affected themselves.

    Refuses when shifting ``p/k`` to ``p/k+extra`` would merge it with a
    different, unthreaded procedure of that arity (when that one is
    threaded too, both shift and nothing merges).
    """
    defined = set(program.indicators)
    for name, arity in sorted(affected):
        shifted = (name, arity + extra)
        if shifted in defined and shifted not in affected:
            raise TransformError(
                f"threading {name}/{arity} would collide with the existing "
                f"procedure {name}/{arity + extra}; rename one"
            )
    return map_rules(
        program,
        lambda rule: thread_rule(rule, affected)
        if rule.indicator in affected else rule,
    )
