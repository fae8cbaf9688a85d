"""The Grain motif (the grain of §3.1): a depth bound on ``@ random`` recursion.

A transformation with an empty library, like Rand.  It threads a depth ``D``
through each procedure that holds or transitively calls an ``@ random`` goal
and each procedure called ``@ random`` (a *target*).  A target's rules get
the guard ``D > 0`` and pass on ``D1 := D - 1``, bound right before their
first threaded call; the others pass ``D`` on.  A target ``p/n`` gains
``p(A1..An, 0) :- lp(A1..An).``, and each threaded ``q`` a local twin ``lq``:
its rules with ``@ random`` stripped and threaded calls renamed to twins.
"""

from __future__ import annotations

from repro.core.motif import Motif
from repro.core.pragmas import RANDOM
from repro.errors import TransformError
from repro.strand.program import Program, Rule
from repro.strand.terms import Struct, Term, Var, deref
from repro.transform.argthread import thread_call, thread_rules
from repro.transform.callgraph import CallGraph
from repro.transform.rewrite import strip_placement, with_placement
from repro.transform.transformation import Transformation

__all__ = ["Grain", "grain_motif"]


class Grain(Transformation):
    name = "grain"

    def apply(self, program: Program) -> Program:
        placing, targets = set(), {}
        for rule in program.rules():
            for inner, where in map(strip_placement, rule.body):
                if deref(where) is RANDOM:
                    placing.add(rule.indicator)
                    targets[inner.indicator] = None
        if not placing:
            raise TransformError(f"Grain applied to {program.name!r}, which has no '@ random' goal")
        graph = CallGraph(program)
        threaded = (placing | graph.callers_of(placing) | set(targets)) & graph.defined
        for name, arity in sorted(threaded):
            if ("l" + name, arity) in graph.defined:
                raise TransformError(f"Grain's local twin l{name}/{arity} is already defined")

        def thread(rule: Rule, _) -> Rule:
            depth = passed = Var("D")
            body: list[Term] = []
            for goal in rule.body:
                inner, where = strip_placement(goal)
                if inner.indicator in threaded:
                    if rule.indicator in targets and passed is depth:
                        passed = Var("D1")
                        body.append(Struct(":=", (passed, Struct("-", (depth, 1)))))
                    goal = thread_call(inner, where, passed)
                body.append(goal)
            guards = [Struct(">", (depth, 0))] if rule.indicator in targets else []
            return Rule(thread_call(rule.head, None, depth), guards + rule.guards, body)

        def local(goal: Term) -> Term:
            inner, where = strip_placement(goal)
            if inner.indicator in threaded:
                inner = Struct("l" + inner.functor, inner.args)
            elif deref(where) is not RANDOM:
                return goal
            return with_placement(inner, None if deref(where) is RANDOM else where)

        out = thread_rules(program, threaded, 1, thread)
        for name, arity in targets:
            if (name, arity) in threaded:
                args = [Var(f"A{i + 1}") for i in range(arity)]
                out.add_rule(Rule(Struct(name, (*args, 0)), [], [Struct("l" + name, args)]))
        for rule in program.rules():
            if rule.indicator in threaded:
                rule = rule.rename()
                head = Struct("l" + rule.head.functor, rule.head.args)
                out.add_rule(Rule(head, rule.guards, [local(goal) for goal in rule.body]))
        return out


def grain_motif() -> Motif:
    """The ``Grain`` motif: the transformation above, empty library."""
    return Motif(name="grain", transformation=Grain())
