"""Call-graph analysis for argument-threading transformations.

The Server transformation's step 1 (paper §3.2) adds an argument to "both
process definitions that include a call to the send, nodes, or halt
primitives, and the process definitions of these processes' ancestors in
the call graph" — i.e. the set of procedures from which such a call is
reachable.  This module computes that set.
"""

from __future__ import annotations

from collections import defaultdict

from repro.strand.program import Program
from repro.strand.terms import Atom, Struct, Term, deref

__all__ = ["CallGraph"]


def _call_indicator(goal: Term) -> tuple[str, int] | None:
    """``name/arity`` a body goal calls, looking through ``@`` placement."""
    goal = deref(goal)
    while type(goal) is Struct and goal.functor == "@" and len(goal.args) == 2:
        goal = deref(goal.args[0])
    if type(goal) is Struct:
        return (goal.functor, len(goal.args))
    if type(goal) is Atom:
        return (goal.name, 0)
    return None


class CallGraph:
    """Static call graph of a program: ``caller -> {callees}`` over
    ``name/arity`` indicators (placement annotations looked through)."""

    def __init__(self, program: Program):
        self.defined: set[tuple[str, int]] = set(program.indicators)
        self.edges: dict[tuple[str, int], set[tuple[str, int]]] = {}
        for proc in program:
            callees = {_call_indicator(goal) for rule in proc.rules for goal in rule.body}
            callees.discard(None)
            if callees:
                self.edges[proc.indicator] = callees

    def callees(self, indicator: tuple[str, int]) -> set[tuple[str, int]]:
        return set(self.edges.get(indicator, ()))

    def callers_of(self, targets: set[tuple[str, int]]) -> set[tuple[str, int]]:
        """All *defined* procedures from which any target is reachable
        (the targets' transitive ancestors; targets themselves are not
        included unless they also call a target)."""
        reverse: dict[tuple[str, int], set[tuple[str, int]]] = defaultdict(set)
        for caller, callees in self.edges.items():
            for callee in callees:
                reverse[callee].add(caller)
        affected: set[tuple[str, int]] = set()
        frontier = list(targets)
        while frontier:
            target = frontier.pop()
            for caller in reverse.get(target, ()):
                if caller not in affected:
                    affected.add(caller)
                    frontier.append(caller)
        return affected & self.defined

    def reachable_from(self, roots: set[tuple[str, int]]) -> set[tuple[str, int]]:
        """All indicators reachable from the roots (roots included)."""
        seen = set(roots)
        frontier = list(roots)
        while frontier:
            node = frontier.pop()
            for callee in self.edges.get(node, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen
