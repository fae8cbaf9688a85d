"""The two matchers every matching unit test runs through.

``COMPILED`` is the path the runtime executes: a one-rule
:class:`~repro.strand.compile.CompiledProcedure` selects (head plans and
guard plans via ``CompiledRule.try_commit``) and
:func:`~repro.strand.compile.compile_template` builds bodies.  ``ORACLE`` is
the interpretive reference matcher in :mod:`tests.strand.reference_match`.
Both answer with a :class:`~tests.strand.reference_match.MatchResult`, so a
test case states one expectation and holds both to it.
"""

from repro.strand.arith import Suspend
from repro.strand.compile import CompiledProcedure, compile_template
from repro.strand.program import Procedure, Rule
from tests.strand.reference_match import (
    MatchResult,
    eval_guards,
    instantiate,
    match_head,
)


class CompiledMatcher:
    def match(self, head, goal) -> MatchResult:
        """Head match only (the rule has no guards)."""
        return self.commit(Rule(head), goal)

    def commit(self, rule, goal) -> MatchResult:
        """Head match, then guards: the runtime's committed-choice test."""
        proc = Procedure(*rule.indicator)
        proc.add(rule)
        try:
            selected = CompiledProcedure(proc).select(goal.args)
        except Suspend as s:
            return MatchResult(MatchResult.SUSPENDED, blocked=list(s.variables))
        if selected is None:
            return MatchResult(MatchResult.FAILED)
        return MatchResult(MatchResult.MATCHED, env=selected[1])

    def instantiate(self, term, env, fresh):
        return compile_template(term)(env, fresh)


class OracleMatcher:
    def match(self, head, goal) -> MatchResult:
        return match_head(head, goal)

    def commit(self, rule, goal) -> MatchResult:
        m = match_head(rule.head, goal)
        if m.status != MatchResult.MATCHED:
            return m
        return eval_guards(rule.guards, m.env)

    def instantiate(self, term, env, fresh):
        return instantiate(term, env, fresh)


COMPILED = CompiledMatcher()
ORACLE = OracleMatcher()
