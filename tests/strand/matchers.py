"""The two matchers every matching unit test runs through.

``COMPILED`` is the path the runtime executes: a one-rule
:class:`~repro.strand.compile.CompiledProcedure` whose generated selection
function matches the head, checks the guards and builds the body.  To read
a match environment it gets a body goal listing the head and guard
variables; to instantiate a term it gets a head binding the term's known
variables and a body goal listing the term's other (fresh) variables.
``ORACLE`` is the interpretive reference matcher in
:mod:`tests.strand.reference_match`.  Both answer with a
:class:`~tests.strand.reference_match.MatchResult` (or a built term), so a
test case states one expectation and holds both to it.
"""

from repro.strand.compile import CompiledProcedure
from repro.strand.program import Procedure, Rule
from repro.strand.terms import Struct, Var, deref, term_vars
from tests.strand.reference_match import (
    MatchResult,
    eval_guards,
    instantiate,
    match_head,
)


def _select(rule: Rule, goal_args: tuple, blocked: list):
    """``CompiledProcedure.select`` over the one-rule procedure ``rule``."""
    proc = Procedure(*rule.indicator)
    proc.add(rule)
    return CompiledProcedure(proc).select(goal_args, blocked)


class CompiledMatcher:
    def match(self, head, goal) -> MatchResult:
        """Head match only (the rule has no guards)."""
        return self.commit(Rule(head), goal)

    def commit(self, rule, goal) -> MatchResult:
        """Head match, then guards: the runtime's committed-choice test."""
        rule_vars = term_vars(Struct("vars", (rule.head, *rule.guards)))
        probe = Rule(rule.head, rule.guards, [Struct("env", tuple(rule_vars))])
        blocked: list = []
        selected = _select(probe, goal.args, blocked)
        if selected is None:
            if blocked:
                return MatchResult(MatchResult.SUSPENDED, blocked=blocked)
            return MatchResult(MatchResult.FAILED)
        values = selected[1][0].args
        return MatchResult(MatchResult.MATCHED,
                           env={id(v): value for v, value in zip(rule_vars, values)})

    def body(self, rule, goal) -> list | None:
        """The committed rule's body goals, or ``None`` when it does not
        commit."""
        selected = _select(rule, goal.args, [])
        return None if selected is None else list(selected[1])

    def first_commit(self, rules, goal):
        """Index of the rule committed among ``rules``, ``"suspend"``, or
        ``None`` on definite failure."""
        outcome = self.select(rules, goal)
        return {"commit": outcome[-1], "suspend": "suspend", "fail": None}[outcome[0]]

    def select(self, rules, goal):
        """``("commit", index)``, ``("suspend", variables)`` with the
        distinct blocking variables in the order selection met them, or
        ``("fail",)``."""
        proc = Procedure(*goal.indicator)
        for rule in rules:
            proc.add(rule)
        blocked: list = []
        selected = CompiledProcedure(proc).select(goal.args, blocked)
        if selected is not None:
            return ("commit", selected[0].order)
        return ("suspend", distinct(blocked)) if blocked else ("fail",)

    def instantiate(self, term, env, fresh):
        known = {**env, **fresh}
        term_vars_ = term_vars(term)
        bound = [v for v in term_vars_ if id(v) in known]
        new = [v for v in term_vars_ if id(v) not in known]
        rule = Rule(Struct("inst", tuple(bound)), [], [term, Struct("fresh", tuple(new))])
        instance, images = _select(rule, tuple(known[id(v)] for v in bound), [])[1]
        for var, image in zip(new, images.args):
            fresh[id(var)] = env[id(var)] = image
        return instance


class OracleMatcher:
    def match(self, head, goal) -> MatchResult:
        return match_head(head, goal)

    def commit(self, rule, goal) -> MatchResult:
        m = match_head(rule.head, goal)
        if m.status != MatchResult.MATCHED:
            return m
        return eval_guards(rule.guards, m.env)

    def body(self, rule, goal) -> list | None:
        m = self.commit(rule, goal)
        if m.status != MatchResult.MATCHED:
            return None
        fresh: dict = {}
        return [instantiate(term, m.env, fresh) for term in rule.body]

    def first_commit(self, rules, goal):
        outcome = self.select(rules, goal)
        return {"commit": outcome[-1], "suspend": "suspend", "fail": None}[outcome[0]]

    def select(self, rules, goal):
        blocked = []
        for index, rule in enumerate(rules):
            m = self.commit(rule, goal)
            if m.status == MatchResult.MATCHED:
                return ("commit", index)
            if m.status == MatchResult.SUSPENDED:
                blocked += m.blocked
        return ("suspend", distinct(blocked)) if blocked else ("fail",)

    def instantiate(self, term, env, fresh):
        return instantiate(term, env, fresh)


def distinct(variables) -> list[Var]:
    """The distinct unbound variables of ``variables`` in first-seen order:
    what the scheduler keeps of a suspension."""
    seen, out = set(), []
    for var in map(deref, variables):
        if type(var) is Var and id(var) not in seen:
            seen.add(id(var))
            out.append(var)
    return out


COMPILED = CompiledMatcher()
ORACLE = OracleMatcher()
