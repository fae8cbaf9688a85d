"""Short-circuit termination motif tests (§3.3)."""

import pytest

from repro.errors import MotifError, TransformError
from repro.motifs.dnc import dnc_stack
from repro.motifs.farm import farm_stack
from repro.motifs.search import collect_search_stack, search_stack
from repro.motifs.sort import sort_stack
from repro.motifs.termination import ShortCircuit, short_circuit_motif
from repro.motifs.tree_reduce1 import tree_reduce_1
from repro.strand.parser import parse_program
from repro.strand.program import Program
from repro.strand.terms import deref
from repro.transform.rewrite import goal_indicator

APP = """
reduce(tree(V, L, R), Value) :-
    reduce(R, RV) @ random,
    reduce(L, LV),
    eval(V, LV, RV, Value).
reduce(leaf(X), Value) :- Value := X.
"""


#: ``name -> (stack, entry arity)`` for every termination stack built by
#: ``random_stack``.
TERMINATION_STACKS = {
    "tr1": (tree_reduce_1(), 2),
    "farm": (farm_stack(), 2),
    "dnc": (dnc_stack(), 3),
    "search": (search_stack(), 3),
    "collect-search": (collect_search_stack(), 4),
    "sort": (sort_stack(), 3),
}


def transform(**kw):
    params = dict(entry=("reduce", 2), sync_outputs={("eval", 4): 3})
    params.update(kw)
    return ShortCircuit(**params).apply(parse_program(APP))


def applied():
    """The termination motif applied to APP: ``T(APP) ∪ L``."""
    motif = short_circuit_motif(("reduce", 2), {("eval", 4): 3})
    return motif.apply(parse_program(APP)).program


class TestThreading:
    def test_entry_gains_two_arguments(self):
        out = transform()
        assert ("reduce", 4) in out
        assert ("reduce", 2) not in out

    def test_leaf_rule_closes_segment(self):
        out = transform()
        leaf_rule = out.procedure("reduce", 4).rules[1]
        goals = [goal_indicator(g) for g in leaf_rule.body]
        assert goals[-1] == (":=", 2)
        # The closing assignment connects L directly to R.
        from repro.strand.terms import deref

        closing = leaf_rule.body[-1]
        assert deref(closing.args[0]) is deref(leaf_rule.head.args[2])
        assert deref(closing.args[1]) is deref(leaf_rule.head.args[3])

    def test_internal_rule_splits_segment(self):
        out = transform()
        rule = out.procedure("reduce", 4).rules[0]
        goals = [goal_indicator(g) for g in rule.body]
        # Two threaded reduce calls plus a wait_done for the eval output.
        assert goals.count(("reduce", 4)) == 2
        assert ("wait_done", 3) in goals

    def test_placement_preserved_through_threading(self):
        from repro.strand.terms import Atom, deref
        from repro.transform.rewrite import strip_placement

        out = transform()
        rule = out.procedure("reduce", 4).rules[0]
        placed = [g for g in rule.body
                  if strip_placement(g)[1] is not None]
        assert len(placed) == 1
        inner, where = strip_placement(placed[0])
        assert inner.indicator == ("reduce", 4)
        assert deref(where) is Atom("random")

    def test_chain_is_connected(self):
        # L of the first segment is the head's L; R of the last is the
        # head's R; middles are shared.
        from repro.strand.terms import deref
        from repro.transform.rewrite import strip_placement

        out = transform()
        rule = out.procedure("reduce", 4).rules[0]
        head_l, head_r = rule.head.args[2], rule.head.args[3]
        seg_goals = []
        for g in rule.body:
            inner, _ = strip_placement(g)
            if inner.indicator == ("reduce", 4):
                seg_goals.append((inner.args[2], inner.args[3]))
            if inner.indicator == ("wait_done", 3):
                seg_goals.append((inner.args[1], inner.args[2]))
        assert deref(seg_goals[0][0]) is deref(head_l)
        assert deref(seg_goals[-1][1]) is deref(head_r)
        for (_, right), (left, _) in zip(seg_goals, seg_goals[1:]):
            assert deref(right) is deref(left)

    def test_support_rules_added(self):
        out = applied()
        assert ("boot", 3) in out  # entry arity 2 + Done
        assert ("watch", 1) in out
        assert ("wait_done", 3) in out

    def test_support_rules_come_from_the_library(self):
        library = short_circuit_motif(("reduce", 2)).library
        assert library.indicators == [("watch", 1), ("wait_done", 3)]
        assert ("watch", 1) not in transform()
        assert ("wait_done", 3) not in transform()

    def test_writes_no_server_rule(self):
        assert ("server", 1) not in transform()
        assert ("server", 1) not in applied()

    @pytest.mark.parametrize("name", sorted(TERMINATION_STACKS))
    def test_rand_stage_dispatches_boot(self, name):
        stack, entry_arity = TERMINATION_STACKS[name]
        stages = dict(zip((m.name for m in stack.stages()),
                          stack.apply_staged(Program(name="application"))))
        server = stages["rand"].program.procedure("server", 1)
        messages = [deref(rule.head.args[0]).head for rule in server.rules[:-2]]
        assert [deref(m).indicator for m in messages][-1] == ("boot", entry_arity + 1)
        assert {rule.motif for rule in server.rules} == {"rand"}

    def test_watch_invokes_halt(self):
        out = applied()
        watch = out.procedure("watch", 1).rules[0]
        assert [goal_indicator(g) for g in watch.body] == [("halt", 0)]
        assert len(watch.guards) == 1

    def test_user_watch_clashes_with_the_library(self):
        app = parse_program(APP + "watch(X) :- X := seen.\n")
        with pytest.raises(MotifError, match="watch/1"):
            short_circuit_motif(("reduce", 2), {("eval", 4): 3}).apply(app)

    def test_missing_entry_rejected(self):
        with pytest.raises(TransformError):
            ShortCircuit(entry=("nope", 1)).apply(parse_program(APP))


class TestEndToEnd:
    def test_tr1_with_termination_halts_itself(self):
        """With the circuit, the program halts its own servers: no
        quiescence port-closing needed."""
        from repro.apps.arithmetic import eval_arith_node, paper_example_tree
        from repro.core.api import reduce_tree

        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             processors=3, strategy="tr1", termination=True)
        assert result.value == 24
        assert not result.engine._ports_closed  # halt did the job

    def test_without_termination_relies_on_quiescence(self):
        from repro.apps.arithmetic import eval_arith_node, paper_example_tree
        from repro.core.api import reduce_tree

        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             processors=3, strategy="tr1", termination=False)
        assert result.value == 24
        assert result.engine._ports_closed
