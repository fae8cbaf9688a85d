"""Rand/Random motif tests (§3.3), including the Figure-5 staging."""

import pytest


from repro.errors import TransformError
from repro.motifs.random_map import RandTransformation, rand_motif, random_motif
from repro.motifs.tree_reduce1 import tree1_motif
from repro.strand.parser import parse_program
from repro.strand.terms import Atom, Cons, NIL, deref
from repro.transform.rewrite import goal_indicator, strip_placement

ANNOTATED = """
reduce(tree(V, L, R), Value) :-
    reduce(R, RV) @ random,
    reduce(L, LV),
    eval(V, LV, RV, Value).
reduce(leaf(X), Value) :- Value := X.
"""


class TestRandTransformation:
    def test_pragma_rewritten(self):
        out = RandTransformation().apply(parse_program(ANNOTATED))
        rule = out.procedure("reduce", 2).rules[0]
        goals = [goal_indicator(g) for g in rule.body]
        # The paper's exact expansion: nodes(N), rand_num(N,R), send(R,P).
        assert goals[:3] == [("nodes", 1), ("rand_num", 2), ("send", 2)]

    def test_no_pragma_left(self):
        out = RandTransformation().apply(parse_program(ANNOTATED))
        for rule in out.rules():
            for goal in rule.body:
                _, where = strip_placement(goal)
                assert where is None or deref(where) is not Atom("random")

    def test_message_is_original_goal(self):
        out = RandTransformation().apply(parse_program(ANNOTATED))
        rule = out.procedure("reduce", 2).rules[0]
        send = rule.body[2]
        message = send.args[1]
        assert deref(message).indicator == ("reduce", 2)

    def test_server_rules_generated(self):
        out = RandTransformation().apply(parse_program(ANNOTATED))
        server = out.procedure("server", 1)
        assert server is not None
        # dispatch rule for reduce/2 + halt + end-of-stream
        assert len(server.rules) == 3

    def test_dispatch_rule_shape(self):
        out = RandTransformation().apply(parse_program(ANNOTATED))
        dispatch = out.procedure("server", 1).rules[0]
        pattern = deref(dispatch.head.args[0])
        assert isinstance(pattern, Cons)
        assert deref(pattern.head).indicator == ("reduce", 2)
        calls = [goal_indicator(g) for g in dispatch.body]
        assert calls == [("reduce", 2), ("server", 1)]

    def test_halt_and_eos_rules(self):
        out = RandTransformation().apply(parse_program(ANNOTATED))
        heads = [deref(r.head.args[0]) for r in out.procedure("server", 1).rules]
        assert any(isinstance(h, Cons) and deref(h.head) is Atom("halt") for h in heads)
        assert any(h is NIL for h in heads)

    def test_extra_entries(self):
        out = RandTransformation(extra_entries=(("boot", 2),)).apply(
            parse_program(ANNOTATED)
        )
        patterns = [
            deref(r.head.args[0]) for r in out.procedure("server", 1).rules
        ]
        indicators = [
            deref(p.head).indicator
            for p in patterns
            if isinstance(p, Cons) and not isinstance(deref(p.head), Atom)
        ]
        assert ("boot", 2) in indicators

    def test_no_pragma_no_entries_rejected(self):
        with pytest.raises(TransformError):
            RandTransformation().apply(parse_program("p :- q.\nq."))

    def test_annotated_twice_single_dispatch_rule(self):
        src = """
        p :- q(1) @ random, q(2) @ random.
        q(_).
        """
        out = RandTransformation().apply(parse_program(src))
        dispatch_rules = [
            r for r in out.procedure("server", 1).rules
            if isinstance(deref(r.head.args[0]), Cons)
            and not isinstance(deref(deref(r.head.args[0]).head), Atom)
        ]
        assert len(dispatch_rules) == 1


class TestFigure5Staging:
    """The three staged outputs of Tree-Reduce-1 (Figure 5/6)."""

    def stages(self):
        from repro.core.motif import ComposedMotif
        from repro.motifs.server import server_motif

        eval_program = parse_program(
            "eval(add, L, R, V) :- V := L + R.", name="eval"
        )
        motif = ComposedMotif([tree1_motif(), rand_motif(), server_motif()])
        return motif.apply_staged(eval_program)

    def test_stage1_tree1_output(self):
        stage1 = self.stages()[0].program
        # The 4-line annotated reduce plus the user's eval.
        assert ("reduce", 2) in stage1
        assert ("eval", 4) in stage1
        rule = stage1.procedure("reduce", 2).rules[0]
        _, where = strip_placement(rule.body[0])
        assert deref(where) is Atom("random")

    def test_stage2_rand_output(self):
        stage2 = self.stages()[1].program
        assert ("server", 1) in stage2
        rule = stage2.procedure("reduce", 2).rules[0]
        goals = [goal_indicator(g) for g in rule.body]
        assert ("send", 2) in goals

    def test_stage3_server_output(self):
        stage3 = self.stages()[2].program
        # Figure 5's final section: reduce/3, server/2, library code.
        assert ("reduce", 3) in stage3
        assert ("server", 2) in stage3
        assert ("create", 2) in stage3
        rule = stage3.procedure("reduce", 3).rules[0]
        goals = [goal_indicator(g) for g in rule.body]
        assert ("length", 2) in goals
        assert ("distribute", 3) in goals

    def test_stage3_server_rule_matches_figure5(self):
        stage3 = self.stages()[2].program
        dispatch = stage3.procedure("server", 2).rules[0]
        # server([reduce(T,V) | In], DT) :- reduce(T,V,DT), server(In,DT).
        pattern = deref(dispatch.head.args[0])
        assert deref(pattern.head).indicator == ("reduce", 2)
        calls = [goal_indicator(g) for g in dispatch.body]
        assert calls == [("reduce", 3), ("server", 2)]


class TestRandomComposition:
    def test_random_is_server_compose_rand(self):
        motif = random_motif()
        names = [m.name for m in motif.stages()]
        assert names[0] == "rand"
        assert names[1].startswith("server")

    def test_rand_motif_has_empty_library(self):
        assert len(rand_motif().library) == 0
