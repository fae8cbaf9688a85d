"""Transformation engine tests: rewriting, call graphs, argument threading."""

import pytest

from repro.errors import TransformError
from repro.motifs.supervisor import SuperviseTransformation
from repro.motifs.termination import ShortCircuit
from repro.strand.parser import parse_program, parse_term
from repro.strand.pretty import format_program

from repro.strand.terms import Atom, Struct, Var
from repro.transform import (
    CallGraph,
    Identity,
    ThreadArgument,
    goal_indicator,
    map_body_goals,
    map_rules,
    strip_placement,
    with_placement,
)

SAMPLE = """
a(X) :- b(X), c.
b(X) :- X > 0 | send(1, msg(X)).
b(0).
c :- d.
d.
standalone :- d.
"""


class TestRewriteHelpers:
    def test_strip_placement_plain(self):
        goal, where = strip_placement(parse_term("f(X)"))
        assert goal.indicator == ("f", 1)
        assert where is None

    def test_strip_placement_annotated(self):
        goal, where = strip_placement(parse_term("f(X) @ random"))
        assert goal.indicator == ("f", 1)
        assert where is Atom("random")

    def test_strip_nested_placement(self):
        goal, where = strip_placement(parse_term("f(X) @ 1 @ 2"))
        assert goal.indicator == ("f", 1)

    def test_with_placement_roundtrip(self):
        goal, where = strip_placement(parse_term("f(X) @ 3"))
        re = with_placement(goal, where)
        assert re.functor == "@"

    def test_goal_indicator_atom(self):
        assert goal_indicator(Atom("halt")) == ("halt", 0)

    def test_map_body_goals_replacement(self):
        program = parse_program("p :- q, r.")
        out = map_body_goals(
            program,
            lambda g, rule: [] if goal_indicator(g) == ("q", 0) else g,
        )
        rule = next(out.rules())
        assert len(rule.body) == 1

    def test_map_body_goals_pure(self):
        program = parse_program("p :- q.")
        map_body_goals(program, lambda g, rule: [g, g])
        assert next(program.rules()).body and len(next(program.rules()).body) == 1

    def test_map_rules_split(self):
        program = parse_program("p(1).")
        out = map_rules(program, lambda r: [r, r])
        assert out.rule_count() == 2

    def test_map_body_goals_keeps_tag_of_unchanged_rules(self):
        program = parse_program("p :- q.\nq :- r.")
        for rule in program.rules():
            rule.motif = "lib"
        out = map_body_goals(
            program,
            lambda g, rule: Atom("s") if goal_indicator(g) == ("q", 0) else g,
        )
        assert [r.motif for r in out.rules()] == [None, "lib"]

    def test_map_body_goals_list_counts_as_change(self):
        program = parse_program("p :- q.")
        next(program.rules()).motif = "lib"
        out = map_body_goals(program, lambda g, rule: [g])
        assert next(out.rules()).motif is None


class TestCallGraph:
    def test_edges(self):
        graph = CallGraph(parse_program(SAMPLE))
        assert ("b", 1) in graph.callees(("a", 1))
        assert ("send", 2) in graph.callees(("b", 1))
        assert graph.defined == {("a", 1), ("b", 1), ("c", 0), ("d", 0), ("standalone", 0)}

    def test_callers_of_transitive(self):
        graph = CallGraph(parse_program(SAMPLE))
        affected = graph.callers_of({("send", 2)})
        assert affected == {("a", 1), ("b", 1)}

    def test_callers_excludes_unrelated(self):
        graph = CallGraph(parse_program(SAMPLE))
        affected = graph.callers_of({("send", 2)})
        assert ("c", 0) not in affected
        assert ("standalone", 0) not in affected

    def test_reachable_from(self):
        graph = CallGraph(parse_program(SAMPLE))
        reach = graph.reachable_from({("a", 1)})
        assert ("d", 0) in reach
        assert ("standalone", 0) not in reach

    def test_placement_looked_through(self):
        graph = CallGraph(parse_program("p :- q @ random.\nq :- send(1, m)."))
        assert graph.callers_of({("send", 2)}) == {("p", 0), ("q", 0)}
        assert graph.callees(("p", 0)) == {("q", 0)}


class TestTransformationBase:
    def test_identity_copies(self):
        program = parse_program("p.")
        out = Identity().apply(program)
        assert out is not program
        assert format_program(out) == format_program(program)


def _send_rewriter(goal: Struct, dt: Var):
    return [Struct("distribute", (*goal.args, dt))]


class TestThreadArgument:
    def make(self, **kw):
        return ThreadArgument(ops={("send", 2): _send_rewriter}, **kw)

    def test_affected_set(self):
        t = self.make()
        assert t.affected(parse_program(SAMPLE)) == {("a", 1), ("b", 1)}

    def test_heads_gain_argument(self):
        out = self.make().apply(parse_program(SAMPLE))
        assert ("a", 2) in out
        assert ("b", 2) in out
        assert ("a", 1) not in out

    def test_unaffected_untouched(self):
        out = self.make().apply(parse_program(SAMPLE))
        assert ("c", 0) in out
        assert ("d", 0) in out

    def test_call_sites_threaded(self):
        out = self.make().apply(parse_program(SAMPLE))
        a_rule = out.procedure("a", 2).rules[0]
        b_call = a_rule.body[0]
        assert b_call.indicator == ("b", 2)
        # The threaded variable is shared between head and call.
        from repro.strand.terms import deref

        assert deref(a_rule.head.args[-1]) is deref(b_call.args[-1])

    def test_op_rewritten(self):
        out = self.make().apply(parse_program(SAMPLE))
        b_rule = out.procedure("b", 2).rules[0]
        assert b_rule.body[0].indicator == ("distribute", 3)

    def test_fact_threaded(self):
        out = self.make().apply(parse_program(SAMPLE))
        heads = [r.head.arity for r in out.procedure("b", 2).rules]
        assert heads == [2, 2]  # b(0) fact also got the argument

    def test_message_data_untouched(self):
        # send's message argument is data; occurrences of op names inside
        # it must not be rewritten.
        src = "p :- send(1, send(2, x))."
        out = self.make().apply(parse_program(src))
        rule = out.procedure("p", 1).rules[0]
        dist = rule.body[0]
        inner = dist.args[1]
        assert inner.indicator == ("send", 2)  # still data

    def test_no_ops_is_identity(self):
        src = "p :- q.\nq."
        out = self.make().apply(parse_program(src))
        assert format_program(out) == format_program(parse_program(src))

    def test_also_thread(self):
        src = "server(In).\np :- send(1, x)."
        t = self.make(also_thread=(("server", 1),))
        out = t.apply(parse_program(src))
        assert ("server", 2) in out

    def test_defining_op_rejected(self):
        src = "send(A, B) :- whatever.\np :- send(1, 2).\nwhatever."
        with pytest.raises(TransformError):
            self.make().apply(parse_program(src))

    def test_placement_on_op_rejected(self):
        src = "p :- send(1, x) @ 2."
        with pytest.raises(TransformError):
            self.make().apply(parse_program(src))

    def test_placement_on_affected_call_preserved(self):
        src = "p :- q @ 3.\nq :- send(1, x)."
        out = self.make().apply(parse_program(src))
        rule = out.procedure("p", 1).rules[0]
        goal, where = strip_placement(rule.body[0])
        assert goal.indicator == ("q", 1)
        assert where == 3

    def test_idempotent_on_output(self):
        # Applying again finds no remaining ops (they were rewritten), so
        # the program is unchanged.
        out1 = self.make().apply(parse_program(SAMPLE))
        out2 = self.make().apply(out1)
        assert format_program(out2) == format_program(out1)


class TestSharedThreader:
    """Every argument-threading motif refuses an arity-shift collision
    with the same error, raised by ``thread_rules``."""

    @pytest.mark.parametrize("transformation, source, message", [
        (
            lambda: ThreadArgument(ops={("send", 2): _send_rewriter}),
            "p(X) :- send(1, X).\np(X, Y) :- Y := X.",
            "threading p/1 would collide with the existing procedure p/2",
        ),
        (
            lambda: SuperviseTransformation({("work", 2): 2}, entry=("main", 2)),
            "main(X, Out) :- work(X, Out) @ supervised(2).\n"
            "main(X, Out, Extra) :- Out := X, Extra := X.",
            "threading main/2 would collide with the existing procedure main/3",
        ),
        (
            lambda: ShortCircuit(entry=("go", 1)),
            "go(X) :- X := 1.\ngo(X, L, R) :- X := L, L := R.",
            "threading go/1 would collide with the existing procedure go/3",
        ),
    ], ids=["server", "supervise", "short-circuit"])
    def test_collision_refused(self, transformation, source, message):
        with pytest.raises(TransformError) as err:
            transformation().apply(parse_program(source))
        assert str(err.value) == f"{message}; rename one"
