"""The Supervise motif: transformation errors, monitor threading, and the
full Server ∘ Rand ∘ Supervise ∘ Tree1′ stack under injected crashes."""

import pytest

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node, paper_example_tree
from repro.core.api import supervised_reduce_tree
from repro.errors import TransformError
from repro.machine import FaultPlan, Machine
from repro.motifs.reliable import reliable_tree_reduce
from repro.motifs.supervisor import (
    SUPERVISE_SERVICES,
    SuperviseTransformation,
    supervised_tree_reduce,
)
from repro.strand.parser import parse_program
from repro.strand.terms import deref


DOUBLER = """
main(X, Out) :- double(X, Out) @ supervised(2).
double(X, Y) :- Y := X * 2.
"""


class TestTransformationErrors:
    def test_requires_an_annotation(self):
        program = parse_program("main(X, Out) :- double(X, Out).\ndouble(X, Y) :- Y := X * 2.")
        t = SuperviseTransformation({("double", 2): 2}, entry=("main", 2))
        with pytest.raises(TransformError, match="no '@ supervised"):
            t.apply(program)

    def test_entry_must_reach_a_supervised_goal(self):
        program = parse_program(DOUBLER + "\nunrelated(X) :- X := 1.")
        t = SuperviseTransformation({("double", 2): 2}, entry=("unrelated", 1))
        with pytest.raises(TransformError, match="does not reach"):
            t.apply(program)

    def test_supervised_goal_needs_declared_output(self):
        program = parse_program(DOUBLER)
        t = SuperviseTransformation({("other", 3): 1}, entry=("main", 2))
        with pytest.raises(TransformError, match="no declared output position"):
            t.apply(program)

    def test_output_position_range_checked(self):
        with pytest.raises(TransformError, match="out of range"):
            SuperviseTransformation({("double", 2): 3}, entry=("main", 2))

    def test_arity_shift_collision_detected(self):
        program = parse_program(
            DOUBLER + "\nmain(X, Out, Extra) :- Out := X, Extra := X."
        )
        t = SuperviseTransformation({("double", 2): 2}, entry=("main", 2))
        with pytest.raises(TransformError, match="collide"):
            t.apply(program)


class TestMonitorThreading:
    def test_affected_procedures_gain_monitor_argument(self):
        program = parse_program(DOUBLER)
        t = SuperviseTransformation({("double", 2): 2}, entry=("main", 2))
        out = t.apply(program)
        # main/2 became main/3 (monitor threaded); the supervised callee
        # itself is untouched — attempts call it through the supervisor.
        assert ("main", 3) in out
        assert ("main", 2) not in out
        assert ("double", 2) in out
        assert ("sup_run", 2) in out

    def test_supervised_goal_rewritten_to_watch(self):
        program = parse_program(DOUBLER)
        t = SuperviseTransformation({("double", 2): 2}, entry=("main", 2))
        out = t.apply(program)
        (rule,) = out.procedure("main", 3).rules
        (goal,) = rule.body
        assert goal.indicator == ("sup_watch", 5)
        assert deref(goal.args[1]) == 2  # output position
        assert deref(goal.args[3]) == 2  # retries from the annotation


class TestSupervisedTreeReduce:
    def test_paper_example_fault_free(self):
        result = supervised_reduce_tree(
            paper_example_tree(), eval_arith_node, processors=4, seed=0
        )
        assert result.value == 24
        assert result.metrics.sup_retries == 0
        assert result.metrics.faults_injected == 0

    def test_crash_does_not_change_the_answer(self):
        tree = arithmetic_tree(32, seed=3)
        baseline = supervised_reduce_tree(
            tree, eval_arith_node, processors=4, seed=11
        )
        machine = Machine(4, seed=11, faults=FaultPlan(crash={3: 25.0}))
        recovered = supervised_reduce_tree(tree, eval_arith_node, machine=machine)
        assert recovered.value == baseline.value
        assert recovered.metrics.crashes == 1
        assert recovered.metrics.sup_retries > 0
        assert recovered.metrics.makespan > baseline.metrics.makespan

    def test_exhausted_retries_degrade_to_fallback(self):
        # Kill half the machine after the server network bootstraps: with
        # a single retry, subtrees whose attempts keep landing on dead
        # processors run out of budget and degrade to the fallback instead
        # of hanging the run.
        tree = arithmetic_tree(16, seed=3)
        machine = Machine(
            4, seed=11, faults=FaultPlan(crash={2: 25.0, 3: 25.0})
        )
        result = supervised_reduce_tree(
            tree, eval_arith_node, machine=machine,
            retries=1, timeout=400.0,
        )
        assert result.metrics.sup_degraded > 0
        assert result.metrics.sup_timeouts == (
            result.metrics.sup_retries + result.metrics.sup_degraded
        )
        assert result.metrics.crashes == 2

    def test_message_loss_never_deadlocks(self):
        # Drops strand parts of superseded attempts; the stack abandons
        # them at quiescence instead of reporting a deadlock, and every run
        # still answers: exactly, or degraded where retries ran out.
        tree = arithmetic_tree(16, seed=3)
        values = [
            supervised_reduce_tree(
                tree, eval_arith_node,
                machine=Machine(4, seed=seed, faults=FaultPlan(drop_rate=0.1)),
            ).value
            for seed in range(20)
        ]
        assert values.count(5781) == 18
        assert all(isinstance(value, int) for value in values)

    def test_services_declared_for_quiescence(self):
        # The Server stage threads DT through the supervisor loop, so the
        # loop every stack runs is supervisor/3.
        assert SUPERVISE_SERVICES == {("supervisor", 3)}
        for stack in (supervised_tree_reduce(), reliable_tree_reduce(supervise=True)):
            applied = stack.apply(parse_program(""))
            assert [ind for ind in applied.program.indicators
                    if ind[0] == "supervisor"] == [("supervisor", 3)]
            assert ("supervisor", 3) in applied.services

    def test_motif_stack_shape(self):
        motif = supervised_tree_reduce()
        names = [m.name for m in motif.pipeline]
        assert names[0] == "tree1-sup"
        assert "supervise" in names
        assert names.index("supervise") == 1
