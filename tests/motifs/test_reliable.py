"""The Reliable motif: transformation shape, protocol behaviour under
drops/partitions/duplicates, composition with Supervise, and same-seed
replay of the extended failure model."""

import pytest

from repro.apps.arithmetic import arithmetic_tree, eval_arith_node
from repro.core.api import reduce_tree, reliable_reduce_tree, supervised_reduce_tree
from repro.errors import DeadlockError, TransformError
from repro.machine import FaultPlan, Machine, Partition
from repro.motifs.reliable import ReliableTransformation, reliable_motif, reliable_state
from repro.strand.parser import parse_program
from repro.strand.terms import deref


DISPATCHED = """
main(X, Out) :- send(2, work(X, Out)).
work(X, Y) :- Y := X * 2.
server([work(X, Y)|In]) :- work(X, Y), server(In).
"""


def _body_indicators(program, name, arity):
    return [
        [deref(goal).indicator for goal in rule.body]
        for rule in program.procedure(name, arity).rules
    ]


class TestTransformation:
    def test_sends_rewritten_and_dispatch_twinned(self):
        out = ReliableTransformation().apply(parse_program(DISPATCHED))
        # send(2, work(..)) became rsend(2, work(..)).
        (main_body,) = _body_indicators(out, "main", 2)
        assert main_body == [("rsend", 2)]
        # The dispatch rule kept its original form and gained an
        # rmsg-accepting twin that acks/dedups before dispatching.
        server_rules = out.procedure("server", 1).rules
        assert len(server_rules) == 2
        twin = server_rules[1]
        msg = deref(deref(twin.head.args[0]).head)
        assert msg.indicator == ("rmsg", 3)
        twin_goals = [deref(goal).indicator for goal in twin.body]
        assert twin_goals == [
            ("rel_accept", 2),
            ("rel_recv_work_2", 4),
            ("server", 1),
        ]
        # Helper rules: dispatch on `new`, ack-only on `dup`.
        helpers = _body_indicators(out, "rel_recv_work_2", 4)
        assert helpers == [
            [("rel_ack", 1), ("work", 2)],
            [("rel_ack", 1)],
        ]

    def test_refuses_a_program_without_dispatch_rules(self):
        program = parse_program("main(X) :- send(2, foo(X)).")
        with pytest.raises(TransformError, match="no server/1 dispatch rules"):
            ReliableTransformation().apply(program)

    def test_refuses_a_send_nobody_would_unwrap(self):
        program = parse_program(
            "main(X) :- send(2, other(X)).\n"
            "server([work(X, Y)|In]) :- work(X, Y), server(In)."
        )
        with pytest.raises(TransformError, match="other/1"):
            ReliableTransformation().apply(program)

    def test_atom_payloads_stay_raw(self):
        # `send(N, halt)` is the broadcast shutdown convention: control
        # atoms bypass the ack protocol.
        out = ReliableTransformation().apply(
            parse_program(DISPATCHED + "stop(N) :- send(N, halt).")
        )
        (stop_body,) = _body_indicators(out, "stop", 1)
        assert stop_body == [("send", 2)]

    def test_motif_parameters_validated(self):
        with pytest.raises(ValueError):
            reliable_motif(retries=-1)
        with pytest.raises(ValueError):
            reliable_motif(timeout=0.0)
        with pytest.raises(ValueError):
            reliable_motif(timeout=50.0, max_timeout=10.0)


TREE = arithmetic_tree(16, seed=3)
EXPECTED = 5781  # == reduce_tree(TREE, eval_arith_node).value, fault-free


class TestReliableDelivery:
    def test_fault_free_run_matches_plain_tree_reduce(self):
        result = reliable_reduce_tree(
            TREE, eval_arith_node, machine=Machine(4, seed=0)
        )
        assert result.value == EXPECTED
        # Every dispatched message was acked on first post; the protocol
        # never had to retransmit or suppress anything.
        assert result.metrics.rel_acks == 15
        assert result.metrics.rel_retransmits == 0
        assert result.metrics.rel_duplicates_suppressed == 0
        assert result.metrics.rel_unreachable == 0
        assert "reliable(" in result.metrics.summary()

    @pytest.mark.parametrize("seed", [3, 5])
    def test_completes_under_drops_where_bare_stack_deadlocks(self, seed):
        plan = FaultPlan(drop_rate=0.2)
        result = reliable_reduce_tree(
            TREE, eval_arith_node, machine=Machine(4, seed=seed, faults=plan)
        )
        assert result.value == EXPECTED
        assert result.metrics.rel_retransmits > 0
        assert result.metrics.rel_acks == 15  # exactly-once dispatch
        with pytest.raises(DeadlockError):
            reduce_tree(
                TREE, eval_arith_node, termination=False,
                machine=Machine(4, seed=seed, faults=plan),
            )

    def test_rides_through_a_healing_partition(self):
        cut = Partition(frozenset({3, 4}), 30.0, 120.0)
        plan = FaultPlan(partitions=(cut,))
        result = reliable_reduce_tree(
            TREE, eval_arith_node, machine=Machine(4, seed=1, faults=plan)
        )
        assert result.value == EXPECTED
        assert result.metrics.partition_dropped > 0
        # Every severed message was retransmitted after the heal.
        assert result.metrics.rel_retransmits >= result.metrics.partition_dropped
        with pytest.raises(DeadlockError):
            reduce_tree(
                TREE, eval_arith_node, termination=False,
                machine=Machine(4, seed=1, faults=plan),
            )

    def test_duplicate_deliveries_are_suppressed(self):
        plan = FaultPlan(duplicate_rate=0.3)
        result = reliable_reduce_tree(
            TREE, eval_arith_node, machine=Machine(4, seed=0, faults=plan)
        )
        assert result.value == EXPECTED
        assert result.metrics.messages_duplicated > 0
        assert (
            result.metrics.rel_duplicates_suppressed
            == result.metrics.messages_duplicated
        )
        assert result.metrics.rel_acks == 15

    def test_supervised_composition_survives_bootstrap_loss(self):
        # Seed 2 drops one of the bootstrap server_init spawns, which the
        # protocol cannot protect (it predates the rsend rewrite): the
        # never-booted server is reported unreachable and Supervise
        # re-dispatches the stranded attempts elsewhere.  The supervised
        # stack without Reliable gets there too, by retrying what the
        # drops severed and abandoning the stragglers.
        plan = FaultPlan(drop_rate=0.2)
        result = reliable_reduce_tree(
            TREE, eval_arith_node, supervise=True, sup_timeout=400.0,
            machine=Machine(4, seed=2, faults=plan),
        )
        assert result.value == EXPECTED
        assert result.metrics.rel_unreachable > 0
        assert reliable_state(result.engine).unreachable
        bare = supervised_reduce_tree(
            TREE, eval_arith_node, timeout=400.0,
            machine=Machine(4, seed=2, faults=plan),
        )
        assert bare.value == EXPECTED
        assert bare.metrics.processes_abandoned > 0

    def test_crashed_destination_reported_unreachable(self):
        # Processor 3 dies before the computation reaches it: the retry
        # budget exhausts and every rsend to it lands on the status stream
        # instead of hanging the sender.
        result = reliable_reduce_tree(
            TREE, eval_arith_node, supervise=True,
            retries=2, timeout=20.0, sup_timeout=400.0,
            machine=Machine(4, seed=0, faults=FaultPlan(crash={3: 5.0})),
        )
        assert result.metrics.rel_unreachable > 0
        unreachable_nodes = {node for _, node, _ in reliable_state(result.engine).unreachable}
        assert 3 in unreachable_nodes


class TestSameSeedReplay:
    PLAN = FaultPlan(
        drop_rate=0.1,
        duplicate_rate=0.1,
        partitions=(Partition(frozenset({3, 4}), 30.0, 120.0),),
    )

    def _run(self):
        machine = Machine(4, seed=1, trace=True, faults=self.PLAN)
        result = reliable_reduce_tree(TREE, eval_arith_node, machine=machine)
        return result.value, machine.trace.format(), result.metrics.summary()

    def test_partitions_and_duplicates_replay_byte_for_byte(self):
        first, second = self._run(), self._run()
        assert first[0] == EXPECTED
        assert first == second

    def test_zero_rate_plan_replays_the_fault_free_trace(self):
        # A FaultPlan with every rate at zero must not perturb a single
        # RNG draw: the trace is byte-identical to a machine with no
        # failure model at all.
        def run(faults):
            machine = Machine(4, seed=0, trace=True, faults=faults)
            result = reduce_tree(TREE, eval_arith_node, machine=machine)
            return result.value, machine.trace.format()

        assert run(None) == run(FaultPlan())
