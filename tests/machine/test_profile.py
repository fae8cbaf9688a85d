"""MotifProfile: bucket accounting, attribution through a real motif
stack, and the rendered cost table."""

import pytest

from repro.apps.arithmetic import eval_arith_node, paper_example_tree
from repro.core.api import reduce_tree
from repro.machine import Machine, MotifProfile
from repro.machine.profile import USER_TAG
from repro.strand import parse_program, run_query
from repro.strand.foreign import ForeignRegistry


class TestBuckets:
    def test_counters_accumulate_in_the_current_context(self):
        profile = MotifProfile()
        profile.begin("tree1", ("reduce", 2))
        profile.reduction(1.0)
        profile.reduction(2.0)
        profile.suspension()
        profile.message()
        row = profile.rows[("tree1", "reduce/2")]
        assert row == [2, 1, 1, 3.0]

    def test_none_motif_profiles_under_user(self):
        profile = MotifProfile()
        profile.begin(None, ("go", 1))
        profile.reduction(1.0)
        assert (USER_TAG, "go/1") in profile.rows

    def test_by_motif_collapses_predicates(self):
        profile = MotifProfile()
        profile.begin("m", ("a", 1))
        profile.reduction(1.0)
        profile.begin("m", ("b", 2))
        profile.reduction(2.0)
        profile.suspension()
        assert profile.by_motif() == {"m": [2, 1, 0, 3.0]}
        assert profile.total_busy == 3.0

    def test_table_sorts_by_busy_descending(self):
        profile = MotifProfile()
        profile.begin("m", ("cheap", 1))
        profile.reduction(1.0)
        profile.begin("m", ("dear", 1))
        profile.reduction(10.0)
        rows = [row[:2] for row in profile.table().rows]
        assert rows == [["m", "dear/1"], ["m", "cheap/1"]]


class TestAttribution:
    def run_profiled(self):
        profile = MotifProfile()
        machine = Machine(4, seed=0)
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             machine=machine, strategy="tr1",
                             profile=profile)
        return profile, result

    def test_tr1_stack_splits_server_and_user_costs(self):
        profile, result = self.run_profiled()
        assert result.value == 24
        motifs = set(profile.by_motif())
        assert "server[ports]" in motifs
        assert USER_TAG in motifs

    def test_profiled_busy_matches_machine_busy(self):
        profile, result = self.run_profiled()
        assert profile.total_busy == pytest.approx(
            result.metrics.total_busy)

    def test_profiled_reductions_match_machine_reductions(self):
        profile, result = self.run_profiled()
        total = sum(row[0] for row in profile.rows.values())
        assert total == result.metrics.reductions

    def test_profiling_does_not_perturb_the_computation(self):
        _, profiled = self.run_profiled()
        plain = reduce_tree(paper_example_tree(), eval_arith_node,
                            machine=Machine(4, seed=0), strategy="tr1")
        assert profiled.value == plain.value
        assert profiled.metrics.makespan == plain.metrics.makespan


def _doubling() -> ForeignRegistry:
    foreign = ForeignRegistry()
    foreign.register("double", 2, lambda x: 2 * x)
    return foreign


class TestSuspensionRoutes:
    """A goal suspends by rule selection (a user rule), by a plain foreign
    call or inside a builtin.  On every route the machine and the profile
    count it once, under the suspending goal's predicate."""

    PROGRAM = """
        total([X | Xs], A, S) :- A1 := A + X, total(Xs, A1, S).
        total([], A, S) :- S := A.
        late(V, Out) :- Out := V.
    """

    @pytest.mark.parametrize("query, foreign, predicate, answer", [
        ("total(Xs, 0, S), late([1, 2], Xs)", None, "total/3", ("S", 3)),
        ("double(Y, Z), late(4, Y)", _doubling, "double/2", ("Z", 8)),
        ("X := Y + 1, late(2, Y)", None, ":=/2", ("X", 3)),
    ], ids=["user-rule", "foreign", "builtin"])
    def test_suspensions_are_counted_once(self, query, foreign, predicate, answer):
        profile = MotifProfile()
        result = run_query(parse_program(self.PROGRAM), query,
                           machine=Machine(1, seed=0),
                           foreign=foreign() if foreign else None,
                           profile=profile)
        assert result[answer[0]] == answer[1]
        suspended = {key: row[1] for key, row in profile.rows.items() if row[1]}
        assert set(suspended) == {(USER_TAG, predicate)}
        assert sum(suspended.values()) == result.metrics.suspensions >= 1


class TestRendering:
    def test_table_has_rows_and_per_motif_subtotals(self):
        profile = MotifProfile()
        profile.begin("server[ports]", ("server", 2))
        profile.reduction(4.0)
        profile.begin(None, ("go", 1))
        profile.reduction(1.0)
        text = profile.render()
        assert "per-motif / per-predicate profile" in text
        assert "server/2" in text
        assert "go/1" in text
        assert "server[ports]:" in text  # subtotal note
        assert "user:" in text
