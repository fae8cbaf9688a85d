"""MotifProfile: bucket accounting, attribution through a real motif
stack, and the rendered cost table."""

import pytest

from repro.apps.arithmetic import eval_arith_node, paper_example_tree
from repro.core.api import reduce_tree
from repro.machine import Machine, MotifProfile
from repro.machine.profile import USER_TAG


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
