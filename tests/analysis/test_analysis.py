"""Analysis utilities tests: complexity accounting, reporting, load stats."""

import pytest

from repro.analysis import (
    ProgramSize,
    Table,
    diff_generated,
    format_value,
    load_stats,
    measure,
)
from repro.machine import MachineMetrics, VirtualProcessor
from repro.strand.parser import parse_program


class TestComplexity:
    def test_measure_counts(self):
        program = parse_program("""
        a(X) :- X > 0 | b(X), c.
        a(0).
        b(_).
        c.
        """)
        size = measure(program)
        assert size.procedures == 3
        assert size.rules == 4
        assert size.goals == 3  # 1 guard + 2 body goals
        assert size.lines > 0
        assert (size.procedures, size.rules, size.goals) == (
            len(program), program.rule_count(), program.goal_count())

    def test_empty_program(self):
        from repro.strand.program import Program

        size = measure(Program())
        assert size.rules == 0
        assert size.lines == 0

    def test_addition(self):
        a = ProgramSize(1, 2, 3, 4)
        b = ProgramSize(10, 20, 30, 40)
        assert a + b == ProgramSize(11, 22, 33, 44)

    def test_diff_generated_detects_new_procs(self):
        before = parse_program("user.")
        after = parse_program("user.\nhelper :- user.")
        diff = diff_generated(before, after)
        assert diff.procedures == 1
        assert diff.rules == 1

    def test_diff_generated_detects_changed_arity(self):
        before = parse_program("p(X) :- q.\nq.")
        after = parse_program("p(X, DT) :- q.\nq.")
        diff = diff_generated(before, after)
        assert diff.procedures == 1

    def test_diff_ignores_unchanged(self):
        program = parse_program("p :- q.\nq.")
        diff = diff_generated(program, program.copy())
        assert diff.rules == 0

    def test_motif_stack_effort_accounting(self):
        """E7's core figure: user code is tiny next to generated code."""
        from repro.apps.arithmetic import EVAL_SOURCE
        from repro.motifs.tree_reduce1 import tree_reduce_1

        user = parse_program(EVAL_SOURCE, name="user")
        applied = tree_reduce_1().apply(user)
        user_size = measure(user)
        total_size = measure(applied.program)
        assert total_size.rules > 4 * user_size.rules


class TestReporting:
    def test_table_render(self):
        table = Table("demo", ["a", "bee"])
        table.add(1, 2.5)
        table.add("x", 1234.0)
        text = table.render()
        assert "demo" in text
        assert "bee" in text
        assert "1,234" in text

    def test_row_arity_checked(self):
        table = Table("t", ["only"])
        with pytest.raises(ValueError):
            table.add(1, 2)

    def test_notes_rendered(self):
        table = Table("t", ["c"])
        table.add(1)
        table.note("shape holds")
        assert "shape holds" in table.render()

    def test_format_value(self):
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.142"
        assert format_value(12.345) == "12.3"
        assert format_value(10_000.0) == "10,000"
        assert format_value(True) == "yes"
        assert format_value("s") == "s"


class TestLoadStats:
    def make_metrics(self, busy):
        procs = []
        for i, b in enumerate(busy):
            p = VirtualProcessor(i + 1)
            p.busy = b
            p.clock = max(busy)
            procs.append(p)
        return MachineMetrics.from_processors(procs)

    def test_perfect_balance(self):
        stats = load_stats(self.make_metrics([5.0, 5.0, 5.0]))
        assert stats.imbalance == pytest.approx(1.0)
        assert stats.cv == pytest.approx(0.0)
        assert stats.fairness == pytest.approx(1.0)
        assert stats.efficiency == pytest.approx(1.0)

    def test_skewed(self):
        stats = load_stats(self.make_metrics([9.0, 1.0]))
        assert stats.imbalance == pytest.approx(1.8)
        assert stats.max_busy == 9.0
        assert stats.min_busy == 1.0
        assert stats.efficiency < 1.0
