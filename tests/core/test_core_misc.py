"""Pragma, registry, and high-level API tests."""

import pytest

from repro.core import (
    RANDOM,
    TASK,
    default_registry,
    get_motif,
    reduce_tree,
)
from repro.core.api import as_application
from repro.core.registry import MotifRegistry
from repro.errors import MachineError, MotifError, ReproError
from repro.machine import Machine
from repro.strand.parser import parse_term
from repro.strand.program import Program
from repro.transform.rewrite import strip_placement
from repro.apps.arithmetic import (
    EVAL_SOURCE,
    eval_arith_node,
    paper_example_tree,
    paper_example_value,
)
from repro.apps.trees import Leaf


class TestPragmas:
    """A motif recognises its pragma as a placement onto the very atom
    ``RANDOM`` or ``TASK`` (``strip_placement``, then an identity test)."""

    def test_plain_goal_not_pragma(self):
        assert strip_placement(parse_term("f(X)"))[1] is None

    def test_numeric_placement_not_pragma(self):
        _, where = strip_placement(parse_term("f(X) @ 3"))
        assert where == 3
        assert where is not RANDOM and where is not TASK

    def test_pragma_name(self):
        assert strip_placement(parse_term("f(X) @ random"))[1] is RANDOM
        assert strip_placement(parse_term("f(X) @ task"))[1] is TASK


class TestRegistry:
    def test_default_registry_has_paper_motifs(self):
        names = default_registry().names()
        for expected in ("server", "rand", "random", "tree1",
                         "tree-reduce-1", "tree-reduce-2", "scheduler",
                         "search", "sort", "grid", "farm", "pipeline", "dnc"):
            assert expected in names, expected

    def test_get_motif_with_params(self):
        motif = get_motif("server", library="merge")
        assert "merge" in motif.name

    def test_unknown_motif(self):
        with pytest.raises(MotifError, match="known motifs"):
            get_motif("nonexistent")

    def test_duplicate_registration_rejected(self):
        registry = MotifRegistry()
        from repro.core.motif import Motif

        registry.register("m", lambda: Motif("m"))
        with pytest.raises(MotifError):
            registry.register("m", lambda: Motif("m"))


class TestAsApplication:
    def test_strand_source(self):
        program, setup = as_application(EVAL_SOURCE)
        assert ("eval", 4) in program
        assert setup is None

    def test_program_passthrough_shares(self):
        # Transformations never mutate their input, so the application is
        # passed through by identity — that is what lets the motif-apply
        # and compile caches key on it across repeated runs.
        source = Program(name="orig")
        program, _ = as_application(source)
        assert program is source

    def test_source_parse_is_memoized(self):
        first, _ = as_application(EVAL_SOURCE)
        second, _ = as_application(EVAL_SOURCE)
        assert first is second

    def test_callable_registers_eval(self):
        program, setup = as_application(lambda op, l, r: l + r)
        assert len(program) == 0
        from repro.strand.foreign import ForeignRegistry

        registry = ForeignRegistry()
        setup(registry)
        assert ("eval", 4) in registry

    def test_rejects_garbage(self):
        with pytest.raises(ReproError):
            as_application(42)


class TestReduceTree:
    def test_paper_example_all_strategies(self):
        tree = paper_example_tree()
        for strategy in ("sequential", "static", "tr1", "tr2"):
            result = reduce_tree(tree, eval_arith_node, processors=4,
                                 strategy=strategy, seed=3)
            assert result.value == paper_example_value, strategy

    def test_strand_evaluator(self):
        result = reduce_tree(paper_example_tree(), EVAL_SOURCE,
                             processors=2, strategy="tr1")
        assert result.value == paper_example_value

    def test_tr1_without_termination_uses_quiescence(self):
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             processors=2, strategy="tr1", termination=False)
        assert result.value == paper_example_value

    def test_single_leaf_shortcut(self):
        result = reduce_tree(Leaf(7), eval_arith_node, strategy="tr2")
        assert result.value == 7

    def test_unknown_strategy(self):
        with pytest.raises(ReproError):
            reduce_tree(paper_example_tree(), eval_arith_node, strategy="bogus")

    def test_workers_on_sequential_backend_refused_like_machine(self):
        # reduce_tree passes workers= through, so it refuses what Machine refuses.
        with pytest.raises(MachineError, match="workers="):
            Machine(2, workers=2)
        with pytest.raises(MachineError, match="workers="):
            reduce_tree(paper_example_tree(), eval_arith_node, processors=2, workers=2)

    def test_metrics_populated(self):
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             processors=4, strategy="tr1")
        assert result.metrics.processors == 4
        assert result.metrics.reductions > 0

    def test_eval_cost_scales_virtual_time(self):
        cheap = reduce_tree(paper_example_tree(), eval_arith_node,
                            strategy="sequential", eval_cost=1.0)
        costly = reduce_tree(paper_example_tree(), eval_arith_node,
                             strategy="sequential", eval_cost=100.0)
        assert costly.metrics.makespan > cheap.metrics.makespan

    def test_topology_option(self):
        result = reduce_tree(paper_example_tree(), eval_arith_node,
                             processors=8, strategy="tr1", topology="hypercube")
        assert result.value == paper_example_value
