"""Compiled-library / applied-motif caching (acceptance: applying a 3-deep
motif composition twice parses and compiles each library exactly once)."""

import pytest

from repro.core.api import as_application
from repro.core.motif import (
    APPLY_CACHE_SIZE,
    MOTIF_STATS,
    library_from_source,
    reset_motif_stats,
)
from repro.apps.arithmetic import EVAL_SOURCE
from repro.motifs.tree_reduce1 import tree_reduce_1
from repro.strand.compile import COMPILE_STATS, compile_program, reset_compile_stats


@pytest.fixture()
def stack():
    # Server ∘ Rand ∘ Tree1 — a 3-deep composition (no termination stage).
    return tree_reduce_1(termination=False)


class TestThreeDeepComposition:
    def test_second_apply_is_a_pure_cache_hit(self, stack):
        application, _ = as_application(EVAL_SOURCE)
        first = stack.apply(application)
        parses = MOTIF_STATS["library_parses"]
        hits_before = MOTIF_STATS["apply_hits"]
        second = stack.apply(application)
        # Same transformed+linked program object; no re-parse, no re-link.
        assert second.program is first.program
        assert MOTIF_STATS["library_parses"] == parses
        assert MOTIF_STATS["apply_hits"] == hits_before + 1
        assert second.services == first.services
        assert second.user_names == first.user_names

    def test_each_library_compiles_exactly_once(self, stack):
        reset_compile_stats()
        application, _ = as_application(EVAL_SOURCE)
        first = stack.apply(application)
        compiled = compile_program(first.program)
        programs_after_first = COMPILE_STATS["programs"]
        second = stack.apply(application)
        assert compile_program(second.program) is compiled
        assert COMPILE_STATS["programs"] == programs_after_first
        assert COMPILE_STATS["hits"] >= 1

    def test_rebuilding_the_stack_reuses_parsed_libraries(self):
        tree_reduce_1(termination=False)
        parses = MOTIF_STATS["library_parses"]
        hits = MOTIF_STATS["library_hits"]
        tree_reduce_1(termination=False)
        # The second stack construction parses nothing new: every library
        # source is served from the (name, source)-keyed parse cache.
        assert MOTIF_STATS["library_parses"] == parses
        assert MOTIF_STATS["library_hits"] > hits

    def test_forked_results_are_mutation_isolated(self, stack):
        application, _ = as_application(EVAL_SOURCE)
        first = stack.apply(application)
        first.foreign_setup.append(lambda registry: None)
        first.user_names.add("injected")
        second = stack.apply(application)
        assert all(setup is not None for setup in second.foreign_setup)
        assert not any(
            getattr(s, "__name__", "") == "<lambda>" for s in second.foreign_setup
        )
        assert "injected" not in second.user_names

    def test_application_mutation_invalidates(self, stack):
        from repro.strand.parser import parse_program

        application = parse_program(EVAL_SOURCE, name="mutable-app")
        first = stack.apply(application)
        extra = parse_program("extra_proc.").procedure("extra_proc", 0)
        application.add_procedure(extra)
        second = stack.apply(application)
        assert second.program is not first.program
        assert ("extra_proc", 0) in second.program


class TestLibraryParseCache:
    def test_identical_source_shares_program(self):
        source = "lib_only_proc(X, Y) :- Y := X."
        first = library_from_source(source, name="cache-probe")
        hits = MOTIF_STATS["library_hits"]
        second = library_from_source(source, name="cache-probe")
        assert second is first
        assert MOTIF_STATS["library_hits"] == hits + 1

    def test_distinct_names_do_not_collide(self):
        source = "lib_only_proc2(X, Y) :- Y := X."
        first = library_from_source(source, name="probe-a")
        second = library_from_source(source, name="probe-b")
        assert first is not second

    def test_reset_stats_roundtrip(self):
        reset_motif_stats()
        assert all(value == 0 for value in MOTIF_STATS.values())


class TestBoundedApiCaches:
    """The ``core.api`` stack cache and application factory are lru-bounded; repeated
    high-level calls must still be pure cache hits (regression for the
    unbounded ``maxsize=None`` caches)."""

    def test_stack_caches_are_bounded(self):
        from repro.core import api

        assert api._stack.cache_info().maxsize == api._STACK_CACHE_SIZE
        assert (
            api._empty_application.cache_info().maxsize
            == api._APPLICATION_CACHE_SIZE
        )

    def test_repeated_reduce_tree_hits_the_caches(self):
        from repro.core import api
        from repro.apps.arithmetic import eval_arith_node, paper_example_tree

        tree = paper_example_tree()
        api.reduce_tree(tree, eval_arith_node, processors=2, strategy="tr1")
        stack_hits = api._stack.cache_info().hits
        app_hits = api._empty_application.cache_info().hits
        apply_hits = MOTIF_STATS["apply_hits"]
        parses = MOTIF_STATS["library_parses"]
        api.reduce_tree(tree, eval_arith_node, processors=2, strategy="tr1")
        assert api._stack.cache_info().hits == stack_hits + 1
        assert api._empty_application.cache_info().hits == app_hits + 1
        assert MOTIF_STATS["apply_hits"] == apply_hits + 1
        assert MOTIF_STATS["library_parses"] == parses

    def test_repeated_supervised_reduce_hits_the_caches(self):
        from repro.core import api
        from repro.apps.arithmetic import eval_arith_node, paper_example_tree

        tree = paper_example_tree()
        api.supervised_reduce_tree(tree, eval_arith_node, processors=2)
        stack_hits = api._stack.cache_info().hits
        apply_hits = MOTIF_STATS["apply_hits"]
        api.supervised_reduce_tree(tree, eval_arith_node, processors=2)
        assert api._stack.cache_info().hits == stack_hits + 1
        assert MOTIF_STATS["apply_hits"] == apply_hits + 1

    def test_repeated_reliable_reduce_hits_the_caches(self):
        from repro.core import api
        from repro.apps.arithmetic import eval_arith_node, paper_example_tree

        tree = paper_example_tree()
        api.reliable_reduce_tree(tree, eval_arith_node, processors=2)
        stack_hits = api._stack.cache_info().hits
        apply_hits = MOTIF_STATS["apply_hits"]
        api.reliable_reduce_tree(tree, eval_arith_node, processors=2)
        assert api._stack.cache_info().hits == stack_hits + 1
        assert MOTIF_STATS["apply_hits"] == apply_hits + 1


class TestBoundedApplicationMemo:
    def test_fresh_programs_do_not_grow_the_memo_past_its_bound(self):
        from repro.strand.parser import parse_program

        stack = tree_reduce_1()
        for i in range(APPLY_CACHE_SIZE + 44):
            stack.apply(parse_program(EVAL_SOURCE, name=f"fresh-{i}"))
        for motif in [stack, *stack.stages()]:
            assert len(motif._apply_cache) <= APPLY_CACHE_SIZE

    def test_recently_used_input_survives_eviction(self):
        from repro.strand.parser import parse_program

        stack = tree_reduce_1()
        kept = parse_program(EVAL_SOURCE, name="kept")
        first = stack.apply(kept)
        for i in range(APPLY_CACHE_SIZE + 10):
            stack.apply(parse_program(EVAL_SOURCE, name=f"filler-{i}"))
            if i % 64 == 0:
                stack.apply(kept)  # a hit moves it to the recent end
        hits = MOTIF_STATS["apply_hits"]
        assert stack.apply(kept).program is first.program
        assert MOTIF_STATS["apply_hits"] == hits + 1
