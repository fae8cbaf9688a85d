"""Goal dispatch and accounting: the per-engine link table.

Every goal is linked once per indicator and engine (``Reducer.link``) to
a dispatch target, in fixed precedence — builtin, raw foreign, foreign,
user procedure — and every spawn classifies its process (library or user
cost, motif tag) by the same record (``StrandEngine.spawn``).
"""

from pathlib import Path

import pytest

from repro.errors import StrandError, UnknownProcedureError
from repro.machine import Machine
from repro.strand import (
    ForeignRegistry, StrandEngine, Struct, Var, parse_program, run_query,
)
from repro.strand.reducer import FOREIGN, PRIMITIVE, UNKNOWN, USER, Reducer
from repro.strand.terms import deref

SIEVE = Path(__file__).resolve().parents[2] / "examples" / "strand" / "sieve.str"


def run(source, query, *, processors=1, tag=None, trace=False, **options):
    """Run ``query``; ``tag`` maps an indicator to the motif tag stamped on
    all of its rules."""
    program = parse_program(source)
    for indicator, motif in (tag or {}).items():
        for rule in program.procedure(*indicator).rules:
            rule.motif = motif
    return run_query(program, query, Machine(processors, trace=trace),
                     **options)


def costs(result):
    """``(library_cost, user_cost)`` of a query result's or engine's machine."""
    metrics = getattr(result, "engine", result).machine.metrics()
    return metrics.library_cost, metrics.user_cost


def reduce_motifs(result, functor):
    return [e.motif for e in result.engine.machine.trace.of_kind("reduce")
            if e.detail == functor]


class TestPrecedence:
    def test_builtin_beats_a_user_procedure_of_the_same_name(self):
        result = run("length(_, N) :- N := 99.\ngo(N) :- length([a, b], N).",
                     "go(N)")
        assert result["N"] == 2

    def test_builtin_beats_a_raw_foreign_procedure(self):
        def raw(engine, process, args, now):
            engine.bind(args[1], 77, process.proc, now)
            return 1.0

        foreign = ForeignRegistry()
        foreign.register("length", 2, raw, raw=True)
        result = run("go(N) :- length([a, b], N).", "go(N)", foreign=foreign)
        assert result["N"] == 2

    def test_raw_foreign_beats_a_user_procedure(self):
        def raw(engine, process, args, now):
            engine.bind(args[0], 77, process.proc, now)
            return 1.0

        foreign = ForeignRegistry()
        foreign.register("f", 1, raw, raw=True)
        result = run("f(V) :- V := 0.", "f(V)", foreign=foreign)
        assert result["V"] == 77

    def test_foreign_beats_a_user_procedure(self):
        foreign = ForeignRegistry()
        foreign.register("f", 2, lambda x: x + 100)
        result = run("f(_, V) :- V := 0.\ngo(V) :- f(1, V).", "go(V)",
                     foreign=foreign)
        assert result["V"] == 101


class TestUnknownProcedure:
    SOURCE = "go :- write(a), write(b), nosuch(1)."

    def test_raises_at_reduction_after_its_siblings(self):
        program = parse_program(self.SOURCE)
        engine = StrandEngine(program, Machine(1))
        engine.spawn(Struct("go", ()))
        with pytest.raises(UnknownProcedureError) as info:
            engine.run()
        assert str(info.value) == (
            "no procedure, builtin, or foreign function nosuch/1 "
            "(goal: p1: nosuch(1))"
        )
        assert engine.output == ["a", "b"]

    def test_spawning_an_unknown_goal_does_not_raise(self):
        engine = StrandEngine(parse_program(self.SOURCE), Machine(1))
        process = engine.spawn(Struct("nosuch", (1,)))
        assert process.target[0] == UNKNOWN
        with pytest.raises(UnknownProcedureError):
            engine.run()


class TestDynamicGoals:
    SOURCE = """
    p(G) :- G.
    r(G) :- call(G).
    q(V) :- V := 7.
    """

    def test_variable_body_goal_bound_before_commit(self):
        assert run(self.SOURCE, "p(q(V))")["V"] == 7

    def test_variable_body_goal_bound_to_an_atom(self):
        result = run(self.SOURCE + "ping :- write(pong).", "p(ping)")
        assert result.output == ["pong"]

    def test_call(self):
        assert run(self.SOURCE, "r(q(V))")["V"] == 7

    def test_variable_body_goal_bound_to_a_number_is_not_callable(self):
        with pytest.raises(StrandError, match="body goal 3 of p1: p\\(3\\) "
                                              "is not callable"):
            run(self.SOURCE, "p(3)")


class TestAccountingRules:
    """The three ``lib``/motif rules of ``StrandEngine.spawn``, pinned by
    the machine's library/user cost split and the trace's motif tags."""

    def test_body_primitive_inherits_the_rule_and_other_goals_are_classified(self):
        source = "lgo(V) :- V := 1, u.\nu.\nugo(V) :- V := 1, lu.\nlu."
        library = [("lgo", 1), ("lu", 0)]
        tag = {("lgo", 1): "L", ("u", 0): "U", ("ugo", 1): "G"}
        # lgo and its := are library; u is user.
        lgo = run(source, "lgo(V)", library=library, tag=tag, trace=True)
        assert costs(lgo) == (2.0, 1.0)
        assert reduce_motifs(lgo, ":=") == ["L"]
        assert reduce_motifs(lgo, "u") == ["U"]
        # ugo and its := are user; lu is library.
        ugo = run(source, "ugo(V)", library=library, tag=tag, trace=True)
        assert costs(ugo) == (1.0, 2.0)
        assert reduce_motifs(ugo, ":=") == ["G"]

    @pytest.mark.parametrize("backend", ["sequential", "parallel"])
    def test_arrival_primitive_inherits_the_sender_lib_flag(self, backend):
        source = "lgo(V) :- (V := 1) @ 2, u @ 2.\nu.\n" \
                 "ugo(V) :- (V := 1) @ 2, lu @ 2.\nlu."
        library = [("lgo", 1), ("lu", 0)]
        machine = {"backend": backend}
        if backend == "parallel":
            machine["workers"] = 2
        results = {}
        for goal in ("lgo", "ugo"):
            program = parse_program(source)
            engine = StrandEngine(program, Machine(2, **machine),
                                  library=library)
            engine.spawn(Struct(goal, (Var("V"),)))
            metrics = engine.run()
            results[goal] = (metrics.library_cost, metrics.user_cost)
        # lgo, both @ and the arriving := are library; u is user.
        assert results["lgo"] == (4.0, 1.0)
        # ugo, both @ and the arriving := are user; lu is library.
        assert results["ugo"] == (1.0, 4.0)

    def test_arrival_primitive_looks_its_motif_up(self):
        source = "lgo(V) :- (V := 1) @ 2, u @ 2.\nu."
        result = run(source, "lgo(V)", processors=2, library=[("lgo", 1)],
                     tag={("lgo", 1): "L", ("u", 0): "U"}, trace=True)
        assert reduce_motifs(result, "@") == ["L", "L"]
        assert reduce_motifs(result, ":=") == [""]
        assert reduce_motifs(result, "u") == ["U"]

    def test_call_passes_the_caller_lib_flag_and_looks_provenance_up(self):
        source = "lc :- call(u).\nlb :- u.\nu."
        tag = {("lc", 0): "L", ("u", 0): "U"}
        called = run(source, "lc", library=[("lc", 0), ("lb", 0)], tag=tag,
                     trace=True)
        # lc, call/1 and u all count as library: u inherits the caller's
        # flag although it is not a library procedure.
        assert costs(called) == (3.0, 0.0)
        assert reduce_motifs(called, "call") == ["L"]
        assert reduce_motifs(called, "u") == ["U"]
        # Spawned as a body goal instead, u is user cost.
        body = run(source, "lb", library=[("lc", 0), ("lb", 0)])
        assert costs(body) == (1.0, 1.0)


class TestLinkTable:
    SOURCE = "go(V) :- f(1, V).\nf(_, V) :- V := 0."

    def test_engines_on_one_program_link_by_their_own_tables(self):
        program = parse_program(self.SOURCE)
        foreign = ForeignRegistry()
        foreign.register("f", 2, lambda x: x + 100)
        with_foreign = StrandEngine(program, Machine(1), foreign,
                                    library=[("go", 1)], watched=[("f", 2)])
        plain = StrandEngine(program, Machine(1))
        assert with_foreign.compiled is plain.compiled
        answers = {}
        for name, engine in (("plain", plain), ("foreign", with_foreign)):
            out = Var("V")
            engine.spawn(Struct("go", (out,)))
            engine.run()
            answers[name] = (deref(out), costs(engine))
        # plain: go, f and := are user cost; with_foreign: go is library,
        # the foreign f costs 1 and binds V directly.
        assert answers == {"plain": (0, (0.0, 3.0)),
                           "foreign": (101, (1.0, 1.0))}
        assert with_foreign.reducer.links["f", 2][0] == FOREIGN
        assert plain.reducer.links["f", 2][0] == USER
        # Only with_foreign watches f/2.
        assert with_foreign.machine.procs[0].tasks_started == 1
        assert plain.machine.procs[0].tasks_started == 0

    def test_sieve_links_each_indicator_once_per_engine(self, monkeypatch):
        linked = []
        original = Reducer.link

        def counting(self, indicator):
            linked.append((id(self), indicator))
            return original(self, indicator)

        monkeypatch.setattr(Reducer, "link", counting)
        program = parse_program(SIEVE.read_text())
        engines = [StrandEngine(program, Machine(1)) for _ in range(2)]
        for engine in engines:
            assert len(engine.reducer.links) == 0  # linking is lazy
            engine.spawn(Struct("primes", (200, Var("Ps"))))
            metrics = engine.run()
            assert metrics.reductions > 1000
        assert len(linked) == len(set(linked))
        for engine in engines:
            mine = {ind for owner, ind in linked
                    if owner == id(engine.reducer)}
            assert mine == set(engine.reducer.links)
            assert ("primes", 2) in mine and (":=", 2) in mine
            assert engine.reducer.links[":=", 2][0] == PRIMITIVE
