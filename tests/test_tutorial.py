"""The docs/TUTORIAL.md walkthrough, executed (docs that lie are worse
than no docs)."""

from repro.core.api import run_applied
from repro.core.motif import Motif
from repro.machine import Machine
from repro.motifs import rand_motif, server_motif
from repro.strand import ForeignRegistry, lint_program, parse_program
from repro.strand.terms import Struct, Var, deref

RETRY_LIBRARY = """
retry(X, Out) :- retry_loop(X, 1, Out).

retry_loop(X, K, Out) :-
    op(X, R),
    check(R, X, K, Out).

check(R, _, _, Out) :- R == "ok" | Out := done.
check(R, X, K, Out) :- R \\== "ok" |
    K1 := K + 1,
    retry_loop(X, K1, Out).
"""

RETRY_DISTRIBUTED = RETRY_LIBRARY.replace(
    "    retry_loop(X, K1, Out).",
    "    retry_loop(X, K1, Out) @ random.",
)


def flaky_registry(succeed_after: int):
    attempts = []

    def op(x):
        attempts.append(x)
        return "ok" if len(attempts) >= succeed_after else "nope"

    registry = ForeignRegistry()
    registry.register("op", 2, op)
    return registry, attempts


class TestTutorialSteps:
    def test_step_2_library_lints_clean(self):
        warnings = lint_program(parse_program(RETRY_LIBRARY),
                                foreign=[("op", 2)])
        assert warnings == []

    def test_step_3_retry_until_success(self):
        registry, attempts = flaky_registry(3)
        retry = Motif("retry", library=RETRY_LIBRARY)
        applied = retry.apply(parse_program("", name="my-app"))
        out = Var("Out")
        run_applied(applied, Struct("retry", (1, out)), Machine(1),
                    foreign=registry)
        assert str(deref(out)) == "done"
        assert len(attempts) == 3

    def test_step_4_distributed_composition(self):
        registry, attempts = flaky_registry(4)
        retry = Motif("retry", library=RETRY_DISTRIBUTED)
        stack = (
            server_motif()
            @ rand_motif(extra_entries=(("retry", 2),))
            @ retry
        )
        applied = stack.apply(parse_program("", name="my-app"))
        out = Var("Out")
        goal = Struct("create", (3, Struct("retry", (1, out))))
        run_applied(applied, goal, Machine(3, seed=5), foreign=registry)
        assert str(deref(out)) == "done"
        assert len(attempts) == 4

    def test_step_4_stages_are_printable(self):
        retry = Motif("retry", library=RETRY_DISTRIBUTED)
        stack = (
            server_motif()
            @ rand_motif(extra_entries=(("retry", 2),))
            @ retry
        )
        stages = stack.apply_staged(parse_program("", name="a"))
        assert len(stages) == 3
        for stage in stages:
            text = stage.program.pretty()
            assert text.strip()
            parse_program(text)  # every stage is a readable, parseable program
