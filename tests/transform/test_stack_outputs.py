"""Golden transformation output of the shipped motif stacks.

Every stage of each stack's ``apply_staged`` is rendered rule by rule: the
rule's provenance tag in brackets, then its text.  A refactoring of the
transformations must leave ``stack_outputs.txt`` byte-identical.  For an
intended change, regenerate it with

    PYTHONPATH=src python tests/transform/test_stack_outputs.py

and review the diff.
"""

from pathlib import Path

from repro.apps.arithmetic import EVAL_SOURCE
from repro.apps.taskbag import TASKBAG_SOURCE
from repro.core.motif import ComposedMotif
from repro.motifs.bnb import bnb_stack
from repro.motifs.dnc import dnc_stack
from repro.motifs.farm import farm_stack
from repro.motifs.random_map import random_motif
from repro.motifs.reliable import reliable_tree_reduce
from repro.motifs.scheduler import scheduled_application
from repro.motifs.search import collect_search_stack, search_stack
from repro.motifs.sort import sort_stack
from repro.motifs.supervisor import supervised_tree_reduce
from repro.motifs.tree_reduce1 import (
    sequential_tree_motif,
    static_tree_motif,
    tree_reduce_1,
)
from repro.motifs.tree_reduce2 import tree_reduce_2
from repro.strand.parser import parse_program
from repro.strand.pretty import format_rule

GOLDEN = Path(__file__).with_name("stack_outputs.txt")

RANDOM_APP = """
reduce(tree(V, L, R), Value) :-
    reduce(R, RV) @ random,
    reduce(L, LV),
    eval(V, LV, RV, Value).
reduce(leaf(X), Value) :- Value := X.
""" + EVAL_SOURCE


def _scheduled(hierarchical: bool) -> ComposedMotif:
    return scheduled_application(
        entry=("main", 2), hierarchical=hierarchical,
        outputs={("work", 2): 1}, sync_outputs={("work", 2): 1},
    )


#: ``name -> (stack factory, application source)``.  The extension stacks
#: run applications whose user procedures are all foreign, so their
#: application source is empty.
STACKS = {
    "tr1": (tree_reduce_1, EVAL_SOURCE),
    "tr1-no-termination": (lambda: tree_reduce_1(termination=False), EVAL_SOURCE),
    "tr1-merge": (lambda: tree_reduce_1(server_library="merge"), EVAL_SOURCE),
    "tr2": (tree_reduce_2, EVAL_SOURCE),
    "static": (lambda: ComposedMotif([static_tree_motif()]), EVAL_SOURCE),
    "sequential": (lambda: ComposedMotif([sequential_tree_motif()]), EVAL_SOURCE),
    "reliable": (reliable_tree_reduce, EVAL_SOURCE),
    "reliable-supervise": (lambda: reliable_tree_reduce(supervise=True), EVAL_SOURCE),
    "supervised": (supervised_tree_reduce, EVAL_SOURCE),
    "scheduled-flat": (lambda: _scheduled(False), TASKBAG_SOURCE),
    "scheduled-hier": (lambda: _scheduled(True), TASKBAG_SOURCE),
    "random": (random_motif, RANDOM_APP),
    "farm": (farm_stack, ""),
    "dnc": (dnc_stack, ""),
    "search": (search_stack, ""),
    "collect-search": (collect_search_stack, ""),
    "sort": (sort_stack, ""),
    "bnb": (bnb_stack, ""),
}


def render_stack(name: str) -> str:
    factory, source = STACKS[name]
    stack = factory()
    stages = stack.apply_staged(parse_program(source, name="application"))
    lines: list[str] = []
    for motif, applied in zip(stack.stages(), stages):
        lines.append(f"== {name} / {motif.name}")
        for rule in applied.program.rules():
            lines.append(f"[{rule.motif}] {format_rule(rule)}")
    return "\n".join(lines) + "\n"


def render_all() -> str:
    return "".join(render_stack(name) for name in STACKS)


def test_every_stage_matches_the_golden_output():
    assert render_all() == GOLDEN.read_text()


def test_pass_through_rules_keep_their_provenance():
    # Supervise-library rules pass unchanged through Rand; they must stay
    # attributed to the Supervise layer rather than to the user.
    stack = supervised_tree_reduce()
    stages = stack.apply_staged(parse_program(EVAL_SOURCE, name="application"))
    rand_stage = stages[2].program
    assert {r.motif for r in rand_stage.procedure("sup_relay", 2).rules} == {
        "supervise"
    }
    assert {r.motif for r in rand_stage.procedure("eval", 4).rules} == {None}


if __name__ == "__main__":
    GOLDEN.write_text(render_all())
