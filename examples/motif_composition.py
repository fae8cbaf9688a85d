#!/usr/bin/env python
"""Motif composition, stage by stage — the paper's Figures 5 and 6.

Tree-Reduce-1 = Server ∘ Rand ∘ Tree1.  This example applies the stack one
motif at a time to a user program consisting of *nothing but* a node
evaluation function, and prints the program after every stage — the exact
progression Figure 5 shows:

1. after **Tree1**: the four-line divide-and-conquer reduce with the
   ``@ random`` pragma;
2. after **Rand**: the pragma expanded to ``nodes/rand_num/send`` and the
   synthesized ``server/1`` dispatcher;
3. after **Server**: the ``DT`` argument threaded everywhere, the
   operations rewritten to ``length``/``distribute``/``broadcast``, and the
   server-network library linked in.

Because the output of each motif is *itself a program*, each stage is
readable, printable, and runnable — the property the paper's whole
composition story rests on.

Run:  python examples/motif_composition.py
"""

from repro.analysis import banner, measure
from repro.motifs.random_map import rand_motif
from repro.motifs.server import server_motif
from repro.motifs.tree_reduce1 import tree1_motif
from repro.strand.parser import parse_program

USER_PROGRAM = """
% The entire user contribution: a node evaluation function.
eval(add, L, R, Value) :- Value := L + R.
eval(mul, L, R, Value) :- Value := L * R.
"""


def main() -> None:
    application = parse_program(USER_PROGRAM, name="arithmetic-eval")
    motif = server_motif() @ rand_motif() @ tree1_motif()

    print(f"Composition: Tree-Reduce-1 = {motif.name}")
    print(f"User program: {measure(application).rules} rules\n")

    stages = motif.apply_staged(application)
    for stage_motif, applied in zip(motif.stages(), stages):
        size = measure(applied.program)
        banner(
            f"after {stage_motif.name}: "
            f"{size.rules} rules, {size.goals} goals, {size.lines} lines"
        )
        print(applied.program.pretty())

    # And the final stage is executable:
    from repro.apps.arithmetic import paper_example_tree
    from repro.apps.trees import tree_term
    from repro.core.api import run_applied
    from repro.machine import Machine
    from repro.strand.terms import Struct, Var, deref

    value = Var("Value")
    goal = Struct("create", (4, Struct("reduce", (tree_term(paper_example_tree()),
                                                  value))))
    run_applied(stages[-1], goal, Machine(4, seed=1))
    banner(f"running the composed program: Value = {deref(value)}")


if __name__ == "__main__":
    main()
