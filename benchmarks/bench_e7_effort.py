"""E7 — incremental effort of parallelization (paper §3.6).

Reproduces: "The first [tree reduction motif] is implemented with five
lines of code, and the second with a page of library code and a simple
transformation ...  In contrast, the node evaluation code for the sequence
alignment application currently exceeds 2000 lines of Strand and C.
Hence, the use of motifs permits a parallel version of our code to be
developed with only a small incremental effort."

Measured: rules/goals/source-lines of (a) what the user writes, (b) what
each motif stage contributes (library + generated code), for the
arithmetic and the alignment applications; and the user-share ratio.
"""

from repro.analysis import Table, diff_generated, measure
from repro.apps.arithmetic import EVAL_SOURCE
from repro.motifs.tree_reduce1 import tree_reduce_1
from repro.motifs.tree_reduce2 import tree_reduce_2
from repro.strand.parser import parse_program
from repro.strand.program import Program


def staged_sizes(motif, application):
    rows = []
    previous = application
    for stage, applied in zip(motif.stages(), motif.apply_staged(application)):
        delta = diff_generated(previous, applied.program)
        rows.append((stage.name, delta))
        previous = applied.program
    return rows


def test_e7_incremental_effort(emit, benchmark):
    # The "user code": for arithmetic, four Strand rules; the paper's real
    # align-node was >2000 lines of Strand+C (here a Python foreign module,
    # measured in Python source lines of repro.apps.bio).
    user_arith = parse_program(EVAL_SOURCE, name="user-eval")
    user_size = measure(user_arith)

    import inspect

    import repro.apps.bio as bio

    bio_lines = len([
        ln for ln in inspect.getsource(bio).splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ])

    table = Table(
        "E7  code contributed at each Tree-Reduce-1 stage (arithmetic app)",
        ["stage", "procedures added/changed", "rules", "goals", "lines"],
    )
    table.add("user eval (input)", user_size.procedures, user_size.rules,
              user_size.goals, user_size.lines)
    total_generated = 0
    for name, delta in staged_sizes(tree_reduce_1(), user_arith):
        table.add(name, delta.procedures, delta.rules, delta.goals, delta.lines)
        total_generated += delta.lines
    table.note(f"user writes {user_size.lines} lines; motifs supply/generate "
               f"{total_generated} — all reusable across applications")
    emit(table)

    table2 = Table(
        "E7  incremental effort for the alignment application",
        ["component", "lines", "share"],
    )
    tr1_total = sum(d.lines for _, d in staged_sizes(tree_reduce_1(), user_arith))
    tr2_total = sum(
        d.lines for _, d in staged_sizes(tree_reduce_2(), Program(name="empty"))
    )
    grand = bio_lines + tr1_total
    table2.add("align-node + bio pipeline (user, Python)", bio_lines,
               f"{bio_lines / grand:.0%}")
    table2.add("Tree-Reduce-1 stack (motifs, Strand)", tr1_total,
               f"{tr1_total / grand:.0%}")
    table2.add("Tree-Reduce-2 stack (motifs, Strand)", tr2_total, "-")
    table2.note('paper: node evaluation "exceeds 2000 lines" vs a five-line '
                "motif — parallelism is a small fraction of total effort")
    emit(table2)

    # Shape: the user's parallel-programming effort (zero extra lines for
    # TR-1: the motif is applied, not written) is small next to the
    # application code.
    assert user_size.rules <= 5
    assert bio_lines > 3 * tr1_total  # the application dominates motif glue

    application = parse_program(EVAL_SOURCE, name="user-eval")
    benchmark(lambda: tree_reduce_1().apply(application))
