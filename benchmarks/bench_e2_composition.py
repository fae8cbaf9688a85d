"""E2 — composition correctness (paper Figures 2, 5, 6; §3.1–3.4).

Reproduces: the four-line annotated program pushed through
Tree1 → Rand → Server equals (a) the hand-written Figure-2-style program
and (b) the sequential fold, on random expression trees; and the staged
outputs have the Figure-5 structure.  Also benchmarks motif application
(the "automatically applied transformations can speed the parallel program
development process" claim — compilation is milliseconds).
"""

from repro.analysis import Table, measure
from repro.apps.arithmetic import EVAL_SOURCE, arithmetic_tree, eval_arith_node
from repro.apps.trees import sequential_reduce, tree_term
from repro.core.api import run_applied
from repro.machine import Machine
from repro.motifs.random_map import rand_motif
from repro.motifs.server import server_motif
from repro.motifs.tree_reduce1 import tree1_motif
from repro.strand.parser import parse_program
from repro.strand.terms import Struct, Var, deref

# Hand-written analogue of Figure 2 (parts A-D collapsed onto the port
# library's create): what a programmer would write *without* motifs.
HAND_WRITTEN = """
eval(add, L, R, Value) :- Value := L + R.
eval(mul, L, R, Value) :- Value := L * R.

reduce(tree(V, L, R), Value, DT) :-
    length(DT, N),
    rand_num(N, O),
    distribute(O, reduce(R, RV), DT),
    reduce(L, LV, DT),
    eval(V, LV, RV, Value).
reduce(leaf(X), Value, _) :- Value := X.

server([reduce(T, V) | In], DT) :- reduce(T, V, DT), server(In, DT).
server([halt | _], _).
server([], _).

create(N, Msg) :-
    make_tuple(N, DT),
    spawn_servers(N, DT),
    distribute(1, Msg, DT).
spawn_servers(N, DT) :- N > 0 |
    server_init(N, DT) @ N,
    N1 := N - 1,
    spawn_servers(N1, DT).
spawn_servers(0, _).
server_init(N, DT) :-
    open_port(Port, Stream),
    put_arg(N, DT, Port),
    server(Stream, DT).
"""


def run_hand_written(tree, processors, seed):
    program = parse_program(HAND_WRITTEN, name="figure2")
    from repro.strand.engine import StrandEngine

    machine = Machine(processors, seed=seed)
    engine = StrandEngine(program, machine=machine, services={("server", 2)})
    value = Var("Value")
    engine.spawn(Struct("create", (processors,
                                   Struct("reduce", (tree_term(tree), value)))))
    metrics = engine.run()
    return deref(value), metrics


def run_composed(tree, processors, seed):
    motif = server_motif() @ rand_motif() @ tree1_motif()
    applied = motif.apply(parse_program(EVAL_SOURCE, name="eval"))
    machine = Machine(processors, seed=seed)
    value = Var("Value")
    goal = Struct("create", (processors,
                             Struct("reduce", (tree_term(tree), value))))
    run_applied(applied, goal, machine)
    return deref(value)


def test_e2_composition_equivalence(emit, benchmark):
    table = Table(
        "E2  composed Tree-Reduce-1 vs hand-written Figure 2 vs sequential fold",
        ["leaves", "P", "sequential", "hand-written", "composed", "agree"],
    )
    for leaves, processors, seed in [(8, 2, 1), (16, 4, 2), (32, 4, 3),
                                     (64, 8, 4), (128, 8, 5)]:
        tree = arithmetic_tree(leaves, seed=seed)
        expected = sequential_reduce(tree, eval_arith_node)
        hand, _ = run_hand_written(tree, processors, seed)
        composed = run_composed(tree, processors, seed)
        table.add(leaves, processors, expected, hand, composed,
                  expected == hand == composed)
        assert expected == hand == composed
    table.note("the 4-line program + motifs ≡ the page of hand-written code "
               "(paper: 'he would only need to provide the four-line program')")
    emit(table)

    # Figure-5 staged structure.
    motif = server_motif() @ rand_motif() @ tree1_motif()
    stages = motif.apply_staged(parse_program(EVAL_SOURCE, name="eval"))
    stage_table = Table(
        "E2  Figure-5 staging (program size after each motif)",
        ["stage", "procedures", "rules", "goals", "lines"],
    )
    for m, applied in zip(motif.stages(), stages):
        size = measure(applied.program)
        stage_table.add(m.name, size.procedures, size.rules, size.goals,
                        size.lines)
    assert ("reduce", 2) in stages[0].program
    assert ("server", 1) in stages[1].program
    assert ("reduce", 3) in stages[2].program and ("server", 2) in stages[2].program
    emit(stage_table)

    # Benchmark: motif application (source-to-source compile) time.
    application = parse_program(EVAL_SOURCE, name="eval")
    benchmark(lambda: motif.apply(application))
