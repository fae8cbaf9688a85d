"""Grain motif tests: the depth bound on ``@ random`` recursion is one
transformation, not a hand-written local twin in each library."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.arithmetic import EVAL_SOURCE, arithmetic_tree, eval_arith_node
from repro.apps.trees import sequential_reduce, tree_term
from repro.core.api import run_applied
from repro.core.motif import Motif
from repro.core.registry import get_motif
from repro.errors import TransformError
from repro.machine import Machine
from repro.motifs.grain import Grain, grain_motif
from repro.motifs.random_map import random_stack
from repro.motifs.search import COLLECT_LIBRARY, SEARCH_LIBRARY
from repro.motifs.tree_reduce1 import tree1_motif
from repro.strand.parser import parse_program
from repro.strand.program import Program, rule_key
from repro.strand.terms import Struct, Var, deref

#: The search library as it was written by hand, depth bound and local twins
#: included: the reference Grain's output must equal rule for rule.
HAND_SEARCH = """
explore(Node, C, D) :- D > 0 |
    expand(Node, Kids),
    sol(Node, S),
    D1 := D - 1,
    explore_list(Kids, C1, D1),
    C := S + C1.
explore(Node, C, 0) :- lexplore(Node, C).

explore_list([K | Ks], C, D) :-
    explore(K, C1, D) @ random,
    explore_list(Ks, C2, D),
    C := C1 + C2.
explore_list([], C, _) :- C := 0.

lexplore(Node, C) :-
    expand(Node, Kids),
    sol(Node, S),
    lexplore_list(Kids, C1),
    C := S + C1.
lexplore_list([K | Ks], C) :-
    lexplore(K, C1),
    lexplore_list(Ks, C2),
    C := C1 + C2.
lexplore_list([], C) :- C := 0.
"""

#: The collect-search library as it was written by hand.
HAND_COLLECT = """
explore_all(Node, Sols, Tail, D) :- D > 0 |
    expand(Node, Kids),
    sol(Node, S),
    emit_sol(S, Node, Sols, Sols1),
    D1 := D - 1,
    explore_all_list(Kids, Sols1, Tail, D1).
explore_all(Node, Sols, Tail, 0) :- lexplore_all(Node, Sols, Tail).

explore_all_list([K | Ks], Sols, Tail, D) :-
    explore_all(K, Sols, Mid, D) @ random,
    explore_all_list(Ks, Mid, Tail, D).
explore_all_list([], Sols, Tail, _) :- Sols := Tail.

lexplore_all(Node, Sols, Tail) :-
    expand(Node, Kids),
    sol(Node, S),
    emit_sol(S, Node, Sols, Sols1),
    lexplore_all_list(Kids, Sols1, Tail).
lexplore_all_list([K | Ks], Sols, Tail) :-
    lexplore_all(K, Sols, Mid),
    lexplore_all_list(Ks, Mid, Tail).
lexplore_all_list([], Sols, Tail) :- Sols := Tail.

emit_sol(1, Node, Sols, Rest) :- Sols := [Node | Rest].
emit_sol(0, _, Sols, Rest) :- Sols := Rest.
"""


def grained(name, library):
    motif = grain_motif() @ Motif(name=name, library=library)
    return motif.apply(Program(name="application")).program


def keys(program):
    return Counter(rule_key(rule) for rule in program.rules())


class TestRefusals:
    def test_refuses_a_program_without_random_goals(self):
        program = parse_program("p(X) :- q(X).\nq(X) :- X := 1.")
        with pytest.raises(TransformError, match="no '@ random' goal"):
            Grain().apply(program)

    def test_refuses_a_program_that_defines_a_twin(self):
        program = parse_program(SEARCH_LIBRARY + "lexplore(Node, C) :- C := 0.\n")
        with pytest.raises(TransformError, match="lexplore/2"):
            Grain().apply(program)


class TestHandWrittenEquivalence:
    @pytest.mark.parametrize("name, library, hand", [
        ("search", SEARCH_LIBRARY, HAND_SEARCH),
        ("collect-search", COLLECT_LIBRARY, HAND_COLLECT),
    ], ids=["search", "collect-search"])
    def test_output_equals_the_hand_written_library(self, name, library, hand):
        assert keys(grained(name, library)) == keys(parse_program(hand))

    def test_registered_motifs_take_the_depth_argument(self):
        dnc = get_motif("dnc").apply(Program(name="application")).program
        search = get_motif("search").apply(Program(name="application")).program
        assert ("dnc", 3) in dnc and ("ldnc", 2) in dnc and ("dnc", 2) not in dnc
        assert ("explore", 3) in search and ("lexplore", 2) in search


class TestTree1:
    """Grain works on the paper's Tree1 library unchanged."""

    STACK = random_stack(grain_motif() @ tree1_motif(), ("reduce", 3), {("eval", 4): 3},
                         termination=True, server_library="ports")
    APPLICATION = parse_program(EVAL_SOURCE, name="application")

    @given(st.integers(1, 24), st.integers(0, 4), st.integers(1, 8), st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_answer_is_the_sequential_fold(self, leaves, depth, processors, seed):
        tree = arithmetic_tree(leaves, seed=seed)
        applied = self.STACK.apply(self.APPLICATION)
        value = Var("Value")
        boot = Struct("boot", (tree_term(tree), value, depth, Var("Done")))
        run_applied(applied, Struct("create", (processors, boot)),
                    Machine(processors, seed=seed))
        assert deref(value) == sequential_reduce(tree, eval_arith_node)
