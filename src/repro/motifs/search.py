"""Parallel tree-search motif — §4 future work; §1's or-parallel Prolog
example ("the user provides logic clauses that specify a search problem and
the system explores the corresponding search tree").

The user supplies two procedures (typically foreign):

* ``expand(Node, Children)`` — the node's children (a list; empty at dead
  ends and full solutions);
* ``sol(Node, S)``           — ``S := 1`` if the node is a solution else 0.

``explore(Node, Count, Depth)`` counts solutions in the subtree; nodes in
the first ``Depth`` levels fan their children out with ``@ random``, below
that exploration stays local (bounded task grain, added by
:mod:`repro.motifs.grain` to the plain recursion of the libraries below).
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.motifs.grain import grain_motif
from repro.motifs.random_map import random_stack

__all__ = [
    "SEARCH_LIBRARY",
    "COLLECT_LIBRARY",
    "search_motif",
    "search_stack",
    "collect_search_stack",
]

SEARCH_LIBRARY = """
% explore(Node, Count): count solutions in the subtree under Node.
explore(Node, C) :-
    expand(Node, Kids),
    sol(Node, S),
    explore_list(Kids, C1),
    C := S + C1.
explore_list([K | Ks], C) :-
    explore(K, C1) @ random,
    explore_list(Ks, C2),
    C := C1 + C2.
explore_list([], C) :- C := 0.
"""


COLLECT_LIBRARY = """
% explore_all(Node, Sols, Tail): the solutions in Node's subtree as a
% difference list Sols\\Tail — the or-parallel Prolog model of §1, where
% the system returns the actual solutions, not a count.  Subtrees build
% disjoint segments of one shared list, so collection needs no merging.
explore_all(Node, Sols, Tail) :-
    expand(Node, Kids),
    sol(Node, S),
    emit_sol(S, Node, Sols, Sols1),
    explore_all_list(Kids, Sols1, Tail).
explore_all_list([K | Ks], Sols, Tail) :-
    explore_all(K, Sols, Mid) @ random,
    explore_all_list(Ks, Mid, Tail).
explore_all_list([], Sols, Tail) :- Sols := Tail.

emit_sol(1, Node, Sols, Rest) :- Sols := [Node | Rest].
emit_sol(0, _, Sols, Rest) :- Sols := Rest.
"""


def search_motif() -> ComposedMotif:
    """``Grain ∘ Search``: ``explore(Node, Count, Depth)``."""
    return grain_motif() @ Motif(name="search", library=SEARCH_LIBRARY)


def collect_search_stack(
    *,
    termination: bool = True,
    server_library: str = "ports",
) -> ComposedMotif:
    """``Server ∘ Rand ∘ [ShortCircuit ∘] CollectSearch`` — parallel search
    returning the solutions themselves (difference-list collection).

    Entry message: ``boot(Root, Sols, [], Depth, Done)`` with termination,
    else ``explore_all(Root, Sols, [], Depth)``; ``Sols`` closes to the
    full solution list.
    """
    return random_stack(grain_motif() @ Motif(name="collect-search", library=COLLECT_LIBRARY),
                        ("explore_all", 4), {("expand", 2): 1, ("sol", 2): 1},
                        termination=termination, server_library=server_library)


def search_stack(
    *,
    termination: bool = True,
    server_library: str = "ports",
) -> ComposedMotif:
    """``Server ∘ Rand ∘ [ShortCircuit ∘] Search``.

    Entry message: ``boot(Root, Count, Depth, Done)`` with termination,
    else ``explore(Root, Count, Depth)``.
    """
    return random_stack(search_motif(), ("explore", 3),
                        {("expand", 2): 1, ("sol", 2): 1},
                        termination=termination, server_library=server_library)
