"""Tree-Reduce-1 (paper §3.4) and the static-partition variant (§3.1).

``Tree1`` is a *library-only* motif (identity transformation) containing
exactly the paper's five-line divide-and-conquer reduction::

    reduce(tree(V, L, R), Value) :-
        reduce(R, RV) @ random,
        reduce(L, LV),
        eval(V, LV, RV, Value).
    reduce(leaf(X), Value) :- Value := X.

The full motif is the paper's composition

    Tree-Reduce-1 = Server ∘ Rand ∘ Tree1

optionally with the short-circuit termination stage between Tree1 and Rand
(Server ∘ Rand ∘ ShortCircuit ∘ Tree1), which lets the program halt its own
server network instead of relying on engine quiescence.

``static_tree_motif`` implements the §3.1 alternative — "a static partition
of the tree is probably ideal in the simple arithmetic example": subtrees
are placed by recursive range splitting, with no server network at all.
Experiment E6 compares the two under uniform and non-uniform node costs.
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.motifs.random_map import random_stack

__all__ = [
    "TREE1_LIBRARY",
    "STATIC_LIBRARY",
    "SEQUENTIAL_LIBRARY",
    "tree1_motif",
    "tree_reduce_1",
    "static_tree_motif",
    "sequential_tree_motif",
]

TREE1_LIBRARY = """
% Divide-and-conquer tree reduction with random mapping (paper §3.4).
reduce(tree(V, L, R), Value) :-
    reduce(R, RV) @ random,
    reduce(L, LV),
    eval(V, LV, RV, Value).
reduce(leaf(X), Value) :- Value := X.
"""

STATIC_LIBRARY = """
% Static partition (paper §3.1): recursively split the processor range
% [Lo, Hi]; the right subtree goes to the first processor of the upper
% half.  Once a single processor remains, reduction stays local.
sreduce(tree(V, L, R), Value, Lo, Hi) :- Hi > Lo |
    Mid := (Lo + Hi) // 2,
    Mid1 := Mid + 1,
    sreduce(R, RV, Mid1, Hi) @ Mid1,
    sreduce(L, LV, Lo, Mid),
    eval(V, LV, RV, Value).
sreduce(tree(V, L, R), Value, Lo, Hi) :- Hi == Lo |
    sreduce(R, RV, Lo, Hi),
    sreduce(L, LV, Lo, Hi),
    eval(V, LV, RV, Value).
sreduce(leaf(X), Value, _, _) :- Value := X.
"""


SEQUENTIAL_LIBRARY = """
% Sequential baseline: plain recursive fold, no placement, no servers.
reduce_seq(tree(V, L, R), Value) :-
    reduce_seq(L, LV),
    reduce_seq(R, RV),
    eval(V, LV, RV, Value).
reduce_seq(leaf(X), Value) :- Value := X.
"""


def sequential_tree_motif() -> Motif:
    """Library-only sequential reduction (baseline for speedup figures)."""
    return Motif(name="sequential-tree", library=SEQUENTIAL_LIBRARY)


def tree1_motif() -> Motif:
    """The ``Tree1`` motif: identity transformation + the five-line library."""
    return Motif(name="tree1", library=TREE1_LIBRARY)


def tree_reduce_1(
    server_library: str = "ports",
    termination: bool = True,
) -> ComposedMotif:
    """``Tree-Reduce-1 = Server ∘ Rand ∘ [ShortCircuit ∘] Tree1``.

    With ``termination=True`` (default) the program halts its own server
    network via the short-circuit chain and the entry message is
    ``boot(Tree, Value)``; without it, rely on engine quiescence and the
    entry message is ``reduce(Tree, Value)``.
    """
    return random_stack(tree1_motif(), ("reduce", 2), {("eval", 4): 3},
                        termination=termination, server_library=server_library)


def static_tree_motif() -> Motif:
    """The static-partition reduction: a library-only motif, no servers."""
    return Motif(name="static-tree", library=STATIC_LIBRARY)
