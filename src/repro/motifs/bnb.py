"""Branch-and-bound motif — a specialized search motif (§3.6: "many
applications will benefit from specialized motifs tailored to their
particular requirements"; §4 lists search).

Distributed best-first pruning with an **incumbent broadcast** protocol:

* every server keeps a local copy of the best solution value found so far;
* exploration tasks (``explore`` messages, randomly mapped) are *bounded*
  on arrival: if the node's optimistic bound cannot beat the local
  incumbent, the subtree is pruned;
* leaf improvements go to server 1 (the incumbent manager), which
  rebroadcasts ``newbest`` to every server — stale local incumbents only
  cost pruning opportunities, never correctness;
* termination is the short-circuit chain *written out in library form*
  (each task carries its ``(L, R)`` segment; pruning and leaves close
  segments, expansion splits them) — the same §3.3 technique the
  ``termination`` motif automates, here shown as a manual idiom because
  the segments must travel inside messages the library itself fans out.

The user supplies four (typically foreign) procedures over search nodes:

* ``bound_bb(Node, B)``   — optimistic bound on the subtree's best value;
* ``leaf_bb(Node, F)``    — ``F := 1`` for complete solutions else 0;
* ``value_bb(Node, V)``   — a complete solution's value;
* ``expand_bb(Node, Ks)`` — child nodes.

``BnB = Server ∘ BnBLib``; entry message ``binit(Root, Best)``.
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.motifs.server import server_motif

__all__ = ["BNB_LIBRARY", "bnb_motif", "bnb_stack"]

BNB_LIBRARY = """
% Stateful server loop: bserve(In, Best, Sol).
server(In) :- bserve(In, 0, nosol).

% The initial message starts the root task and the termination watch.
bserve([binit(Root, Sol) | In], _, _) :-
    nodes(N),
    rand_num(N, W),
    send(W, explore(Root, L, done)),
    bb_watch(L),
    bserve(In, 0, Sol).

% An exploration task: bounded against the local incumbent at dequeue.
bserve([explore(Node, L, R) | In], Best, Sol) :-
    step(Node, Best, L, R),
    bserve(In, Best, Sol).

% Improvement reports (manager only — everyone else never receives best/1).
bserve([best(V) | In], Best, Sol) :- V > Best |
    nodes(N),
    bcast_best(N, V),
    bserve(In, V, Sol).
bserve([best(V) | In], Best, Sol) :- V =< Best |
    bserve(In, Best, Sol).

% Incumbent broadcasts: keep the max.
bserve([newbest(V) | In], Best, Sol) :- V > Best |
    bserve(In, V, Sol).
bserve([newbest(V) | In], Best, Sol) :- V =< Best |
    bserve(In, Best, Sol).

% The watch's finish lands on the manager before its halt broadcast does
% (same source, FIFO): publish the answer.
bserve([finish | In], Best, Sol) :-
    Sol := Best,
    bserve(In, Best, Sol).
bserve([halt | _], _, _).
bserve([], _, _).

bb_watch(L) :- known(L) | send(1, finish), halt.

bcast_best(N, V) :- N > 0 |
    send(N, newbest(V)),
    N1 := N - 1,
    bcast_best(N1, V).
bcast_best(0, _).

% One task step: prune, record a leaf, or expand.
step(Node, Best, L, R) :-
    bound_bb(Node, Bound),
    step1(Bound, Best, Node, L, R).
step1(Bound, Best, _, L, R) :- Bound =< Best |
    L := R.
step1(Bound, Best, Node, L, R) :- Bound > Best |
    leaf_bb(Node, IsLeaf),
    step2(IsLeaf, Node, Best, L, R).
step2(1, Node, Best, L, R) :-
    value_bb(Node, V),
    report_best(V, Best),
    L := R.
step2(0, Node, _, L, R) :-
    expand_bb(Node, Kids),
    fan_bb(Kids, L, R).

report_best(V, Best) :- V > Best | send(1, best(V)).
report_best(V, Best) :- V =< Best | true.

% Fan children out to random servers, splitting the circuit segment.
fan_bb([K | Ks], L, R) :-
    nodes(N),
    rand_num(N, W),
    send(W, explore(K, L, M)),
    fan_bb(Ks, M, R).
fan_bb([], L, R) :- L := R.
"""


def bnb_motif() -> Motif:
    """The branch-and-bound library motif; ``bserve/4`` (post-Server
    arity) is its service loop."""
    return Motif(
        name="branch-and-bound",
        library=BNB_LIBRARY,
        services={("bserve", 4)},
    )


def bnb_stack(server_library: str = "ports") -> ComposedMotif:
    """``BnB = Server ∘ BnBLib``; entry message ``binit(Root, Best)``."""
    return server_motif(server_library) @ bnb_motif()
