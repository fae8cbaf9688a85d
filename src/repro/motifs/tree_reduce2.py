"""Tree-Reduce-2 (paper §3.5): memory-bounded tree reduction.

"Each tree node is allocated to a randomly selected processor.  The value
of a node is computed when its offspring's values are available and is then
sent to the processor on which its parent is located.  At each processor,
computation is sequenced so that only a single node evaluation is active at
any given time.  This reduces memory consumption."

Protocol (after Figure 7):

* the tree is preprocessed into a *table*: a tuple whose ``i``-th entry
  describes node ``i`` — ``leaf(Data, ParentId, ParentLabel, Side)`` or
  ``op(Op, ParentId, ParentLabel, Side)`` — where labels are processor
  numbers: leaves random (sibling leaves share), internal nodes inherit
  their left child's label, so at most one of each node's two offspring
  values crosses the network (experiment E5 measures this);
* an ``init(Table, Sol)`` message makes the first server broadcast
  ``tree(Table, Sol)`` to every server and dispatch one
  ``value(ParentId, Side, Data)`` message per leaf;
* each server pairs incoming values by parent in its pending list; a
  completed pair schedules the parent's evaluation, *sequenced* through a
  token so only one ``eval`` is ever active per processor;
* a computed value is forwarded to the grandparent's label, or — at the
  root — bound to ``Sol`` followed by ``halt``.

The preprocessing (node identifiers, labels) is performed by
``label_table`` in :mod:`repro.apps.trees`, as the paper prescribes
("Labels are generated in a preprocessing step introduced by the
transformation").

``Tree-Reduce-2 = Server ∘ TreeReduce``.
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.motifs.server import server_motif

__all__ = ["TREE_REDUCE_LIBRARY", "tree_reduce_motif", "tree_reduce_2"]

TREE_REDUCE_LIBRARY = """
% Tree-Reduce library (after Figure 7).  Server state is carried by the
% serve/4 loop: the (initially unbound) table and solution variables, the
% pending-value list, and the evaluation-sequencing token.
server(In) :- serve(In, _Table, _Sol, [], go).

serve([init(Table, Sol) | In], TableV, SolV, Pending, Tok) :-
    nodes(N),
    bcast_tree(N, Table, Sol),
    serve(In, TableV, SolV, Pending, Tok).
serve([tree(Table, Sol) | In], TableV, SolV, Pending, Tok) :-
    TableV := Table,
    SolV := Sol,
    serve(In, TableV, SolV, Pending, Tok).
serve([value(P, Side, V) | In], Table, Sol, Pending, Tok) :-
    take(P, Pending, Found, Pending1),
    handle(Found, P, Side, V, Table, Sol, Pending1, Pending2, Tok, Tok2),
    serve(In, Table, Sol, Pending2, Tok2).
% Initial leaf dispatches arrive under their own tag so experiments can
% separate setup traffic from reduction-phase value forwarding (E5).
serve([leafval(P, Side, V) | In], Table, Sol, Pending, Tok) :-
    take(P, Pending, Found, Pending1),
    handle(Found, P, Side, V, Table, Sol, Pending1, Pending2, Tok, Tok2),
    serve(In, Table, Sol, Pending2, Tok2).
serve([halt | _], _, _, _, _).
serve([], _, _, _, _).

% Broadcast the table, then dispatch every leaf's value message.
bcast_tree(N, Table, Sol) :- N > 0 |
    send(N, tree(Table, Sol)),
    N1 := N - 1,
    bcast_tree(N1, Table, Sol).
bcast_tree(0, Table, _) :- dispatch(Table).

dispatch(Table) :- length(Table, N), dispatch1(N, Table).
dispatch1(N, Table) :- N > 0 |
    arg(N, Table, Entry),
    dispatch_entry(Entry),
    N1 := N - 1,
    dispatch1(N1, Table).
dispatch1(0, _).
dispatch_entry(leaf(Data, PP, PPL, Side)) :- send(PPL, leafval(PP, Side, Data)).
dispatch_entry(op(_, _, _, _)).

% Pending-value bookkeeping: find (and remove) the sibling of (P, Side).
take(P, [pair(Q, S, V) | Rest], Found, Out) :- P == Q |
    Found := found(S, V),
    Out := Rest.
take(P, [pair(Q, S, V) | Rest], Found, Out) :- P =\\= Q |
    Out := [pair(Q, S, V) | Out1],
    take(P, Rest, Found, Out1).
take(_, [], Found, Out) :- Found := none, Out := [].

handle(none, P, Side, V, _, _, Pnd, PndOut, Tok, TokOut) :-
    note_value_produced,
    PndOut := [pair(P, Side, V) | Pnd],
    TokOut := Tok.
handle(found(left, LV), P, right, RV, Table, Sol, Pnd, PndOut, Tok, TokOut) :-
    note_value_consumed,
    schedule(P, LV, RV, Table, Sol, Tok, TokOut),
    PndOut := Pnd.
handle(found(right, RV), P, left, LV, Table, Sol, Pnd, PndOut, Tok, TokOut) :-
    note_value_consumed,
    schedule(P, LV, RV, Table, Sol, Tok, TokOut),
    PndOut := Pnd.

schedule(P, LV, RV, Table, Sol, Tok, TokOut) :-
    arg(P, Table, Entry),
    schedule1(Entry, LV, RV, Sol, Tok, TokOut).
schedule1(op(Op, PP, PPL, Side), LV, RV, Sol, Tok, TokOut) :-
    seq_eval(Op, LV, RV, PV, Tok, TokOut),
    emit(PV, PP, PPL, Side, Sol).

% The token sequences evaluations: seq_eval only fires when the previous
% evaluation on this processor has unlocked the token.
seq_eval(Op, LV, RV, PV, go, TokOut) :-
    eval(Op, LV, RV, PV),
    unlock(PV, TokOut).
unlock(PV, TokOut) :- known(PV) | TokOut := go.

emit(PV, PP, PPL, Side, Sol) :- known(PV) | emit1(PP, PPL, Side, PV, Sol).
emit1(-1, _, _, PV, Sol) :- Sol := PV, halt.
emit1(PP, PPL, Side, PV, _) :- PP > 0 | send(PPL, value(PP, Side, PV)).
"""


def tree_reduce_motif() -> Motif:
    """The ``TreeReduce`` motif: identity transformation + the library
    above.  ``serve/5`` (its post-Server arity) is a service process."""
    return Motif(
        name="tree-reduce",
        library=TREE_REDUCE_LIBRARY,
        services={("serve", 5)},
    )


def tree_reduce_2(server_library: str = "ports") -> ComposedMotif:
    """``Tree-Reduce-2 = Server ∘ TreeReduce`` (paper §3.5)."""
    return server_motif(server_library) @ tree_reduce_motif()
