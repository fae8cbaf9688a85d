"""A small standard library of Strand list utilities.

The paper's libraries constantly re-derive list plumbing (``combine``,
``fill``, ``form_is`` in Figure 3...).  This module collects the common
idioms once, as a linkable library program: ``Program.union(stdlib())``
or ``Motif("std", library=STDLIB_SOURCE)``.

Everything is written in the dialect itself — the "archive of expertise"
idea applied to the smallest scale.
"""

from __future__ import annotations

from repro.strand.parser import parse_program
from repro.strand.program import Program

__all__ = ["STDLIB_SOURCE", "stdlib"]

STDLIB_SOURCE = """
% append_list(Xs, Ys, Zs): Zs is Xs ++ Ys (incremental: Zs streams out
% while Xs is still being produced).
append_list([X | Xs], Ys, Zs) :-
    Zs := [X | Zs1],
    append_list(Xs, Ys, Zs1).
append_list([], Ys, Zs) :- Zs := Ys.

% reverse_list(Xs, Ys): naive-free accumulator reversal.
reverse_list(Xs, Ys) :- rev_acc(Xs, [], Ys).
rev_acc([X | Xs], Acc, Ys) :- rev_acc(Xs, [X | Acc], Ys).
rev_acc([], Acc, Ys) :- Ys := Acc.

% list_length(Xs, N): distinct from the length/2 builtin in that it is
% pure Strand (and therefore transformable like any user code).
list_length(Xs, N) :- len_acc(Xs, 0, N).
len_acc([_ | Xs], Acc, N) :- Acc1 := Acc + 1, len_acc(Xs, Acc1, N).
len_acc([], Acc, N) :- N := Acc.

% nth_item(I, Xs, X): X is the I-th element of Xs, counting from 1.
nth_item(1, [X | _], Out) :- Out := X.
nth_item(I, [_ | Xs], Out) :- I > 1 |
    I1 := I - 1,
    nth_item(I1, Xs, Out).

% member_check(X, Xs, Flag): Flag := yes/no for ground X and list items.
member_check(X, [Y | _], Flag) :- X == Y | Flag := yes.
member_check(X, [Y | Ys], Flag) :- X \\== Y | member_check(X, Ys, Flag).
member_check(_, [], Flag) :- Flag := no.

% sum_list / max_list over numbers.
sum_list(Xs, Sum) :- sum_acc(Xs, 0, Sum).
sum_acc([X | Xs], Acc, Sum) :- Acc1 := Acc + X, sum_acc(Xs, Acc1, Sum).
sum_acc([], Acc, Sum) :- Sum := Acc.

max_list([X | Xs], Max) :- max_acc(Xs, X, Max).
max_acc([X | Xs], Best, Max) :- X > Best | max_acc(Xs, X, Max).
max_acc([X | Xs], Best, Max) :- X =< Best | max_acc(Xs, Best, Max).
max_acc([], Best, Max) :- Max := Best.

% take_n / drop_n.
take_n(N, [X | Xs], Out) :- N > 0 |
    Out := [X | Out1],
    N1 := N - 1,
    take_n(N1, Xs, Out1).
take_n(0, _, Out) :- Out := [].
take_n(N, [], Out) :- N > 0 | Out := [].

drop_n(N, [_ | Xs], Out) :- N > 0 |
    N1 := N - 1,
    drop_n(N1, Xs, Out).
drop_n(0, Xs, Out) :- Out := Xs.
drop_n(N, [], Out) :- N > 0 | Out := [].

% zip_lists(Xs, Ys, Pairs): pair(X, Y) entries, ending with the shorter.
zip_lists([X | Xs], [Y | Ys], Out) :-
    Out := [pair(X, Y) | Out1],
    zip_lists(Xs, Ys, Out1).
zip_lists([], _, Out) :- Out := [].
zip_lists(_, [], Out) :- Out := [].

% range_list(Lo, Hi, Out): [Lo, Lo+1, ..., Hi].
range_list(Lo, Hi, Out) :- Lo =< Hi |
    Out := [Lo | Out1],
    Lo1 := Lo + 1,
    range_list(Lo1, Hi, Out1).
range_list(Lo, Hi, Out) :- Lo > Hi | Out := [].
"""

_cached: Program | None = None


def stdlib() -> Program:
    """The parsed standard library (cached; callers get copies via union)."""
    global _cached
    if _cached is None:
        _cached = parse_program(STDLIB_SOURCE, name="stdlib")
    return _cached
