"""The Rand and Random motifs (paper §3.3).

``Rand`` is a transformation-only motif (its library is empty) supporting
the ``@ random`` pragma:

1. every body goal ``P @ random`` becomes
   ``nodes(N), rand_num(N, R), send(R, P)`` — the process is shipped, as a
   message, to a randomly selected server;
2. a ``server/1`` definition is synthesized with one dispatch rule per
   ``@ random``-annotated process type, plus the ``halt`` rule (and an
   end-of-stream rule, a dialect addition that lets quiescence-closed
   servers terminate cleanly).

``Random = Server ∘ Rand`` — exactly the paper's composition, and
:func:`random_stack` puts it over a library motif, optionally with the
short-circuit termination stage in between.
"""

from __future__ import annotations

from repro.core.motif import ComposedMotif, Motif
from repro.core.pragmas import RANDOM
from repro.errors import TransformError
from repro.strand.program import Program, Rule
from repro.strand.terms import Atom, Cons, NIL, Struct, Term, Var, deref
from repro.transform.rewrite import map_body_goals, strip_placement
from repro.transform.transformation import Transformation
from repro.motifs.server import server_motif
from repro.motifs.termination import BOOT, short_circuit_motif

__all__ = [
    "RandTransformation",
    "rand_motif",
    "random_motif",
    "random_stack",
    "dispatch_rule",
]


def dispatch_rule(name: str, arity: int) -> Rule:
    """The paper's generated server rule for a process type ``p/n``::

        server([p(V1,...,Vn) | In]) :- p(V1,...,Vn), server(In).
    """
    variables = [Var(f"V{i + 1}") for i in range(arity)]
    message = Struct(name, variables)
    stream_tail = Var("In")
    head = Struct("server", (Cons(message, stream_tail),))
    body: list[Term] = [message, Struct("server", (stream_tail,))]
    return Rule(head, [], body)


def _halt_rule() -> Rule:
    return Rule(Struct("server", (Cons(Atom("halt"), Var("_")),)), [], [])


def _eos_rule() -> Rule:
    return Rule(Struct("server", (NIL,)), [], [])


class RandTransformation(Transformation):
    """Rewrite ``@ random`` pragmas into send-to-random-server code and
    synthesize the ``server/1`` dispatcher.

    Parameters
    ----------
    extra_entries:
        Additional ``name/arity`` pairs to generate dispatch rules for —
        "the process used to initiate execution of the application" when it
        is not itself annotated (paper §3.3 step 2).
    """

    name = "rand"

    def __init__(self, extra_entries: tuple[tuple[str, int], ...] = ()):
        self.extra_entries = tuple(extra_entries)

    def apply(self, program: Program) -> Program:
        annotated: list[tuple[str, int]] = []

        def ship(goal: Term, _rule: Rule) -> Term | list[Term]:
            inner, where = strip_placement(goal)
            if where is None or deref(where) is not RANDOM:
                return goal
            if inner.indicator not in annotated:
                annotated.append(inner.indicator)
            n, r = Var("N"), Var("R")
            return [
                Struct("nodes", (n,)),
                Struct("rand_num", (n, r)),
                Struct("send", (r, inner)),
            ]

        out = map_body_goals(program, ship)
        entries = list(annotated)
        for extra in self.extra_entries:
            if extra not in entries:
                entries.append(extra)
        if not entries:
            raise TransformError(
                "Rand motif applied to a program with no '@ random' pragma "
                "and no explicit entries"
            )
        for name, arity in entries:
            out.add_rule(dispatch_rule(name, arity))
        existing = out.procedure("server", 1)
        heads = {r.head.args[0] for r in existing.rules} if existing else set()
        # halt and end-of-stream rules go last; skip if the program already
        # provides them.
        if not any(_is_halt_head(h) for h in heads):
            out.add_rule(_halt_rule())
        if not any(deref(h) is NIL for h in heads):
            out.add_rule(_eos_rule())
        return out


def _is_halt_head(pattern: Term) -> bool:
    pattern = deref(pattern)
    return type(pattern) is Cons and deref(pattern.head) is Atom("halt")


def rand_motif(extra_entries: tuple[tuple[str, int], ...] = ()) -> Motif:
    """The ``Rand`` motif: the transformation above, empty library."""
    return Motif(name="rand", transformation=RandTransformation(extra_entries))


def random_motif(
    server_library: str = "ports",
    extra_entries: tuple[tuple[str, int], ...] = (),
) -> ComposedMotif:
    """``Random = Server ∘ Rand`` (paper §3.3)."""
    return server_motif(server_library) @ rand_motif(extra_entries)


def random_stack(
    core: Motif,
    entry: tuple[str, int],
    sync_outputs: dict[tuple[str, int], int],
    *,
    termination: bool,
    server_library: str,
) -> ComposedMotif:
    """``Server ∘ Rand ∘ [ShortCircuit ∘] core``.

    With ``termination`` the short circuit is threaded from ``entry`` (see
    :class:`~repro.motifs.termination.ShortCircuit` for ``sync_outputs``)
    and Rand dispatches the generated ``boot/k+1`` entry message; without
    it the stack relies on engine quiescence and the entry message is
    ``entry`` itself.
    """
    if not termination:
        return random_motif(server_library) @ core
    boot = ((BOOT, entry[1] + 1),)
    return (
        random_motif(server_library, extra_entries=boot)
        @ short_circuit_motif(entry, sync_outputs)
        @ core
    )
