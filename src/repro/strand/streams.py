"""Ports and stream helpers.

A *stream* is an incrementally-instantiated list: a producer holds the
unbound tail variable and extends it one cons cell at a time (Figure 1's
producer/consumer).  A *port* is the many-writers generalization Strand
systems used under the hood of primitives like ``distribute``: an opaque
handle holding the stream's current tail, so any number of senders can
append without threading tail variables through their code.

``PortRef`` values appear inside terms (e.g. the server motif's ``DT``
tuple of output ports) but are opaque to matching: programs pass them
around and hand them to ``distribute``/``send_port``.
"""

from __future__ import annotations

from repro.strand.terms import Cons, Term, Var, deref

__all__ = ["PortRef", "stream_items"]


class PortRef:
    """A many-writer append handle onto a stream.

    ``tail`` is the stream's current unbound tail variable; ``owner`` is the
    processor that opened the port (messages to it from elsewhere are
    inter-processor traffic); ``closed`` flips when the stream is
    terminated with ``[]``.
    """

    __slots__ = ("tail", "owner", "closed", "label")

    def __init__(self, tail: Var, owner: int, label: str = ""):
        self.tail = tail
        self.owner = owner
        self.closed = False
        self.label = label

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        label = self.label or f"{id(self):x}"
        return f"<port {label} on p{self.owner} ({state})>"


def stream_items(stream: Term) -> tuple[list[Term], Term]:
    """Split a (possibly partial) stream into ``(items_so_far, tail)``.

    The tail is ``NIL`` for a finished stream or the unbound tail variable
    of a still-open one.
    """
    items: list[Term] = []
    t = deref(stream)
    while type(t) is Cons:
        items.append(deref(t.head))
        t = deref(t.tail)
    return items, t

