"""Stream helper tests."""

from repro.strand.streams import PortRef, stream_items
from repro.strand.terms import Atom, Cons, NIL, Var


class TestStreamItems:
    def test_closed_stream(self):
        s = Cons(1, Cons(2, NIL))
        items, tail = stream_items(s)
        assert items == [1, 2]
        assert tail is NIL

    def test_open_stream(self):
        t = Var("T")
        s = Cons(1, t)
        items, tail = stream_items(s)
        assert items == [1]
        assert tail is t

    def test_through_bound_vars(self):
        v = Var("S")
        v.bind(Cons(Atom("a"), NIL))
        items, tail = stream_items(v)
        assert items == [Atom("a")]

    def test_empty(self):
        assert stream_items(NIL) == ([], NIL)


class TestPortRef:
    def test_initial_state(self):
        tail = Var("T")
        port = PortRef(tail, owner=3, label="inbox")
        assert port.tail is tail
        assert port.owner == 3
        assert not port.closed
        assert "inbox" in repr(port)
