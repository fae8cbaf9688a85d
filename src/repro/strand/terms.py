"""Term representation for the Strand dialect.

The paper's programs manipulate five kinds of data:

* **variables** — single-assignment logic variables ("the value of a variable
  is initially undefined and, once provided, cannot be modified");
* **constants** — atoms (lowercase identifiers), numbers, and strings;
* **lists** — cons cells written ``[Head | Tail]``;
* **tuples** — ``{T1, ..., Tn}``, with meta primitives ``make_tuple``,
  ``put_arg`` and ``length`` (used by the server library in Figure 3);
* **structures** — ``f(T1, ..., Tn)``; process goals are structures.

Python ``int``/``float`` are used directly for numbers and Python ``str``
for Strand strings; atoms are a distinct interned class so ``"foo"`` (a
string) and ``foo`` (an atom) never compare equal.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator

from repro.errors import DoubleAssignmentError

__all__ = [
    "Var",
    "Atom",
    "Struct",
    "Tup",
    "Cons",
    "NIL",
    "Term",
    "deref",
    "make_list",
    "iter_list",
    "term_eq",
    "copy_term",
    "rename_term",
    "term_vars",
]

# A "term" is one of: Var, Atom, Struct, Tup, Cons, int, float, str.
Term = Any

_UNBOUND = object()


class Var:
    """A single-assignment (dataflow) variable.

    ``ref`` holds the bound value, or the ``_UNBOUND`` sentinel.  ``waiters``
    collects suspended processes to be woken when the variable is bound; the
    engine owns the waiter protocol, the term layer only stores the list.
    """

    __slots__ = ("ref", "name", "waiters")

    _counter = 0

    @classmethod
    def reset_names(cls) -> None:
        """Restart the anonymous-name counter (``_G1``, ``_G2``, …).

        Names exist only for display — identity is the object — so the
        engine resets the counter at the start of every run, making trace
        and deadlock output byte-identical across same-seed runs in one
        process."""
        cls._counter = 0

    def __init__(self, name: str | None = None):
        self.ref: Any = _UNBOUND
        if name is None:
            Var._counter += 1
            name = f"_G{Var._counter}"
        self.name = name
        self.waiters: list | None = None

    @property
    def is_bound(self) -> bool:
        return self.ref is not _UNBOUND

    def bind(self, value: Term) -> None:
        """Bind the variable.  Raises :class:`DoubleAssignmentError` if bound.

        The engine performs wakeups; this low-level method only sets the
        reference.  Binding a variable to itself is rejected.
        """
        if self.ref is not _UNBOUND:
            raise DoubleAssignmentError(
                f"variable {self.name} is already bound to {self.ref!r}"
            )
        if value is self:
            raise DoubleAssignmentError(f"cannot bind variable {self.name} to itself")
        self.ref = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_bound:
            return f"Var({self.name}={self.ref!r})"
        return f"Var({self.name})"

    # Pickling (used by the parallel backend to ship terms between worker
    # processes).  The ``_UNBOUND`` sentinel is a module-level ``object()``
    # whose identity does not survive pickling, so the bound value is boxed:
    # ``None`` means unbound, ``(value,)`` means bound (possibly to None).
    # Waiters are process-local scheduler state and never cross the wire.
    def __getstate__(self):
        boxed = None if self.ref is _UNBOUND else (self.ref,)
        return (self.name, boxed)

    def __setstate__(self, state) -> None:
        name, boxed = state
        self.name = name
        self.ref = _UNBOUND if boxed is None else boxed[0]
        self.waiters = None


class Atom:
    """An interned symbolic constant (``foo``, ``halt``, ``[]``...)."""

    __slots__ = ("name",)
    _interned: dict[str, "Atom"] = {}

    def __new__(cls, name: str) -> "Atom":
        existing = cls._interned.get(name)
        if existing is not None:
            return existing
        atom = super().__new__(cls)
        object.__setattr__(atom, "name", name)
        cls._interned[name] = atom
        return atom

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Atom is immutable")

    def __repr__(self) -> str:
        return self.name

    def __hash__(self) -> int:
        return hash(self.name)

    # Identity equality is correct because atoms are interned; defining
    # __eq__ explicitly documents that and keeps hash/eq consistent.
    def __eq__(self, other: object) -> bool:
        return self is other

    # Unpickling must route through __new__ so atoms stay interned (identity
    # equality would silently break across process boundaries otherwise).
    def __reduce__(self):
        return (Atom, (self.name,))


NIL = Atom("[]")


class Struct:
    """A compound term ``functor(arg1, ..., argn)``.  Process goals are
    structures; so is structured data like ``tree(V, L, R)``."""

    __slots__ = ("functor", "args")

    def __init__(self, functor: str, args: Iterable[Term] = ()):
        self.functor = functor
        self.args = tuple(args)

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def indicator(self) -> tuple[str, int]:
        """The ``name/arity`` pair identifying the procedure for a goal."""
        return (self.functor, len(self.args))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ",".join(repr(a) for a in self.args)
        return f"{self.functor}({inner})"


class Tup:
    """A Strand tuple ``{T1, ..., Tn}``.

    Storage is a mutable list because the paper's server library (Figure 3)
    builds tuples imperatively with ``make_tuple``/``put_arg`` before
    publishing them.  ``put_arg`` on a slot that already holds a non-variable
    is rejected by the builtin layer, which keeps the single-assignment
    discipline at the program level.
    """

    __slots__ = ("args",)

    def __init__(self, args: Iterable[Term] = ()):
        self.args = list(args)

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ",".join(repr(a) for a in self.args)
        return "{" + inner + "}"


class Cons:
    """A list cell ``[Head | Tail]``."""

    __slots__ = ("head", "tail")

    def __init__(self, head: Term, tail: Term):
        self.head = head
        self.tail = tail

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"[{self.head!r}|{self.tail!r}]"


def deref(term: Term) -> Term:
    """Follow bound-variable references until reaching a non-variable or an
    unbound variable.  Every consumer of terms calls this first."""
    while type(term) is Var and term.ref is not _UNBOUND:
        term = term.ref
    return term


def make_list(items: Iterable[Term], tail: Term = NIL) -> Term:
    """Build a Strand list term from a Python iterable."""
    result = tail
    for item in reversed(list(items)):
        result = Cons(item, result)
    return result


def iter_list(term: Term) -> Iterator[Term]:
    """Iterate over a fully-formed Strand list.

    Raises ``ValueError`` if the list is improper or has an unbound tail;
    use the engine's stream helpers for incremental lists.
    """
    term = deref(term)
    while type(term) is Cons:
        yield term.head
        term = deref(term.tail)
    if term is not NIL:
        raise ValueError(f"improper or incomplete list (tail {term!r})")


def term_eq(a: Term, b: Term) -> bool:
    """Structural equality of two terms; unbound variables are equal only to
    themselves (identity)."""
    decided, equal = _ground_equal(a, b, [])
    return decided and equal


def _ground_equal(a: Term, b: Term, blocked: list[Var]) -> tuple[bool, bool]:
    """(decided?, equal?) for structural equality.

    The one structural-equality walker: the ``==``/``\\==`` guards read
    both halves, :func:`term_eq` (binding checks, ``:=``) reads
    ``decided and equal``.  An unbound variable that identity does not
    settle is appended to ``blocked`` and leaves the verdict undecided.
    Iterative (left-to-right DFS over a pair stack) so deep lists cannot
    blow the interpreter stack; the first pair that is not definitely
    equal settles the verdict.
    """
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        a, b = deref(a), deref(b)
        if a is b:
            continue
        if type(a) is Var:
            blocked.append(a)
            return False, False
        if type(b) is Var:
            blocked.append(b)
            return False, False
        ta, tb = type(a), type(b)
        if ta is Struct and tb is Struct:
            if a.functor != b.functor or len(a.args) != len(b.args):
                return True, False
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        elif ta is Cons and tb is Cons:
            stack.append((a.tail, b.tail))
            stack.append((a.head, b.head))
        elif ta is Tup and tb is Tup:
            if len(a.args) != len(b.args):
                return True, False
            stack.extend(zip(reversed(a.args), reversed(b.args)))
        elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
            if a != b:
                return True, False
        elif ta is not tb:
            return True, False
        elif a != b:
            return True, False
    return True, True


def term_vars(term: Term) -> list[Var]:
    """All distinct unbound variables in a term, in first-occurrence order."""
    seen: set[int] = set()
    out: list[Var] = []
    stack = [term]
    while stack:
        t = deref(stack.pop())
        if type(t) is Var:
            if id(t) not in seen:
                seen.add(id(t))
                out.append(t)
        elif type(t) is Struct:
            stack.extend(reversed(t.args))
        elif type(t) is Tup:
            stack.extend(reversed(t.args))
        elif type(t) is Cons:
            stack.append(t.tail)
            stack.append(t.head)
    return out


# Rebuild markers for the iterative copier.  Real work-stack entries are
# terms (never Python tuples), so a tuple on the stack is always a marker.
_MARK_STRUCT = 0
_MARK_TUP = 1
_MARK_CONS = 2


def copy_term(term: Term, var_image: Callable[[Var], Term]) -> Term:
    """Structural copy with ``var_image`` supplying the image of every
    unbound variable reached (bound variables are dereferenced through).

    Iterative like :func:`term_vars` — a recursive copy
    blows the interpreter stack around 20k cons cells, and list spines of
    that depth are ordinary data here (repro: ``rename_term(make_list(
    range(20000)))``).  Used by :func:`rename_term`; the reducer builds
    bodies from the compiled templates of :mod:`repro.strand.compile`
    instead.

    The work stack holds terms to visit plus marker tuples; a marker pops
    its node's finished children off the output stack and pushes the
    rebuilt node, preserving left-to-right visit order.
    """
    work: list = [term]
    out: list = []
    while work:
        item = work.pop()
        if type(item) is tuple:
            kind, payload = item
            if kind == _MARK_CONS:
                tail = out.pop()
                head = out.pop()
                out.append(Cons(head, tail))
            elif kind == _MARK_STRUCT:
                functor, n = payload
                base = len(out) - n
                node = Struct(functor, out[base:])
                del out[base:]
                out.append(node)
            else:  # _MARK_TUP
                base = len(out) - payload
                node = Tup(out[base:])
                del out[base:]
                out.append(node)
            continue
        t = deref(item)
        tt = type(t)
        if tt is Var:
            out.append(var_image(t))
        elif tt is Cons:
            work.append((_MARK_CONS, None))
            work.append(t.tail)
            work.append(t.head)
        elif tt is Struct:
            work.append((_MARK_STRUCT, (t.functor, len(t.args))))
            work.extend(reversed(t.args))
        elif tt is Tup:
            work.append((_MARK_TUP, len(t.args)))
            work.extend(reversed(t.args))
        else:
            out.append(t)
    return out[0]


def rename_term(term: Term, mapping: dict[int, Var] | None = None) -> Term:
    """Copy a term, giving fresh variables for the unbound variables.

    ``mapping`` maps ``id(old_var) -> new_var`` and is shared across calls to
    rename several terms (e.g. head and body of one rule) consistently.
    """
    if mapping is None:
        mapping = {}

    def image(var: Var) -> Var:
        fresh = mapping.get(id(var))
        if fresh is None:
            fresh = Var(var.name)
            mapping[id(var)] = fresh
        return fresh

    return copy_term(term, image)

