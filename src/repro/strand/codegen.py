"""Python source for compiled rules: one ``commit(args, blocked)`` function
per rule, written by :class:`RuleWriter` and loaded by
:mod:`repro.strand.compile`.

The function returns the tuple of the rule's instantiated body goals when
the rule commits.  Otherwise it returns ``None`` and appends the blocking
caller variables of an undecided head match or guard to ``blocked``; a
definite failure appends nothing.  The rule's variables are Python locals:

* **head patterns** are straight-line type and identity tests, all at the
  function's top level: a structure, tuple or list cell is one block that
  unpacks its children into locals, matched after it; the children of a
  parent that blocked read ``_S`` and their tests pass over them.  A list
  pattern is walked by a cursor, one block per element; a run of
  ground elements is matched by one ``_mr`` call and a ground compound
  subpattern by one ``_mv`` call.  A repeated variable is compared by
  ``_mv`` where it occurs again; if its first occurrence is nested it
  starts as ``None`` and the first occurrence the match reaches binds it;
* **guards** are inline.  An arithmetic comparison evaluates its sides in
  ``eval_arith``'s order without building the expression term, calling
  :mod:`arith`'s operator functions (:data:`OPERATORS`), and leaves the
  right side unread when the left side blocks; ``==``/``\\==`` call
  ``_ge``; type tests and ``known`` test the dereferenced local;
* **body goals** are built by ``Struct``/``Cons``/``Tup`` calls; ground,
  ``Tup``-free subterms are shared constants.  Guard-only variables are
  created before the guards, body-only ones before the body.

Besides :data:`OPERATORS`, ``Var``, ``Struct``, ``Tup``, ``Cons``, ``Atom``,
``NIL``, ``ArithFail`` and the constants the writer names (through its
``const`` callback), the code calls the runtime helpers the compile layer
binds: ``_U`` (the unbound marker), ``_S`` (a skipped subpattern),
``_mv`` (``_match_values``), ``_mr`` (``_match_run``), ``_pre``
(``_prepend``), ``_ge`` (``terms._ground_equal``) and ``_ev``
(``arith._eval``).

The writer walks terms with explicit stacks, never by recursion, and the
code it writes never nests per list element or pattern level: long list
patterns and literals and deep patterns compile and run like short ones.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.strand.arith import _BINARY, _UNARY, ARITH_FUNCTORS
from repro.strand.program import Rule
from repro.strand.terms import NIL, Atom, Cons, Struct, Term, Tup, Var, deref, term_vars

__all__ = ["RuleWriter", "GUARD_TESTS", "OPERATORS"]


#: Type-test guards: ``name -> test`` over the dereffed, bound operand
#: ``{0}``, as the source the generated guards inline.
_TYPE_TESTS = {
    "integer": "type({0}) is int",
    "number": "type({0}) is int or type({0}) is float",
    "float": "type({0}) is float",
    "atom": "type({0}) is Atom",
    "string": "type({0}) is str",
    "list": "type({0}) is Cons or {0} is NIL",
    "tuple": "type({0}) is Tup",
}

#: Arithmetic comparison guards: ``name -> Python operator``.
_COMPARISON_OPS = {
    "<": "<", ">": ">", "=<": "<=", ">=": ">=", "=\\=": "!=", "=:=": "==",
}

#: The same type tests as functions: the writer folds type tests of
#: non-variable operands with them.
_TEST_GLOBALS = {"Atom": Atom, "Cons": Cons, "Tup": Tup, "NIL": NIL}
GUARD_TESTS: dict[str, Callable] = {
    name: eval(f"lambda t: {test.format('t')}", _TEST_GLOBALS) for name, test in _TYPE_TESTS.items()
}

#: ``arith``'s operator functions under the names the code calls them by.
_BINARY_NAMES = {op: f"_b{i}" for i, op in enumerate(_BINARY)}
_UNARY_NAMES = {op: f"_u{i}" for i, op in enumerate(_UNARY)}
OPERATORS = {
    **{name: _BINARY[op] for op, name in _BINARY_NAMES.items()},
    **{name: _UNARY[op] for op, name in _UNARY_NAMES.items()},
}

#: Tallest expression written inline; a taller subterm is built into a
#: temporary first, so long list literals never nest.
_MAX_HEIGHT = 16
#: Shortest run of ground list elements matched (``_match_run``) or built
#: (``_prepend``) by one helper call instead of one cell at a time.
_RUN = 4

#: Dereference a local in place.
_DEREF = "while type({0}) is Var and {0}.ref is not _U: {0} = {0}.ref"


def _head_scan(args: list[Term]) -> tuple[dict, list]:
    """``id(node) -> ground?`` for every structure, tuple and list cell of
    the head patterns ``args``, and the head's variable occurrences in
    matching order as ``(variable, argument index or None when nested)``."""
    ground: dict[int, bool] = {}
    occurrences: list[tuple[Var, int | None]] = []
    stack: list = [(arg, i, False) for i, arg in reversed(list(enumerate(args)))]
    while stack:
        node, top, done = stack.pop()
        tt = type(node)
        if tt is Var:
            occurrences.append((node, top))
        elif tt is Struct or tt is Tup or tt is Cons:
            kids = (node.head, node.tail) if tt is Cons else node.args
            if done:
                ground[id(node)] = all(_is_ground(deref(k), ground) for k in kids)
            else:
                stack.append((node, None, True))
                stack.extend((deref(k), None, False) for k in reversed(kids))
        elif not (tt is Atom or tt is int or tt is float or tt is str):
            raise TypeError(f"bad pattern term {node!r}")
    return ground, occurrences


def _is_ground(term: Term, ground: dict[int, bool]) -> bool:
    tt = type(term)
    if tt is Var:
        return False
    if tt is Struct or tt is Tup or tt is Cons:
        return ground[id(term)]
    return True


class RuleWriter:
    """Writes one rule's ``commit(args, blocked)`` function.

    The head is matched by straight-line type and identity tests, with the
    rule's variables as Python locals; guards follow; the body goals are
    built with ``Struct``/``Cons``/``Tup`` calls and returned as a tuple.
    Code is kept as ``(indent, line)`` pairs until the function is joined.
    """

    def __init__(self, rule: Rule, const: Callable[[Any], str]):
        self.rule = rule
        self.const = const
        self.lines: list[tuple[int, str]] = []
        self.temps = 0
        self.names: dict[int, str] = {}
        self.blocks = False  # some emitted test can append to ``rb``
        self.head_args = [deref(a) for a in rule.head.args]
        self.ground, occurrences = _head_scan(self.head_args)
        self.count: dict[int, int] = {}
        self.first_arg: dict[int, int | None] = {}
        for var, top in occurrences:
            key = id(var)
            self.count[key] = self.count.get(key, 0) + 1
            self.first_arg.setdefault(key, top)
        # A repeated variable whose first occurrence is nested may be
        # skipped (its parent blocked), so later occurrences bind it then.
        self.dynamic = {id(var): var for var, _ in occurrences
                        if self.first_arg[id(var)] is None and self.count[id(var)] > 1}
        self.seen: set[int] = set()
        self.guard_vars = [v for g in rule.guards for v in term_vars(g)
                           if id(v) not in self.count]
        self.used = {id(v) for t in (*rule.guards, *rule.body) for v in term_vars(t)}

    # -- small helpers -----------------------------------------------------
    def emit(self, indent: int, line: str) -> None:
        self.lines.append((indent, line))

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def local(self, var: Var) -> str:
        name = self.names.get(id(var))
        if name is None:
            base = var.name if var.name.isidentifier() else "V"
            name = self.names[id(var)] = f"{base}_{len(self.names)}"
        return name

    def fail_unless(self, x: str, skip: bool) -> None:
        """The ``else`` branch of a failed test of ``x``: block on a
        variable, otherwise fail (unless the cursor was skipped)."""
        self.blocks = True
        self.emit(2, f"if type({x}) is Var: rb.append({x})")
        self.emit(2, f"elif {x} is not _S: return None" if skip else "else: return None")

    def unpack(self, kid: Term, items: list) -> str | None:
        """The local a child pattern is read into: a variable occurring
        only here is its own local (``None`` when no guard or body uses
        it); any other child gets a temporary, matched after its parent
        (queued on ``items``)."""
        if type(kid) is Var and self.count[id(kid)] == 1:
            self.seen.add(id(kid))
            return self.local(kid) if id(kid) in self.used else None
        t = self.temp()
        items.append(("match", kid, t, True))
        return t

    # -- head --------------------------------------------------------------
    def head(self) -> list[str]:
        """Emit the head match; return the unpacking targets of ``args``.

        Every test sits at the function's top level: a compound pattern or
        list cell is one block that unpacks its children into locals, and
        the children are matched after it.  When a parent blocks, its
        children read ``_S`` and their tests pass over them.
        """
        targets, work = [], []
        for i, p in enumerate(self.head_args):
            key = id(p)
            if type(p) is Var and self.first_arg[key] == i:
                # A first occurrence no match can skip: unpack straight into it.
                self.seen.add(key)
                targets.append(self.local(p) if self.count[key] > 1 or key in self.used else "_")
                continue
            targets.append(f"a{i}")
            work.append(("match", p, f"a{i}", False))
        work.reverse()
        while work:
            item = work.pop()
            if item[0] == "line":
                self.emit(item[1], item[2])
                continue
            _, p, x, skip = item
            tp = type(p)
            if tp is Var:
                self.match_var(p, x, skip)
            elif _is_ground(p, self.ground):
                self.match_ground(p, x, skip)
            elif tp is Cons:
                work.extend(reversed(self.match_list(p, x, skip)))
            else:
                work.extend(reversed(self.match_compound(p, x, skip)))
        return targets

    def match_var(self, var: Var, x: str, skip: bool) -> None:
        key = id(var)
        name = self.local(var)
        if key not in self.seen:
            self.seen.add(key)
            if self.count[key] == 1 and key not in self.used:
                return
            if skip and key in self.dynamic:
                self.emit(1, f"if {x} is not _S: {name} = {x}")
            else:
                self.emit(1, f"{name} = {x}")
            return
        self.blocks = True
        if key in self.dynamic:
            branch = "if"
            if skip:
                self.emit(1, f"if {x} is _S: pass")
                branch = "elif"
            self.emit(1, f"{branch} {name} is None: {name} = {x}")
            self.emit(1, f"elif not _mv({name}, {x}, rb): return None")
        else:
            test = f"not _mv({name}, {x}, rb)"
            self.emit(1, f"if {x} is not _S and {test}: return None" if skip
                      else f"if {test}: return None")

    def match_ground(self, p: Term, x: str, skip: bool) -> None:
        tp = type(p)
        k = self.const(p)
        if tp is Struct or tp is Tup or tp is Cons:
            self.blocks = True
            test = f"not _mv({k}, {x}, rb)"
            self.emit(1, f"if {x} is not _S and {test}: return None" if skip
                      else f"if {test}: return None")
            return
        self.emit(1, _DEREF.format(x))
        if tp is Atom:
            self.emit(1, f"if {x} is not {k}:")
        elif tp is str:
            self.emit(1, f"if not (type({x}) is str and {x} == {k}):")
        else:
            self.emit(1, f"if not ((type({x}) is int or type({x}) is float) and {x} == {k}):")
        self.fail_unless(x, skip)

    def match_compound(self, p: Term, x: str, skip: bool) -> list:
        """A structure or tuple pattern with variables inside."""
        n = len(p.args)
        if type(p) is Struct:
            test = (f"type({x}) is Struct and {x}.functor == {p.functor!r}"
                    f" and len({x}.args) == {n}")
        else:
            test = f"type({x}) is Tup and len({x}.args) == {n}"
        items: list = []
        targets = [self.unpack(deref(kid), items) for kid in p.args]
        temps = [item[2] for item in items]
        unpacked = ", ".join(t or "_" for t in targets)
        self.emit(1, _DEREF.format(x))
        self.emit(1, f"if {test}: {unpacked}{',' if n == 1 else ''} = {x}.args")
        self.emit(1, "else:")
        if temps:
            self.emit(2, f"{' = '.join(temps)} = _S")
        self.fail_unless(x, skip)
        return items

    def match_list(self, p: Cons, x: str, skip: bool) -> list:
        """A list pattern with variables inside, walked by a cursor ``x``:
        one block per element, one ``_match_run`` per run of ground
        elements, and one ``_match_values`` for a ground suffix.  A cursor
        whose spine blocked becomes ``_S``."""
        cells = []
        while type(p) is Cons:
            cells.append(p)
            p = deref(p.tail)
        tail, n = p, len(cells)
        heads = [deref(c.head) for c in cells]
        ground = [_is_ground(h, self.ground) for h in heads]
        j = n
        if _is_ground(tail, self.ground):
            while j and ground[j - 1]:
                j -= 1
        items: list = []
        i = 0
        while i < j:
            k = i
            while k < j and ground[k]:
                k += 1
            if k - i >= _RUN:
                run = self.const(tuple(heads[i:k]))
                items.append(("line", 1, f"{x} = _mr({run}, {x}, rb)"))
                items.append(("line", 1, f"if {x} is None: return None"))
                self.blocks, skip, i = True, True, k
                continue
            kid: list = []
            h = self.unpack(heads[i], kid)
            take = f"{h} = {x}.head; {x} = {x}.tail" if h else f"{x} = {x}.tail"
            items += [("line", 1, _DEREF.format(x)),
                      ("line", 1, f"if type({x}) is Cons: {take}"),
                      ("line", 1, "else:")]
            if kid:
                items.append(("line", 2, f"{h} = _S"))
            items += [
                ("line", 2, f"if type({x}) is Var: rb.append({x}); {x} = _S"),
                ("line", 2, f"elif {x} is not _S: return None" if skip else "else: return None"),
                *kid,
            ]
            self.blocks, skip, i = True, True, i + 1
        if j < n:
            test = f"not _mv({self.const(cells[j])}, {x}, rb)"
            items.append(("line", 1, f"if {x} is not _S and {test}: return None" if skip
                          else f"if {test}: return None"))
        else:
            items.append(("match", tail, x, skip))
        return items

    # -- guards ------------------------------------------------------------
    def guard(self, g: Term, d: int) -> bool:
        """Emit one guard; ``False`` when it fails wherever it is reached."""
        g = deref(g)
        if type(g) is Atom:
            return g.name in ("true", "otherwise")
        if type(g) is not Struct:
            return False
        name, arity = g.functor, len(g.args)
        if arity == 2 and name in _COMPARISON_OPS:
            self.compare(_COMPARISON_OPS[name], g.args[0], g.args[1], d)
            return True
        if arity == 2 and name in ("==", "\\=="):
            lhs, rhs = self.build(g.args[0], d), self.build(g.args[1], d)
            decided, equal = self.temp(), self.temp()
            self.emit(d, f"{decided}, {equal} = _ge({lhs}, {rhs}, rb)")
            self.emit(d, f"if {decided} and {'not ' if name == '==' else ''}{equal}: return None")
            self.blocks = True
            return True
        if arity == 1 and (name in _TYPE_TESTS or name == "known"):
            operand = deref(g.args[0])
            if type(operand) is not Var:
                # The operand builds to a term of its own type.
                return name == "known" or GUARD_TESTS[name](operand)
            t = self.temp()
            self.emit(d, f"{t} = {self.local(operand)}")
            self.emit(d, _DEREF.format(t))
            self.emit(d, f"if type({t}) is Var: rb.append({t})")
            if name != "known":
                self.emit(d, f"elif not ({_TYPE_TESTS[name].format(t)}): return None")
            self.blocks = True
            return True
        return False

    def compare(self, op: str, lhs: Term, rhs: Term, d: int) -> None:
        """``lhs op rhs``: a blocked left side leaves the right one unread."""
        left, left_none = self.arith(lhs, d)
        mark = len(self.lines)
        right, right_none = self.arith(rhs, d)
        checks = []
        if left_none:
            if len(self.lines) > mark:
                self.lines[mark:] = [(d, f"if {left} is not None:")] + [
                    (indent + 1, line) for indent, line in self.lines[mark:]
                ]
                d += 1
            else:
                checks.append(f"{left} is not None")
        if right_none:
            checks.append(f"{right} is not None")
        checks.append(f"not ({left} {op} {right})")
        self.emit(d, f"if {' and '.join(checks)}: return None")

    def arith(self, term: Term, d: int) -> tuple[str, bool]:
        """Emit the evaluation of one arithmetic operand in ``eval_arith``'s
        order (left to right, each operator applied once both its operands
        are known); return the value's expression and whether it can be
        ``None`` (a variable blocked and was appended to ``rb``)."""
        out: list[tuple[str, bool]] = []
        work: list = [(False, term)]
        while work:
            combine, t = work.pop()
            if combine:
                n = len(t.args)
                args = out[len(out) - n:]
                del out[len(out) - n:]
                fn = (_BINARY_NAMES if n == 2 else _UNARY_NAMES)[t.functor]
                expr = f"{fn}({', '.join(a for a, _ in args)})"
                checks = [f"{a} is not None" for a, none in args if none]
                v = self.temp()
                self.emit(d, f"{v} = {expr} if {' and '.join(checks)} else None" if checks
                          else f"{v} = {expr}")
                out.append((v, bool(checks)))
                continue
            t = deref(t)
            tt = type(t)
            if tt is int or tt is float:
                out.append((self.const(t), False))
            elif tt is Var:
                v = self.temp()
                self.emit(d, f"{v} = {self.local(t)}")
                self.emit(d, _DEREF.format(v))
                self.emit(d, f"if type({v}) is not int: {v} = _ev({v}, rb)")
                self.blocks = True
                out.append((v, True))
            elif tt is Struct and (t.functor, len(t.args)) in ARITH_FUNCTORS:
                work.append((True, t))
                work.extend((False, a) for a in reversed(t.args))
            else:
                # Not arithmetic: evaluation fails here (ArithFail); what
                # follows is never reached.
                self.emit(d, "return None")
                out.append(("0", False))
        return out[0]

    # -- body --------------------------------------------------------------
    def spill(self, expr: str, height: int, d: int) -> tuple[str, int, bool]:
        if height > _MAX_HEIGHT:
            t = self.temp()
            self.emit(d, f"{t} = {expr}")
            expr, height = t, 0
        return expr, height, False

    def build(self, term: Term, d: int) -> str:
        """An expression building ``term``'s instance: rule variables are
        their locals; ground, ``Tup``-free subterms are shared constants."""
        out: list[tuple[str, int, bool]] = []  # (expression, height, shareable)
        work: list = [(None, term)]
        while work:
            kind, t = work.pop()
            if kind is None:
                t = deref(t)
                tt = type(t)
                if tt is Var:
                    out.append((self.local(t), 0, False))
                elif tt is Struct or tt is Tup:
                    work.append((tt, t))
                    work.extend((None, a) for a in reversed(t.args))
                elif tt is Cons:
                    cells = []
                    while type(t) is Cons:
                        cells.append(t)
                        t = deref(t.tail)
                    work.append((Cons, cells))
                    work.append((None, t))
                    work.extend((None, c.head) for c in reversed(cells))
                else:
                    out.append((self.const(t), 0, True))
            elif kind is Cons:
                out.append(self.build_list(t, out, d))
            else:
                n = len(t.args)
                kids = out[len(out) - n:]
                del out[len(out) - n:]
                if kind is Struct and all(shareable for _, _, shareable in kids):
                    out.append((self.const(t), 0, True))
                    continue
                inner = ", ".join(e for e, _, _ in kids)
                expr = (f"Struct({t.functor!r}, ({inner}{',' if n == 1 else ''}))"
                        if kind is Struct else f"Tup([{inner}])")
                out.append(self.spill(expr, 1 + max((h for _, h, _ in kids), default=0), d))
        return out[0][0]

    def build_list(self, cells: list, out: list, d: int) -> tuple[str, int, bool]:
        """A list literal from its elements' and tail's built forms (the
        last ``len(cells) + 1`` entries of ``out``, which it consumes): the
        longest shareable suffix is shared, runs of shareable elements are
        prepended by ``_prepend``, every other element gets its own cell."""
        n = len(cells)
        expr, height, shareable = out.pop()
        heads = out[len(out) - n:]
        del out[len(out) - n:]
        i = n
        if shareable:
            while i and heads[i - 1][2]:
                i -= 1
            if i == 0:
                return self.const(cells[0]), 0, True
            if i < n:
                expr, height = self.const(cells[i]), 0
        while i:
            k = i
            while k and heads[k - 1][2]:
                k -= 1
            if i - k >= _RUN:
                run = self.const(tuple(deref(c.head) for c in reversed(cells[k:i])))
                expr, height, i = f"_pre({run}, {expr})", height + 1, k
            else:
                i -= 1
                expr, height = f"Cons({heads[i][0]}, {expr})", 1 + max(height, heads[i][1])
            expr, height, _ = self.spill(expr, height, d)
        return expr, height, False

    # -- the function ------------------------------------------------------
    def source(self, fn: str) -> str:
        rule = self.rule
        code = [(0, f"def {fn}(args, blocked):")]
        arity = len(self.head_args)
        targets = self.head()
        head, self.lines = self.lines, []
        if arity:
            code.append((1, f"{', '.join(targets)}{',' if arity == 1 else ''} = args"))
        if self.dynamic:
            names = " = ".join(self.local(v) for v in self.dynamic.values())
            code.append((1, f"{names} = None"))
        head_blocks, self.blocks = self.blocks, False
        if head_blocks:
            code += [(1, "rb = []"), *head, (1, "if rb: blocked.extend(rb); return None")]
        else:
            code += head
        guards = [deref(g) for g in rule.guards]
        arith = any(type(g) is Struct and len(g.args) == 2 and g.functor in _COMPARISON_OPS
                    for g in guards)
        d = 2 if arith else 1
        failed = False
        for g in guards:
            if not self.guard(g, d):
                self.emit(d, "return None")
                failed = True
                break
        checks, self.lines = self.lines, []
        if self.blocks and not head_blocks:
            code.append((1, "rb = []"))
        code += [(1, f"{self.local(v)} = Var({v.name!r})")
                 for v in {id(v): v for v in self.guard_vars}.values()]
        if arith:
            code += [(1, "try:"), *checks, (1, "except ArithFail: return None")]
        else:
            code += checks
        if not failed:
            if self.blocks:
                code.append((1, "if rb: blocked.extend(rb); return None"))
            bound = set(self.names)
            for goal in rule.body:
                for v in term_vars(goal):
                    if id(v) not in bound:
                        bound.add(id(v))
                        code.append((1, f"{self.local(v)} = Var({v.name!r})"))
            goals = [self.build(goal, 1) for goal in rule.body]
            code += self.lines
            code.append((1, f"return ({', '.join(goals)}{',' if len(goals) == 1 else ''})"))
        text = []
        for (indent, line), (after, _) in zip(code, code[1:] + [(0, "")]):
            text.append(f"{'    ' * indent}{line}\n")
            if line.endswith(":") and after <= indent:
                text.append(f"{'    ' * (indent + 1)}pass\n")  # nothing to bind
        return "".join(text)
