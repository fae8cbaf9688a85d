"""Python source for compiled procedures: one ``select(args, blocked)``
function per procedure, written by :class:`ProcedureWriter` and loaded by
:mod:`repro.strand.compile`.

The function returns ``(rule, goals)`` for the first rule, in textual
order, that commits: ``rule`` is the global ``r<order>`` (the compiled
rule) and ``goals`` the tuple of its instantiated body goals.  Otherwise it
returns ``None``, having appended the blocking caller variables of the
undecided rules to ``blocked`` in the order a rule-by-rule scan meets them
(a rule that definitely fails appends nothing; a variable may be appended
more than once).  The code has three levels:

* **the switch.**  The first argument whose head patterns tell the rules
  apart is dereferenced once.  A consecutive run of rules whose pattern
  there has one principal functor (and whose other head arguments are
  plain first-occurrence variables) is entered by one test of that
  functor, which unpacks the pattern's children once for the run; runs of
  distinct functors form one ``if``/``elif`` chain.  Every other rule (a
  variable at the switch argument, or other head arguments to test) sits
  between the chains, once, and every goal reaches it.  An unbound switch
  argument blocks the chained rules, so it is appended once, where the
  first of them would append it, and those rules are skipped;
* **groups.**  Consecutive rules whose heads are equal up to renaming
  match the head once, with its variables as Python locals, then try
  their guards in turn;
* **rules.**  Each rule of a group tests its guards and builds its body.

A block of code that can fail or block leaves by ``return`` when nothing
follows it in the function, and otherwise sits in a ``while True:`` that it
leaves by ``break`` (:func:`_place`).  Within a group:

* **head patterns** are straight-line type and identity tests, all at the
  group's top level: a structure, tuple or list cell is one block that
  unpacks its children into locals, matched after it; the children of a
  parent that blocked read ``_S`` and their tests pass over them.  A list
  pattern is walked by a cursor, one block per element; a run of
  ground elements is matched by one ``_mr`` call and a ground compound
  subpattern by one ``_mv`` call.  A variable is the local its value is
  read into (``a<i>`` for a head argument).  A repeated variable is
  compared by ``_mv`` where it occurs again; if its first occurrence is
  nested it starts as ``None`` and the first occurrence the match reaches
  binds it;
* **guards** are inline.  An arithmetic comparison evaluates its sides in
  ``eval_arith``'s order without building the expression term, calling
  :mod:`arith`'s operator functions (:data:`OPERATORS`), and leaves the
  right side unread when the left side blocks; ``==``/``\\==`` call
  ``_ge``; type tests and ``known`` test the dereferenced local;
* **body goals** are built by ``Struct``/``Cons``/``Tup`` calls; ground,
  ``Tup``-free subterms are shared constants.  Guard-only variables are
  created before the guards, body-only ones before the body.

Besides :data:`OPERATORS`, ``Var``, ``Struct``, ``Tup``, ``Cons``, ``Atom``,
``NIL``, ``ArithFail``, the rules ``r<order>`` and the constants the writer
names (through its ``const`` callback), the code calls the runtime helpers
the compile layer binds: ``_U`` (the unbound marker), ``_S`` (a skipped
subpattern), ``_mv`` (``_match_values``), ``_mr`` (``_match_run``),
``_pre`` (``_prepend``), ``_ge`` (``terms._ground_equal``) and ``_ev``
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

__all__ = ["ProcedureWriter", "GUARD_TESTS", "OPERATORS"]


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

#: The exit of a block that fails or blocks, until :func:`_place` puts it.
_EXIT = "\x00"

#: Statements that cannot follow a block header on its line.
_COMPOUND = ("if ", "elif ", "else", "while ", "try", "except", "def ")


def _place(lines: list, at_end: bool) -> list:
    """Resolve the exits of a block of ``(indent, line)`` code: ``return``
    when nothing follows the block in the function, else ``break`` out of
    a ``while True:`` put around it."""
    if not any(_EXIT in line for _, line in lines):
        return lines
    if at_end:
        return [(indent, line.replace(_EXIT, "return")) for indent, line in lines]
    body = [(indent + 1, line.replace(_EXIT, "break")) for indent, line in lines]
    indent, last = lines[-1]
    if indent or not (last.startswith("return") or last == _EXIT):
        body.append((1, "break"))
    return [(0, "while True:"), *body]


def _shift(lines: list, by: int) -> list:
    return [(indent + by, line) for indent, line in lines]


def _render(code: list) -> str:
    """The text of ``(indent, line)`` code: a block of one simple statement
    goes on its header's line, and an empty block gets ``pass``."""
    text = []
    i, n = 0, len(code)
    while i < n:
        indent, line = code[i]
        if line.endswith(":"):
            after = code[i + 1][0] if i + 1 < n else 0
            if after <= indent:
                text.append(f"{'    ' * indent}{line}\n{'    ' * (indent + 1)}pass\n")
                i += 1
                continue
            only = code[i + 1][1]
            if (not line.startswith("def ") and (i + 2 == n or code[i + 2][0] <= indent)
                    and not only.endswith(":") and not only.startswith(_COMPOUND)):
                text.append(f"{'    ' * indent}{line} {only}\n")
                i += 2
                continue
        text.append(f"{'    ' * indent}{line}\n")
        i += 1
    return "".join(text)


def _shape(term: Term, numbering: dict[int, int]) -> tuple:
    """A flat, hashable pre-order key of ``term`` with its variables
    numbered by first occurrence in ``numbering`` (which grows): two heads
    get equal keys exactly when they are equal up to renaming."""
    out: list = []
    stack = [term]
    while stack:
        t = deref(stack.pop())
        tt = type(t)
        if tt is Var:
            n = numbering.get(id(t))
            if n is None:
                n = numbering[id(t)] = len(numbering)
            out.append(n)
        elif tt is Struct:
            out.append(("f", t.functor, len(t.args)))
            stack.extend(reversed(t.args))
        elif tt is Tup:
            out.append(("t", len(t.args)))
            stack.extend(reversed(t.args))
        elif tt is Cons:
            out.append(("c",))
            stack.append(t.tail)
            stack.append(t.head)
        else:
            out.append(("k", tt, t))
    return tuple(out)


def _key(pattern: Term) -> tuple | None:
    """The principal functor of a dereffed head pattern; ``None`` for a
    variable.  Equal keys are the patterns one switch test admits (``1``
    and ``1.0`` included)."""
    tp = type(pattern)
    if tp is Var:
        return None
    if tp is Cons:
        return ("c",)
    if tp is Tup:
        return ("t", len(pattern.args))
    if tp is Struct:
        return ("f", pattern.functor, len(pattern.args))
    if tp is int or tp is float:
        return ("n", pattern)
    return ("k", tp, pattern)


def _children(pattern: Term) -> list:
    tp = type(pattern)
    if tp is Cons:
        return [pattern.head, pattern.tail]
    if tp is Struct or tp is Tup:
        return list(pattern.args)
    return []


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


class _Group:
    """Consecutive rules whose heads are equal up to renaming: their
    orders and each one's head-variable numbering."""

    def __init__(self, order: int, shape: tuple, numbering: dict[int, int]):
        self.shape = shape
        self.orders = [order]
        self.numberings = [numbering]


class ProcedureWriter:
    """Writes one procedure's ``select(args, blocked)`` function: the
    switch over its groups (see the module docstring).  Temporaries and
    locals are numbered across the whole function."""

    def __init__(self, rules: list[Rule], arity: int, const: Callable[[Any], str]):
        self.rules = rules
        self.arity = arity
        self.const = const
        self.temps = 0
        self.locals = 0

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def local(self, var: Var) -> str:
        self.locals += 1
        return f"{var.name if var.name.isidentifier() else 'V'}_{self.locals}"

    def source(self, fn: str = "select") -> str:
        groups: list[_Group] = []
        for order, rule in enumerate(self.rules):
            numbering: dict[int, int] = {}
            shape = _shape(rule.head, numbering)
            if groups and groups[-1].shape == shape:
                groups[-1].orders.append(order)
                groups[-1].numberings.append(numbering)
            else:
                groups.append(_Group(order, shape, numbering))
        heads = [[deref(a) for a in rule.head.args] for rule in self.rules]
        k = next((j for j in range(self.arity) if len({_key(h[j]) for h in heads}) > 1), None)
        # Segments: a group every goal reaches, or a chain of runs
        # ``(key, [groups])`` entered by switch tests.
        segments: list = []
        for group in groups:
            key = None if k is None else self.switch_key(heads[group.orders[0]], k)
            if key is None:
                segments.append(group)
                continue
            chain = segments[-1] if segments and type(segments[-1]) is list else None
            if chain is not None and chain[-1][0] == key:
                chain[-1][1].append(group)
            elif chain is not None and all(key != other for other, _ in chain):
                chain.append((key, [group]))
            else:
                segments.append([(key, [group])])
        code = [(0, f"def {fn}(args, blocked):")]
        if self.arity:
            names = ", ".join(f"a{i}" for i in range(self.arity))
            code.append((1, f"{names}{',' if self.arity == 1 else ''} = args"))
        chains = [i for i, segment in enumerate(segments) if type(segment) is list]
        switch = f"a{k}" if chains else None
        if switch:
            code.append((1, _DEREF.format(switch)))
        derefed = {switch}
        for i, segment in enumerate(segments):
            at_end = i == len(segments) - 1
            if type(segment) is not list:
                writer = _GroupWriter(self, segment, derefed)
                code += _shift(writer.code(None, at_end), 1)
                continue
            branch = "if"
            if i == chains[0]:
                rest = at_end or any(type(s) is not list for s in segments[i + 1:])
                code.append((1, f"if type({switch}) is Var: blocked.append({switch})"
                                + ("" if rest else "; return")))
                branch = "elif"
            for _, run in segment:
                pattern = heads[run[0].orders[0]][k]
                code.append((1, f"{branch} {self.key_test(pattern, switch)}:"))
                code += _shift(self.run(run, k, pattern, switch, derefed, at_end), 2)
                branch = "elif"
        return _render(code)

    def switch_key(self, head: list[Term], k: int) -> tuple | None:
        """The key of a chained rule; ``None`` when the rule is not chained:
        a variable at ``k``, or another head argument that is not a plain
        first occurrence of a variable (it must be tested, in order,
        whether or not the switch argument is bound)."""
        _, occurrences = _head_scan(head)
        first: dict[int, int | None] = {}
        for var, top in occurrences:
            first.setdefault(id(var), top)
        if any(j != k and (type(p) is not Var or first[id(p)] != j) for j, p in enumerate(head)):
            return None
        return _key(head[k])

    def key_test(self, pattern: Term, x: str) -> str:
        tp = type(pattern)
        if tp is Cons:
            return f"type({x}) is Cons"
        if tp is Tup:
            return f"type({x}) is Tup and len({x}.args) == {len(pattern.args)}"
        if tp is Struct:
            return (f"type({x}) is Struct and {x}.functor == {pattern.functor!r}"
                    f" and len({x}.args) == {len(pattern.args)}")
        k = self.const(pattern)
        if tp is Atom:
            return f"{x} is {k}"
        if tp is str:
            return f"type({x}) is str and {x} == {k}"
        return f"(type({x}) is int or type({x}) is float) and {x} == {k}"

    def run(self, groups: list[_Group], k: int, pattern: Term, switch: str,
            derefed: set, at_end: bool) -> list:
        """One run's branch: the children of the switch pattern, unpacked
        once into locals named after the first group's, then each group."""
        kids = [deref(kid) for kid in _children(pattern)]
        writers = [_GroupWriter(self, group, derefed) for group in groups]
        temps: list[str | None] = []
        for j, kid in enumerate(kids):
            if any(writer.needs(k, j) for writer in writers):
                temps.append(self.local(kid) if type(kid) is Var else self.temp())
            else:
                temps.append(None)
        code = []
        if type(pattern) is Cons:
            taken = [f"{t} = {switch}.{field}" for t, field in zip(temps, ("head", "tail")) if t]
            if taken:
                code.append((0, "; ".join(taken)))
        elif any(temps):
            targets = ", ".join(t or "_" for t in temps)
            code.append((0, f"{targets}{',' if len(temps) == 1 else ''} = {switch}.args"))
        for i, writer in enumerate(writers):
            code += writer.code((k, temps), at_end and i == len(writers) - 1)
        return code


class _GroupWriter:
    """Writes one group's code: the head match, then each rule's guards
    and body build, with the group's variables as Python locals.  Code is
    kept as ``(indent, line)`` pairs; exits are placed by :func:`_place`.
    """

    def __init__(self, proc: ProcedureWriter, group: _Group, derefed: set):
        self.proc = proc
        self.const = proc.const
        self.group = group
        self.rules = [proc.rules[order] for order in group.orders]
        self.derefed = derefed
        #: Locals other code reads too: never reassigned, only dereffed.
        self.fixed = {f"a{i}" for i in range(proc.arity)}
        self.lines: list[tuple[int, str]] = []
        self.names: dict[int, str] = {}
        self.blocks = False  # some emitted test can append to ``rb``
        self.raises = False  # some emitted guard code can raise ArithFail
        self.head_args = [deref(a) for a in self.rules[0].head.args]
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
        # Each rule's head variables -> the first rule's.
        by_number = {group.numberings[0][id(var)]: var for var, _ in occurrences}
        self.alias = []
        for rule, numbering in zip(self.rules, group.numberings):
            self.alias.append({id(v): by_number[numbering[id(v)]] for v in term_vars(rule.head)})
        self.used: set[int] = set()
        for rule, alias in zip(self.rules, self.alias):
            for term in (*rule.guards, *rule.body):
                self.used.update(id(alias[id(v)]) for v in term_vars(term) if id(v) in alias)

    # -- small helpers -----------------------------------------------------
    def emit(self, indent: int, line: str) -> None:
        self.lines.append((indent, line))

    def temp(self) -> str:
        return self.proc.temp()

    def local(self, var: Var) -> str:
        name = self.names.get(id(var))
        if name is None:
            name = self.names[id(var)] = self.proc.local(var)
        return name

    def deref(self, indent: int, x: str) -> None:
        if x not in self.derefed:
            self.emit(indent, _DEREF.format(x))

    def needs(self, k: int, j: int) -> bool:
        """Whether the head reads child ``j`` of its pattern at ``k``."""
        kid = deref(_children(self.head_args[k])[j])
        return not (type(kid) is Var and self.count[id(kid)] == 1 and id(kid) not in self.used)

    def fail_unless(self, x: str, skip: bool) -> None:
        """The ``else`` branch of a failed test of ``x``: block on a
        variable, otherwise fail (unless the cursor was skipped)."""
        self.blocks = True
        self.emit(2, f"if type({x}) is Var: rb.append({x})")
        self.emit(2, f"elif {x} is not _S: {_EXIT}" if skip else f"else: {_EXIT}")

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

    # -- the group ---------------------------------------------------------
    def code(self, known: tuple | None, at_end: bool) -> list:
        """The group's code.  ``known`` is ``(k, locals)`` when a switch
        test admitted the pattern at ``k`` and unpacked its children into
        ``locals``; ``at_end`` when nothing follows the group."""
        self.head(known)
        head, head_blocks = _shift(self.lines, -1), self.blocks
        code = []
        if self.dynamic:
            code.append((0, f"{' = '.join(self.local(v) for v in self.dynamic.values())} = None"))
        if head_blocks:
            code += [(0, "rb = []"), *head, (0, f"if rb: blocked.extend(rb); {_EXIT}")]
        else:
            code += head
        head_names = self.names
        last = len(self.rules) - 1
        for i, rule in enumerate(self.rules):
            self.names = {vid: head_names[id(v)] for vid, v in self.alias[i].items()
                          if id(v) in head_names}
            section = self.rule(i, rule, reuse_rb=i == 0 and head_blocks)
            code += section if i == last else _place(section, False)
        return _place(code, at_end)

    def rule(self, i: int, rule: Rule, reuse_rb: bool) -> list:
        """One rule's guards and body build; its exits go to the next rule."""
        self.lines, self.blocks, self.raises = [], False, False
        alias = self.alias[i]
        guard_vars = {id(v): v for g in rule.guards for v in term_vars(g) if id(v) not in alias}
        failed = False
        for g in rule.guards:
            if not self.guard(g, 1):
                self.emit(1, _EXIT)
                failed = True
                break
        checks = self.lines
        code = [(0, "rb = []")] if self.blocks and not reuse_rb else []
        code += [(0, f"{self.local(v)} = Var({v.name!r})") for v in guard_vars.values()]
        if self.raises:
            code += [(0, "try:"), *checks, (0, f"except ArithFail: {_EXIT}")]
        else:
            code += _shift(checks, -1)
        if failed:
            return code
        if self.blocks:
            code.append((0, f"if rb: blocked.extend(rb); {_EXIT}"))
        bound = set(self.names)
        for goal in rule.body:
            for v in term_vars(goal):
                if id(v) not in bound:
                    bound.add(id(v))
                    code.append((0, f"{self.local(v)} = Var({v.name!r})"))
        self.lines = []
        goals = [self.build(goal, 0) for goal in rule.body]
        code += self.lines
        order = self.group.orders[i]
        code.append((0, f"return r{order}, ({', '.join(goals)}{',' if len(goals) == 1 else ''})"))
        return code

    # -- head --------------------------------------------------------------
    def head(self, known: tuple | None) -> None:
        """Emit the head match (at indent 1).

        Every test sits at the group's top level: a compound pattern or
        list cell is one block that unpacks its children into locals, and
        the children are matched after it.  When a parent blocks, its
        children read ``_S`` and their tests pass over them.
        """
        work: list = []
        for i, p in enumerate(self.head_args):
            if known is not None and i == known[0]:
                # The switch test admitted this pattern and unpacked its children.
                for kid, t in zip(_children(p), known[1]):
                    kid = deref(kid)
                    if type(kid) is Var and self.count[id(kid)] == 1:
                        self.seen.add(id(kid))
                        if id(kid) in self.used:
                            self.names[id(kid)] = t
                    else:
                        work.append(("match", kid, t, False))
                self.fixed.update(t for t in known[1] if t)
                continue
            if type(p) is Var and self.first_arg[id(p)] == i:
                # A first occurrence no match can skip: the argument itself.
                self.seen.add(id(p))
                self.names[id(p)] = f"a{i}"
                continue
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

    def match_var(self, var: Var, x: str, skip: bool) -> None:
        key = id(var)
        if key not in self.seen:
            self.seen.add(key)
            if self.count[key] == 1:
                if key in self.used:
                    self.names[key] = x  # nothing reassigns ``x`` after this
                return
            name = self.local(var)
            if skip and key in self.dynamic:
                self.emit(1, f"if {x} is not _S: {name} = {x}")
            else:
                self.emit(1, f"{name} = {x}")
            return
        name = self.local(var)
        self.blocks = True
        if key in self.dynamic:
            branch = "if"
            if skip:
                self.emit(1, f"if {x} is _S: pass")
                branch = "elif"
            self.emit(1, f"{branch} {name} is None: {name} = {x}")
            self.emit(1, f"elif not _mv({name}, {x}, rb): {_EXIT}")
        else:
            test = f"not _mv({name}, {x}, rb)"
            self.emit(1, f"if {x} is not _S and {test}: {_EXIT}" if skip
                      else f"if {test}: {_EXIT}")

    def match_ground(self, p: Term, x: str, skip: bool) -> None:
        tp = type(p)
        k = self.const(p)
        if tp is Struct or tp is Tup or tp is Cons:
            self.blocks = True
            test = f"not _mv({k}, {x}, rb)"
            self.emit(1, f"if {x} is not _S and {test}: {_EXIT}" if skip
                      else f"if {test}: {_EXIT}")
            return
        self.deref(1, x)
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
        self.deref(1, x)
        self.emit(1, f"if {test}: {unpacked}{',' if n == 1 else ''} = {x}.args")
        self.emit(1, "else:")
        if temps:
            self.emit(2, f"{' = '.join(temps)} = _S")
        self.fail_unless(x, skip)
        return items

    def match_list(self, p: Cons, x: str, skip: bool) -> list:
        """A list pattern with variables inside, walked by a cursor: one
        block per element, one ``_match_run`` per run of ground elements,
        and one ``_match_values`` for a ground suffix.  A cursor whose
        spine blocked becomes ``_S``.  The cursor is ``x`` itself unless
        other code reads ``x`` too."""
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
        src, cur = x, (self.temp() if x in self.fixed else x)
        items: list = []
        i = 0
        while i < j:
            k = i
            while k < j and ground[k]:
                k += 1
            if k - i >= _RUN:
                run = self.const(tuple(heads[i:k]))
                items.append(("line", 1, f"{cur} = _mr({run}, {src}, rb)"))
                items.append(("line", 1, f"if {cur} is None: {_EXIT}"))
                self.blocks, skip, i, src = True, True, k, cur
                continue
            kid: list = []
            h = self.unpack(heads[i], kid)
            take = f"{h} = {src}.head; {cur} = {src}.tail" if h else f"{cur} = {src}.tail"
            if src not in self.derefed:
                items.append(("line", 1, _DEREF.format(src)))
            items += [("line", 1, f"if type({src}) is Cons: {take}"),
                      ("line", 1, "else:")]
            if kid:
                items.append(("line", 2, f"{h} = _S"))
            items += [
                ("line", 2, f"if type({src}) is Var: rb.append({src}); {cur} = _S"),
                ("line", 2, f"elif {src} is not _S: {_EXIT}" if skip else f"else: {_EXIT}"),
                *kid,
            ]
            self.blocks, skip, i, src = True, True, i + 1, cur
        if j < n:
            test = f"not _mv({self.const(cells[j])}, {src}, rb)"
            items.append(("line", 1, f"if {src} is not _S and {test}: {_EXIT}" if skip
                          else f"if {test}: {_EXIT}"))
        else:
            items.append(("match", tail, src, skip))
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
            self.emit(d, f"if {decided} and {'not ' if name == '==' else ''}{equal}: {_EXIT}")
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
                self.emit(d, f"elif not ({_TYPE_TESTS[name].format(t)}): {_EXIT}")
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
        self.emit(d, f"if {' and '.join(checks)}: {_EXIT}")

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
                self.raises = True
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
                self.blocks = self.raises = True
                out.append((v, True))
            elif tt is Struct and (t.functor, len(t.args)) in ARITH_FUNCTORS:
                work.append((True, t))
                work.extend((False, a) for a in reversed(t.args))
            else:
                # Not arithmetic: evaluation fails here (ArithFail); what
                # follows is never reached.
                self.emit(d, _EXIT)
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
