"""Pretty-printer for terms, rules, and programs.

The printer round-trips with the parser (``parse(format(x)) == x`` up to
variable renaming); this is tested property-style, and it is what lets a
motif's output be *read* — the paper's whole argument is that motif
libraries should be legible artifacts.

Within one rule, distinct variables are guaranteed distinct printed names
(and ``_`` is reserved for variables occurring exactly once), so that
re-parsing the text reconstructs the same sharing structure.
"""

from __future__ import annotations

from repro.strand.program import Program, Rule
from repro.strand.terms import Atom, Cons, NIL, Struct, Term, Tup, Var, deref

__all__ = ["format_term", "format_rule", "format_program"]

# Operators printed infix, with their precedence (higher binds tighter).
_INFIX = {
    "@": 1,
    ":=": 2,
    "<": 3,
    ">": 3,
    "=<": 3,
    ">=": 3,
    "==": 3,
    "\\==": 3,
    "=\\=": 3,
    "=:=": 3,
    "+": 4,
    "-": 4,
    "*": 5,
    "/": 5,
    "//": 5,
    "mod": 5,
}

_LOWER = set("abcdefghijklmnopqrstuvwxyz")


def _atom_needs_quotes(name: str) -> bool:
    if not name:
        return True
    if name[0] not in _LOWER:
        return True
    return not all(c.isalnum() or c == "_" for c in name)


class _VarNames:
    """Assigns collision-free display names to variables within one scope."""

    def __init__(self) -> None:
        self.names: dict[int, str] = {}
        self.used: set[str] = set()

    def name_of(self, var: Var) -> str:
        key = id(var)
        name = self.names.get(key)
        if name is not None:
            return name
        base = var.name or "_V"
        if base == "_":
            base = "_U"
        if not (base[0].isupper() or base[0] == "_"):
            base = "_" + base
        name = base
        i = 1
        while name in self.used:
            i += 1
            name = f"{base}{i}"
        self.used.add(name)
        self.names[key] = name
        return name


def format_term(term: Term, parent_prec: int = 0, names: _VarNames | None = None) -> str:
    """Render a term in concrete syntax."""
    if names is None:
        names = _VarNames()
    term = deref(term)
    t = type(term)
    if t is Var:
        return names.name_of(term)
    if t is Atom:
        if term is NIL:
            return "[]"
        name = term.name
        if _atom_needs_quotes(name):
            escaped = name.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return name
    if t is int or t is float:
        if term < 0:
            return f"({term})" if parent_prec > 0 else str(term)
        return str(term)
    if t is str:
        escaped = term.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if t is Cons:
        return _format_list(term, names)
    if t is Tup:
        inner = ", ".join(format_term(a, 0, names) for a in term.args)
        return "{" + inner + "}"
    if t is Struct:
        prec = _INFIX.get(term.functor)
        if prec is not None and len(term.args) == 2:
            left = format_term(term.args[0], prec, names)
            right = format_term(term.args[1], prec + 1, names)
            text = f"{left} {term.functor} {right}"
            if prec < parent_prec:
                return f"({text})"
            return text
        name = term.functor
        if _atom_needs_quotes(name):
            escaped = name.replace("\\", "\\\\").replace("'", "\\'")
            name = f"'{escaped}'"
        if not term.args:
            return name
        inner = ", ".join(format_term(a, 0, names) for a in term.args)
        return f"{name}({inner})"
    # Opaque runtime objects (ports, foreign handles) appearing in error
    # messages: render as a quoted atom so the output stays parseable-ish.
    escaped = repr(term).replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _format_list(term: Term, names: _VarNames) -> str:
    items: list[str] = []
    term = deref(term)
    while type(term) is Cons:
        items.append(format_term(term.head, 0, names))
        term = deref(term.tail)
    if term is NIL:
        return "[" + ", ".join(items) + "]"
    return "[" + ", ".join(items) + " | " + format_term(term, 0, names) + "]"


def format_rule(rule: Rule) -> str:
    """Render one rule; bodies longer than two goals go one-per-line."""
    names = _VarNames()
    head = format_term(rule.head, 0, names)
    if not rule.guards and not rule.body:
        return f"{head}."
    lines: list[str] = []
    if rule.guards:
        lines.append(", ".join(format_term(g, 0, names) for g in rule.guards) + " |")
    if rule.body:
        if len(rule.body) > 2:
            lines.append(",\n    ".join(format_term(b, 0, names) for b in rule.body))
        else:
            lines.append(", ".join(format_term(b, 0, names) for b in rule.body))
    joined = "\n    ".join(lines)
    return f"{head} :-\n    {joined}."


def format_program(program: Program) -> str:
    """Render a whole program, one procedure per block."""
    blocks: list[str] = []
    for proc in program:
        lines = [format_rule(rule) for rule in proc.rules]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + ("\n" if blocks else "")
