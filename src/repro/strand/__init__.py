"""The Strand-dialect substrate: terms, parser, pretty-printer, and the
committed-choice reduction engine on a virtual multicomputer.

Quick taste (Figure 1 of the paper)::

    from repro.strand import parse_program, run_query

    program = parse_program('''
        go(N) :- producer(N, Xs, sync), consumer(Xs).
        producer(N, Xs, _Sync) :- N > 0 |
            Xs := [X | Xs1], N1 := N - 1, producer(N1, Xs1, X).
        producer(0, Xs, _) :- Xs := [].
        consumer([X | Xs]) :- X := sync, consumer(Xs).
        consumer([]).
    ''')
    run_query(program, "go(4)")
"""

from repro.strand.compile import (
    CompiledProcedure,
    CompiledProgram,
    CompiledRule,
    compile_program,
)
from repro.strand.engine import Process, QueryResult, StrandEngine, run_query
from repro.strand.lint import LintWarning, lint_program
from repro.strand.stdlib import STDLIB_SOURCE, stdlib
from repro.strand.foreign import ForeignProcedure, ForeignRegistry, from_python, to_python
from repro.strand.parser import parse_program, parse_query, parse_rule, parse_term
from repro.strand.pretty import format_program, format_rule, format_term
from repro.strand.program import Procedure, Program, Rule
from repro.strand.streams import PortRef, stream_items
from repro.strand.terms import (
    Atom,
    Cons,
    NIL,
    Struct,
    Term,
    Tup,
    Var,
    deref,
    iter_list,
    make_list,
    term_eq,
    term_vars,
)

__all__ = [
    "Atom",
    "Cons",
    "NIL",
    "Struct",
    "Term",
    "Tup",
    "Var",
    "deref",
    "iter_list",
    "make_list",
    "term_eq",
    "term_vars",
    "Program",
    "Procedure",
    "Rule",
    "parse_program",
    "parse_query",
    "parse_rule",
    "parse_term",
    "format_term",
    "format_rule",
    "format_program",
    "StrandEngine",
    "Process",
    "QueryResult",
    "run_query",
    "CompiledProgram",
    "CompiledProcedure",
    "CompiledRule",
    "compile_program",
    "lint_program",
    "LintWarning",
    "stdlib",
    "STDLIB_SOURCE",
    "ForeignRegistry",
    "ForeignProcedure",
    "to_python",
    "from_python",
    "PortRef",
    "stream_items",
]
