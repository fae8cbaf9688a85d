"""Program-size accounting for the incremental-effort experiment (E7).

§3.6: "The first [tree reduction motif] is implemented with five lines of
code ... In contrast, the node evaluation code for the sequence alignment
application currently exceeds 2000 lines ... the use of motifs permits a
parallel version of our code to be developed with only a small incremental
effort."

We count *rules*, *body goals*, and *pretty-printed source lines* of (a)
the user-supplied application, (b) each motif stage's library, (c) the code
the transformations generate — quantifying the "small incremental effort".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.strand.pretty import format_program
from repro.strand.program import Program

__all__ = ["ProgramSize", "measure", "diff_generated"]


@dataclass(frozen=True)
class ProgramSize:
    """Size figures for one program (or program fragment)."""

    procedures: int
    rules: int
    goals: int
    lines: int

    def __add__(self, other: "ProgramSize") -> "ProgramSize":
        return ProgramSize(
            self.procedures + other.procedures,
            self.rules + other.rules,
            self.goals + other.goals,
            self.lines + other.lines,
        )


def measure(program: Program) -> ProgramSize:
    """Measure a whole program."""
    text = format_program(program)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("%")]
    return ProgramSize(
        procedures=len(program),
        rules=program.rule_count(),
        goals=program.goal_count(),
        lines=len(lines),
    )


def diff_generated(before: Program, after: Program) -> ProgramSize:
    """Size of what a transformation/link step *added or changed*: rules in
    ``after`` whose procedure is new, plus procedures whose rule text
    changed."""
    from repro.strand.pretty import format_rule

    before_text: dict[tuple[str, int], str] = {
        proc.indicator: "\n".join(format_rule(r) for r in proc.rules)
        for proc in before
    }
    added_procs = 0
    added_rules = 0
    added_goals = 0
    added_lines = 0
    for proc in after:
        text = "\n".join(format_rule(r) for r in proc.rules)
        if proc.indicator in before_text and before_text[proc.indicator] == text:
            continue
        added_procs += 1
        added_rules += len(proc.rules)
        added_goals += sum(len(r.guards) + len(r.body) for r in proc.rules)
        added_lines += len([ln for ln in text.splitlines() if ln.strip()])
    return ProgramSize(added_procs, added_rules, added_goals, added_lines)
