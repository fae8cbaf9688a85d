"""Per-motif / per-predicate cost profiling.

The paper's pitch is that motif layers are *readable archives of expertise*
— but a running composition (``Server ∘ Reliable ∘ Rand ∘ Tree1``) is a
soup of rewritten goals unless costs can be attributed back to the motif
layer that produced them.  A :class:`MotifProfile` aggregates, per
``(motif, predicate)`` pair:

* **reductions** — committed reduction attempts;
* **suspensions** — attempts that blocked on unbound variables;
* **messages** — explicit network traffic (remote spawns, port sends)
  issued while reducing that predicate;
* **busy** — virtual time charged.

Attribution follows rule provenance (see :mod:`repro.core.motif`): user
rules profile under ``"user"``; rules a motif's library or transformation
produced profile under the motif's name; builtins inherit the motif of the
rule that spawned them.  Profiling is off by default — the engine holds
``profile=None`` and the hot path pays one ``is not None`` check.
"""

from __future__ import annotations

__all__ = ["MotifProfile", "USER_TAG"]

#: Profile bucket for rules written by the application programmer.
USER_TAG = "user"


class MotifProfile:
    """Aggregated per-(motif, predicate) counters for one run."""

    __slots__ = ("rows", "context")

    def __init__(self):
        # (motif, "name/arity") -> [reductions, suspensions, messages, busy]
        self.rows: dict[tuple[str, str], list] = {}
        # Attribution context of the reduction currently executing
        # (set by the reducer, read by the engine's message paths).
        self.context: tuple[str, str] = (USER_TAG, "?")

    def _row(self, key: tuple[str, str]) -> list:
        row = self.rows.get(key)
        if row is None:
            row = [0, 0, 0, 0.0]
            self.rows[key] = row
        return row

    def begin(self, motif: str | None, indicator: tuple[str, int]) -> None:
        """Set the attribution context for the reduction about to run."""
        self.context = (motif or USER_TAG,
                        f"{indicator[0]}/{indicator[1]}")

    def reduction(self, cost: float) -> None:
        row = self._row(self.context)
        row[0] += 1
        row[3] += cost

    def suspension(self) -> None:
        self._row(self.context)[1] += 1

    def message(self) -> None:
        """One explicit message sent while reducing the current goal."""
        self._row(self.context)[2] += 1

    # -- reporting ----------------------------------------------------------
    @property
    def total_busy(self) -> float:
        return sum(row[3] for row in self.rows.values())

    def by_motif(self) -> dict[str, list]:
        """Collapse predicates: ``motif -> [red, susp, msgs, busy]``."""
        out: dict[str, list] = {}
        for (motif, _pred), row in self.rows.items():
            agg = out.setdefault(motif, [0, 0, 0, 0.0])
            for i in range(4):
                agg[i] += row[i]
        return out

    def table(self):
        """Render as an :class:`~repro.analysis.reporting.Table` (rows
        sorted by busy time, descending; per-motif subtotal notes)."""
        from repro.analysis.reporting import Table

        table = Table(
            "per-motif / per-predicate profile",
            ["motif", "predicate", "reductions", "suspensions",
             "messages", "busy", "busy%"],
        )
        total = self.total_busy or 1.0
        for (motif, pred), row in sorted(
            self.rows.items(), key=lambda kv: (-kv[1][3], kv[0])
        ):
            table.add(motif, pred, row[0], row[1], row[2], row[3],
                      100.0 * row[3] / total)
        for motif, agg in sorted(self.by_motif().items(),
                                 key=lambda kv: -kv[1][3]):
            table.note(
                f"{motif}: {agg[0]} reductions, {agg[2]} messages, "
                f"busy {agg[3]:.1f} ({100.0 * agg[3] / total:.1f}%)"
            )
        return table

    def render(self) -> str:
        return self.table().render()

    def __len__(self) -> int:
        return len(self.rows)
