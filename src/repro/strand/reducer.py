"""The reducer half of the runtime core: what one reduction attempt does.

A reduction attempt dispatches a process goal to a *primitive* (a builtin
or a raw foreign procedure — a motif's runtime support), a foreign (Python)
procedure, or a user procedure of the :class:`CompiledProgram`: the target
its engine linked once for the goal's indicator (:meth:`Reducer.link`).
User-rule selection is one call of the compiled procedure's generated
selection function (see :mod:`repro.strand.compile`): the committed rule is
always the first *textually* matching one, exactly as the seed's linear scan
chose, but rules whose head could neither match nor suspend on the goal are
never tried.  It returns the committed rule's body goals already built; the
reducer only spawns them.

Waiting is Strand's normal dataflow path, so the two common routes to it
return instead of raising: a user goal no rule can commit yet (selection
returns ``None`` and leaves the blocking variables in its ``blocked``
list) and a plain foreign call whose inputs are not yet ground.  Builtins,
raw foreign procedures and arithmetic suspend deep inside argument
evaluation and raise :class:`~repro.strand.arith.Suspend`, which
:meth:`Reducer.execute` catches.  Every route ends in the same suspend
bookkeeping (:meth:`Reducer._suspend`).

The reducer touches scheduling only through the engine facade (spawning
bodies, suspending on blocked variables); the :class:`Scheduler` decides
when the resulting processes actually run.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ProcessFailureError, StrandError, UnknownProcedureError
from repro.strand.arith import Suspend
from repro.strand.builtins import BUILTINS
from repro.strand.compile import CompiledProgram
from repro.strand.foreign import ForeignRegistry, NotGround, from_python, to_python
from repro.strand.scheduler import DONE, Process
from repro.strand.terms import Struct, Var

__all__ = ["Reducer", "REDUCTION_COST"]

#: Virtual time one user-rule reduction costs.
REDUCTION_COST = 1.0

#: Dispatch kinds of a link target (see :meth:`Reducer.link`).
PRIMITIVE, FOREIGN, USER, UNKNOWN = range(4)


class _LinkTable(dict):
    """``indicator -> target``; only a miss makes a Python call (a link)."""

    def __missing__(self, indicator):
        target = self[indicator] = self.link(indicator)
        return target


class Reducer:
    """Executes single reductions against a compiled program.

    ``engine`` is the facade builtins and foreign procedures are handed
    (they call ``engine.bind`` / ``engine.spawn`` / port operations);
    the reducer itself only reads program structure and charges costs.
    """

    def __init__(self, engine, compiled: CompiledProgram,
                 foreign: ForeignRegistry):
        self.engine = engine
        self.compiled = compiled
        self.foreign = foreign
        # Builtins and raw foreign procedures share one contract, one
        # dispatch kind, and one accounting rule: a primitive inherits its
        # spawning rule's lib flag and motif tag.  Builtins win a name clash.
        self.primitives = {**foreign.raw_table(), **BUILTINS}
        self.links = _LinkTable()
        self.links.link = self.link

    def link(self, indicator: tuple[str, int]) -> tuple:
        """``(kind, fn, lib, watched, motif)`` for ``indicator`` on this
        engine; ``self.links`` calls it once per indicator.  The target is,
        in this precedence, a builtin or raw foreign procedure
        (``PRIMITIVE``), a foreign one, a user :class:`CompiledProcedure`,
        or ``UNKNOWN`` (an error only once a goal is reduced).  ``lib``,
        ``watched`` and ``motif`` feed :meth:`StrandEngine.spawn`."""
        engine, compiled = self.engine, self.compiled
        kind, fn = PRIMITIVE, self.primitives.get(indicator)
        if fn is None:
            kind, fn = FOREIGN, self.foreign.lookup(*indicator)
        if fn is None:
            fn = compiled.procedure(indicator)
            kind = UNKNOWN if fn is None else USER
        return (kind, fn, indicator in engine.library,
                indicator in engine.watched, compiled.motif_of.get(indicator))

    def execute(self, process: Process, now: float) -> float | None:
        """One reduction attempt.  Returns the cost, or ``None`` if the
        process suspended."""
        engine = self.engine
        trace = engine.machine.trace
        if trace.enabled:
            # Causal context: events recorded during this reduction (spawns,
            # binds, sends, the reduce itself) link to the event that made
            # this process runnable.
            trace.cause = process.cause_evt
        goal = process.goal
        kind, fn, _lib, watched, _motif = process.target
        profile = engine.profile
        if profile is not None:
            profile.begin(process.motif, (goal.functor, len(goal.args)))
        try:
            if kind is USER:
                cost = self._reduce_user(process, goal, fn, now)
            elif kind is PRIMITIVE:
                cost = fn(engine, process, goal.args, now)
            elif kind is FOREIGN:
                cost = self._call_foreign(fn, process, goal, now)
            else:
                raise UnknownProcedureError(
                    f"no procedure, builtin, or foreign function "
                    f"{goal.functor}/{len(goal.args)} "
                    f"(goal: {process.describe()})"
                )
        except Suspend as s:
            # Builtins, raw foreign procedures and arithmetic suspend deep
            # inside argument evaluation, so they raise.
            self._suspend(process, s.variables, now)
            return None
        if cost is None:  # selection or a foreign call suspended it
            return None
        if profile is not None:
            profile.reduction(cost)
        process.state = DONE
        vp = engine.machine.procs[process.proc - 1]
        if watched:
            vp.task_finished()
        if process.lib:
            vp.library_cost += cost
        if trace.enabled:
            trace.record(now, process.proc, "reduce", goal.functor,
                         motif=process.motif or "", dur=cost)
        return cost

    def _suspend(self, process: Process, variables: list[Var], now: float) -> None:
        """Suspend ``process`` on ``variables``: the bookkeeping every route
        that suspends a reduction attempt shares."""
        engine = self.engine
        if engine.profile is not None:
            engine.profile.suspension()
        engine.scheduler.suspend(process, variables, now)

    def _reduce_user(self, process: Process, goal: Struct, procedure,
                     now: float) -> float | None:
        blocked: list[Var] = []
        selected = procedure.select(goal.args, blocked)
        if selected is None:
            if blocked:
                self._suspend(process, blocked, now)
                return None
            from repro.strand.pretty import format_term

            raise ProcessFailureError(
                f"process {format_term(goal)} matches no rule of "
                f"{goal.functor}/{len(goal.args)} and can never match"
            )
        crule, goals = selected
        rule_motif = crule.rule.motif
        if rule_motif is not None and rule_motif != process.motif:
            # Refine attribution to the committed rule's provenance tag (a
            # process reduces exactly once, so overwriting is safe).
            process.motif = rule_motif
            profile = self.engine.profile
            if profile is not None:
                profile.begin(rule_motif, (goal.functor, len(goal.args)))
        # Commit: spawn the body.
        self.engine.spawn_body(goals, process, now + REDUCTION_COST)
        return REDUCTION_COST

    def _call_foreign(self, fp, process: Process, goal: Struct,
                      now: float) -> float | None:
        engine = self.engine
        blocked: list[Var] = []
        values: list[Any] = []
        for idx in fp.inputs:
            try:
                values.append(to_python(goal.args[idx]))
            except NotGround as ng:
                blocked.append(ng.variable)
        if blocked:
            self._suspend(process, blocked, now)
            return None
        cost = fp.cost_for(values)
        result = fp.fn(*values)
        outputs = fp.outputs
        if outputs:
            if len(outputs) == 1:
                results = (result,)
            else:
                if not isinstance(result, tuple) or len(result) != len(outputs):
                    raise StrandError(
                        f"foreign {fp.name}/{fp.arity} must return a tuple of "
                        f"{len(outputs)} values"
                    )
                results = result
            for idx, value in zip(outputs, results):
                engine.bind(goal.args[idx], from_python(value), process.proc, now)
        return cost
