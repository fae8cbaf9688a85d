"""The reducer half of the runtime core: what one reduction attempt does.

A reduction attempt dispatches a process goal to a *primitive* (a builtin
or a raw foreign procedure — a motif's runtime support), a foreign (Python)
procedure, or a user procedure of the :class:`CompiledProgram`.
User-rule selection goes through the compiled procedure's first-argument
index (see :mod:`repro.strand.compile`): the committed rule is always the
first *textually* matching one, exactly as the seed's linear scan chose, but
rules whose head could neither match nor suspend on the goal's first
argument are never visited.

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
from repro.strand.terms import Atom, Struct, Term, Var, deref

__all__ = ["Reducer", "REDUCTION_COST"]

#: Virtual time one user-rule reduction costs.
REDUCTION_COST = 1.0


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
        # dispatch lookup, and one accounting rule: a primitive inherits its
        # spawning rule's lib flag and motif tag.  Builtins win a name clash.
        self.primitives = {**foreign.raw_table(), **BUILTINS}

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
        goal = deref(process.goal)
        if type(goal) is Atom:
            goal = Struct(goal.name, ())
            process.goal = goal
        indicator = goal.indicator
        profile = engine.profile
        if profile is not None:
            profile.begin(process.motif, indicator)
        primitive = self.primitives.get(indicator)
        try:
            if primitive is not None:
                cost = primitive(engine, process, goal.args, now)
            else:
                foreign = self.foreign.lookup(*indicator)
                if foreign is not None:
                    cost = self._call_foreign(foreign, process, goal, now)
                else:
                    cost = self._reduce_user(process, goal, now)
        except Suspend as s:
            if profile is not None:
                profile.suspension()
            engine.scheduler.suspend(process, s.variables, now)
            return None
        if profile is not None:
            profile.reduction(cost)
        process.state = DONE
        engine.scheduler.live -= 1
        machine = engine.machine
        vp = machine.procs[process.proc - 1]
        if process.watched:
            vp.task_finished()
        if process.lib:
            machine.library_cost += cost
        else:
            machine.user_cost += cost
        if trace.enabled:
            trace.record(now, process.proc, "reduce", goal.functor,
                         motif=process.motif or "", dur=cost)
        return cost

    def _reduce_user(self, process: Process, goal: Struct, now: float) -> float:
        procedure = self.compiled.procedure(goal.indicator)
        if procedure is None:
            raise UnknownProcedureError(
                f"no procedure, builtin, or foreign function "
                f"{goal.functor}/{len(goal.args)} (goal: {process.describe()})"
            )
        selected = procedure.select(goal.args)  # raises Suspend when blocked
        if selected is None:
            from repro.strand.pretty import format_term

            raise ProcessFailureError(
                f"process {format_term(goal)} matches no rule of "
                f"{goal.functor}/{len(goal.args)} and can never match"
            )
        crule, env = selected
        rule_motif = crule.rule.motif
        if rule_motif is not None and rule_motif != process.motif:
            # Refine attribution to the committed rule's provenance tag (a
            # process reduces exactly once, so overwriting is safe).
            process.motif = rule_motif
            profile = self.engine.profile
            if profile is not None:
                profile.begin(rule_motif, goal.indicator)
        # Commit: spawn the body.
        cost = REDUCTION_COST
        fresh: dict[int, Var] = {}
        done = now + cost
        for builder in crule.body:
            self._spawn_body(builder(env, fresh), process, done)
        return cost

    def _spawn_body(self, inst: Term, parent: Process, ready: float) -> None:
        inst_d = deref(inst)
        if type(inst_d) is Atom:
            inst_d = Struct(inst_d.name, ())
        if type(inst_d) is not Struct:
            raise StrandError(
                f"body goal {inst_d!r} of {parent.describe()} is not callable"
            )
        indicator = inst_d.indicator
        if indicator in self.primitives:
            # Primitives inherit the spawning rule's accounting and provenance.
            lib: bool | None = parent.lib
            motif: str | None = parent.motif
        elif indicator in self.engine.library:
            lib = True
            motif = None
        else:
            lib = False
            motif = None
        self.engine.spawn(inst_d, parent.proc, ready=ready, lib=lib,
                          motif=motif)

    def _call_foreign(self, fp, process: Process, goal: Struct, now: float) -> float:
        engine = self.engine
        blocked: list[Var] = []
        values: list[Any] = []
        for idx in fp.inputs:
            try:
                values.append(to_python(goal.args[idx]))
            except NotGround as ng:
                blocked.append(ng.variable)
        if blocked:
            raise Suspend(blocked)
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
