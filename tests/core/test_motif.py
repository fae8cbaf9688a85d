"""Motif abstraction tests: M(A) = T(A) ∪ L, composition, metadata."""

import pytest

from repro.core.motif import ComposedMotif, Motif
from repro.errors import MotifError
from repro.strand.foreign import ForeignRegistry
from repro.strand.parser import parse_program
from repro.strand.program import Program, Rule
from repro.strand.terms import Struct
from repro.transform.transformation import Transformation


class Renaming(Transformation):
    """A transformation that tags every procedure by prefixing its name."""

    def __init__(self, name):
        self.name = name

    def apply(self, program):
        out = Program(name=program.name)
        for rule in program.rules():
            head = Struct(f"{self.name}_{rule.head.functor}", rule.head.args)
            out.add_rule(Rule(head, rule.guards, rule.body))
        return out


class TestApply:
    def test_library_only(self):
        motif = Motif("lib", library="helper(1).")
        applied = motif.apply(parse_program("user.", name="A"))
        assert ("helper", 1) in applied.program
        assert ("user", 0) in applied.program

    def test_transformation_only(self):
        motif = Motif("t", transformation=Renaming("x"))
        applied = motif.apply(parse_program("user."))
        assert ("x_user", 0) in applied.program
        assert ("user", 0) not in applied.program

    def test_application_not_mutated(self):
        app = parse_program("user.")
        Motif("lib", library="helper.").apply(app)
        assert ("helper", 0) not in app

    def test_collision_raises(self):
        motif = Motif("lib", library="user.")
        with pytest.raises(MotifError, match="lib"):
            motif.apply(parse_program("user."))

    def test_user_names_tracked(self):
        applied = Motif("lib", library="helper.").apply(parse_program("user."))
        assert applied.user_names == {"user"}
        assert ("helper", 0) in applied.library_indicators
        assert ("user", 0) not in applied.library_indicators

    def test_user_names_survive_arity_changes(self):
        # A transformation that changes a user procedure's arity keeps it
        # classified as user code (classification is by name).
        from repro.transform.argthread import ThreadArgument
        from repro.strand.terms import Struct

        motif = Motif(
            "srv",
            transformation=ThreadArgument(
                ops={("send", 2): lambda g, dt: [Struct("distribute", (*g.args, dt))]}
            ),
        )
        applied = motif.apply(parse_program("user(X) :- send(1, X)."))
        assert ("user", 2) in applied.program
        assert ("user", 2) not in applied.library_indicators

    def test_services_accumulate(self):
        m1 = Motif("a", services={("s", 1)})
        m2 = Motif("b", services={("t", 2)})
        applied = m2.apply(m1.apply(parse_program("user.")))
        assert applied.services == {("s", 1), ("t", 2)}

    def test_foreign_setup_chain(self):
        def setup(reg):
            reg.register("f", 1, lambda: 1, inputs=(), outputs=(0,))

        motif = Motif("with-foreign", foreign_setup=setup)
        applied = motif.apply(parse_program("user."))
        registry = applied.make_foreign()
        assert ("f", 1) in registry

    def test_make_foreign_does_not_mutate_base(self):
        def setup(reg):
            reg.register("f", 1, lambda: 1, inputs=(), outputs=(0,))

        base = ForeignRegistry()
        applied = Motif("m", foreign_setup=setup).apply(parse_program("user."))
        applied.make_foreign(base)
        assert ("f", 1) not in base


class TestCompose:
    def test_inner_applied_first(self):
        inner = Motif("inner", transformation=Renaming("i"))
        outer = Motif("outer", transformation=Renaming("o"))
        composed = outer.compose(inner)
        applied = composed.apply(parse_program("user."))
        assert ("o_i_user", 0) in applied.program

    def test_matmul_spelling(self):
        inner = Motif("inner", transformation=Renaming("i"))
        outer = Motif("outer", transformation=Renaming("o"))
        applied = (outer @ inner).apply(parse_program("user."))
        assert ("o_i_user", 0) in applied.program

    def test_outer_transformation_sees_inner_library(self):
        # The defining property: T2 applies to T1(A) ∪ L1.
        inner = Motif("inner", library="from_inner.")
        outer = Motif("outer", transformation=Renaming("o"))
        applied = (outer @ inner).apply(parse_program("user."))
        assert ("o_from_inner", 0) in applied.program

    def test_composition_is_associative(self):
        a = Motif("a", transformation=Renaming("a"))
        b = Motif("b", transformation=Renaming("b"))
        c = Motif("c", transformation=Renaming("c"))
        left = (c @ b) @ a
        right = c @ (b @ a)
        from repro.strand.pretty import format_program

        pa = left.apply(parse_program("user.")).program
        pb = right.apply(parse_program("user.")).program
        assert format_program(pa) == format_program(pb)

    def test_stages_flattened(self):
        a, b, c = Motif("a"), Motif("b"), Motif("c")
        composed = c @ (b @ a)
        assert [m.name for m in composed.stages()] == ["a", "b", "c"]

    def test_apply_staged_returns_intermediates(self):
        inner = Motif("inner", library="step_one.")
        outer = Motif("outer", library="step_two.")
        stages = (outer @ inner).apply_staged(parse_program("user."))
        assert len(stages) == 2
        assert ("step_one", 0) in stages[0].program
        assert ("step_two", 0) not in stages[0].program
        assert ("step_two", 0) in stages[1].program

    def test_empty_composition_rejected(self):
        with pytest.raises(MotifError):
            ComposedMotif([])

    def test_name_reads_outermost_first(self):
        a = Motif("a")
        b = Motif("b")
        assert (b @ a).name == "b ∘ a"
