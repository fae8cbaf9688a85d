"""The motif abstraction — the paper's primary contribution.

A motif is a pair ``M = (T, L)`` of a source-to-source transformation and a
library program; applying it to an application ``A`` yields the program

    M(A) = T(A) ∪ L .

Because the output is itself a program, motifs compose:

    (M₂ ∘ M₁)(A) = M₂(M₁(A)) = T₂( T₁(A) ∪ L₁ ) ∪ L₂ ,

spelled ``m2 @ m1`` and written outermost first, as the paper writes its
stacks (``server_motif() @ rand_motif() @ tree1_motif()`` is
Tree-Reduce-1 = Server ∘ Rand ∘ Tree1).

Beyond the pair, a :class:`Motif` carries the *runtime metadata* an engine
needs to execute its output faithfully: which procedures are perpetual
services (so quiescence detection can close their ports) and a hook that
registers the foreign procedures its library expects.

Caching
-------
Motif application sits on the hot path of every run (``reduce_tree`` builds
a fresh stack per call), so this layer memoizes at two levels:

* **library parsing** — :func:`library_from_source` parses each distinct
  library source once per process;
* **motif outputs** — ``Motif.apply`` caches the transformed-and-linked
  result keyed by the *identity and version* of the input program, for the
  last :data:`APPLY_CACHE_SIZE` inputs per motif, so re-applying a
  (composed) stack to the same application re-uses the same output
  :class:`Program` object — which in turn lets the engine's compile-layer
  cache (:func:`repro.strand.compile.compile_program`) hit.

Transformations are pure (they never mutate their input), so sharing cached
programs is safe; callers receive a :meth:`AppliedMotif.fork` so appending
foreign hooks or user names never pollutes the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.errors import MotifError
from repro.strand.foreign import ForeignRegistry
from repro.strand.parser import parse_program
from repro.strand.program import Program, rule_key
from repro.transform.transformation import Identity, Transformation

__all__ = [
    "Motif",
    "ComposedMotif",
    "AppliedMotif",
    "library_from_source",
    "MOTIF_STATS",
    "APPLY_CACHE_SIZE",
    "reset_motif_stats",
]

#: Process-wide counters observable by tests and benchmarks.
MOTIF_STATS = {
    "library_parses": 0,
    "library_hits": 0,
    "apply_calls": 0,
    "apply_hits": 0,
}

_LIBRARY_CACHE: dict[tuple[str, str], Program] = {}

#: Inputs each motif's application memo remembers (least recently used are
#: evicted first), so a long-lived process applying a stack to ever-new
#: programs holds a bounded number of them.
APPLY_CACHE_SIZE = 256


def reset_motif_stats() -> None:
    for key in MOTIF_STATS:
        MOTIF_STATS[key] = 0


def library_from_source(source: str, name: str) -> Program:
    """Parse a library program from Strand source text (memoized: each
    distinct ``(name, source)`` pair is parsed once per process)."""
    key = (name, source)
    cached = _LIBRARY_CACHE.get(key)
    if cached is not None:
        MOTIF_STATS["library_hits"] += 1
        return cached
    MOTIF_STATS["library_parses"] += 1
    program = parse_program(source, name=name)
    _LIBRARY_CACHE[key] = program
    return program


@dataclass
class AppliedMotif:
    """The result of applying a motif (stack) to an application.

    Carries everything needed to run the program: the program itself, the
    service indicators for quiescence handling, the foreign setup hooks,
    and the *library indicator set* — every procedure the user did not
    write — used for the overhead split of experiment E8.
    """

    program: Program
    services: set[tuple[str, int]] = field(default_factory=set)
    foreign_setup: list[Callable[[ForeignRegistry], None]] = field(default_factory=list)
    user_names: set[str] = field(default_factory=set)

    @property
    def library_indicators(self) -> set[tuple[str, int]]:
        return {
            ind for ind in self.program.indicators if ind[0] not in self.user_names
        }

    def fork(self) -> "AppliedMotif":
        """A caller-owned copy sharing the (immutable-by-convention) program
        but with private metadata containers, so appending foreign hooks or
        user names never pollutes a cached application result."""
        return AppliedMotif(
            program=self.program,
            services=set(self.services),
            foreign_setup=list(self.foreign_setup),
            user_names=set(self.user_names),
        )

    def make_foreign(self, base: ForeignRegistry | None = None) -> ForeignRegistry:
        registry = base.copy() if base is not None else ForeignRegistry()
        for setup in self.foreign_setup:
            setup(registry)
        return registry


class Motif:
    """A named ``(transformation, library)`` pair plus runtime metadata.

    Parameters
    ----------
    name:
        Human-readable motif name (``"server"``, ``"tree-reduce-1"``, …).
    transformation:
        The ``T`` of the pair; defaults to the identity (a "library-only"
        motif like the paper's ``Tree1``).
    library:
        The ``L`` of the pair: a :class:`Program` or Strand source text;
        defaults to the empty library (a "transformation-only" motif like
        the paper's ``Rand``).
    services:
        Indicators of perpetual service processes introduced by this motif.
    foreign_setup:
        Hook called with the foreign registry before running, to register
        Python procedures the library depends on.
    """

    def __init__(
        self,
        name: str,
        transformation: Transformation | None = None,
        library: Program | str | None = None,
        *,
        services: Iterable[tuple[str, int]] = (),
        foreign_setup: Callable[[ForeignRegistry], None] | None = None,
    ):
        self.name = name
        self.transformation = transformation or Identity()
        if library is None:
            library = Program(name=f"{name}-library")
        elif isinstance(library, str):
            library = library_from_source(library, name=f"{name}-library")
        self.library = library
        # Provenance: library rules belong to this motif layer.  Stamping is
        # idempotent (``motif`` survives copies), so re-stamping a cached
        # shared library program is safe.
        for rule in library.rules():
            if rule.motif is None:
                rule.motif = name
        self.services = set(services)
        self.foreign_setup = foreign_setup
        # Application memo, least recently used first: (id(input), program
        # version) -> (input, canonical AppliedMotif).  Each entry holds its
        # input, so an id is never recycled while its key is cached.
        self._apply_cache: OrderedDict[
            tuple[int, int], tuple[Program | AppliedMotif, AppliedMotif]
        ] = OrderedDict()

    # -- application ---------------------------------------------------------
    def apply(self, application: Program | AppliedMotif) -> AppliedMotif:
        """``M(A) = T(A) ∪ L`` with metadata accumulation.

        Memoized on the identity (and version) of ``application``: applying
        the same motif to the same program twice performs the
        transformation, linking, and library parsing once.  The returned
        :class:`AppliedMotif` is a fork, safe for the caller to extend.
        """
        return self._apply_cached(application).fork()

    def _apply_cached(self, application: Program | AppliedMotif) -> AppliedMotif:
        """The canonical (shared, do-not-mutate) application result."""
        MOTIF_STATS["apply_calls"] += 1
        program = (
            application.program
            if isinstance(application, AppliedMotif)
            else application
        )
        key = (id(application), program.version)
        cache = self._apply_cache
        hit = cache.get(key)
        if hit is not None:
            MOTIF_STATS["apply_hits"] += 1
            cache.move_to_end(key)
            return hit[1]
        result = self._apply_impl(application)
        cache[key] = (application, result)
        if len(cache) > APPLY_CACHE_SIZE:
            cache.popitem(last=False)
        return result

    def _apply_impl(self, application: Program | AppliedMotif) -> AppliedMotif:
        if isinstance(application, Program):
            applied = AppliedMotif(
                program=application,
                user_names={ind[0] for ind in application.indicators},
            )
        else:
            applied = application
        transformed = self.transformation.apply(applied.program)
        if type(self.transformation) is not Identity:
            # Provenance: any output rule that is not (structurally) one of
            # the input rules was rewritten or generated by this motif's
            # transformation — stamp it.  Rules the transformation passed
            # through keep their existing tag (``rename`` preserves it).
            before = {rule_key(r) for r in applied.program.rules()}
            for rule in transformed.rules():
                if rule.motif is None and rule_key(rule) not in before:
                    rule.motif = self.name
        try:
            program = transformed.union(self.library, name=f"{self.name}({applied.program.name})")
        except MotifError as e:
            raise MotifError(f"applying motif {self.name!r}: {e}") from e
        return AppliedMotif(
            program=program,
            services=applied.services | self.services,
            foreign_setup=list(applied.foreign_setup)
            + ([self.foreign_setup] if self.foreign_setup else []),
            user_names=applied.user_names,
        )

    def __call__(self, application: Program | AppliedMotif) -> AppliedMotif:
        return self.apply(application)

    # -- composition -----------------------------------------------------
    def compose(self, inner: "Motif") -> "ComposedMotif":
        """``self ∘ inner`` — inner applied first (paper §2.2 ordering)."""
        return ComposedMotif([inner, self])

    def __matmul__(self, inner: "Motif") -> "ComposedMotif":
        """``outer @ inner`` spells ``outer ∘ inner``."""
        return self.compose(inner)

    def stages(self) -> list["Motif"]:
        return [self]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Motif {self.name}>"


class ComposedMotif(Motif):
    """A composition pipeline ``Mn ∘ … ∘ M₁`` (stored innermost first)."""

    def __init__(self, pipeline: Sequence[Motif]):
        flat: list[Motif] = []
        for motif in pipeline:
            flat.extend(motif.stages())
        if not flat:
            raise MotifError("cannot compose an empty motif pipeline")
        name = " ∘ ".join(m.name for m in reversed(flat))
        super().__init__(name=name)
        self.pipeline = flat

    def _apply_impl(self, application: Program | AppliedMotif) -> AppliedMotif:
        applied = application
        for motif in self.pipeline:
            # Chain through the canonical results so each stage's memo is
            # keyed on a stable object identity across repeated applies.
            applied = motif._apply_cached(applied)
        return applied

    def apply_staged(self, application: Program) -> list[AppliedMotif]:
        """Every intermediate program of the composition — Figure 5's
        "three stages" view, used by experiment E2."""
        stages: list[AppliedMotif] = []
        applied: Program | AppliedMotif = application
        for motif in self.pipeline:
            applied = motif._apply_cached(applied)
            stages.append(applied.fork())
        return stages

    def stages(self) -> list[Motif]:
        return list(self.pipeline)
