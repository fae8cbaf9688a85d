"""Split a ``cProfile`` of the run phase into the runtime's layers.

A layer's self time is the ``cProfile`` tottime of the functions defined in
its modules.  Functions defined outside ``repro`` in C or in the standard
library (``heapq``, ``random``, ``multiprocessing``, ...) have their time
charged to the functions that called them, in proportion to the time each
caller's calls took, so the layers and ``other`` account for the whole
profile.  Counts are the exact ``cProfile`` call counts of each layer's entry
points.
"""

from __future__ import annotations

import sysconfig
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable

import repro
from repro.strand.builtins import BUILTINS

PACKAGE = Path(repro.__file__).resolve().parent
STDLIB = tuple({
    str(form)
    for key in ("stdlib", "platstdlib")
    for form in (Path(sysconfig.get_paths()[key]), Path(sysconfig.get_paths()[key]).resolve())
})

#: Module (or package directory) inside ``repro`` -> run-time layer.
MODULE_LAYERS = (
    ("strand/compile.py", "compile"),
    ("strand/scheduler.py", "scheduler"),
    ("strand/reducer.py", "reducer"),
    ("strand/engine.py", "engine"),
    ("strand/terms.py", "terms"),
    ("strand/builtins.py", "builtins"),
    ("strand/arith.py", "builtins"),
    ("strand/foreign.py", "foreign"),
    ("machine/parallel.py", "parallel"),
    ("machine/", "machine"),
)
LAYERS = tuple(dict.fromkeys(layer for _, layer in MODULE_LAYERS)) + ("other",)

#: Per-layer call counts: metric -> (module, function name).
ENTRY_POINTS = {
    "compile.select_calls": ("strand/compile.py", "select"),
    "scheduler.push_calls": ("strand/scheduler.py", "push"),
    "scheduler.wake_calls": ("strand/scheduler.py", "wake"),
    "scheduler.suspend_calls": ("strand/scheduler.py", "suspend"),
    "reducer.execute_calls": ("strand/reducer.py", "execute"),
    "engine.spawn_calls": ("strand/engine.py", "spawn"),
    "engine.bind_calls": ("strand/engine.py", "bind"),
    "engine.port_send_calls": ("strand/engine.py", "port_send"),
    "foreign.calls": ("strand/reducer.py", "_call_foreign"),
    "parallel.commands": ("machine/parallel.py", "command"),
}
HEAP_OPS = ("<built-in method _heapq.heappush>", "<built-in method _heapq.heappop>")


def code_key(fn: Callable) -> tuple[str, int, str]:
    """The ``pstats`` key of a Python function."""
    code = fn.__code__
    return code.co_filename, code.co_firstlineno, code.co_name


@lru_cache(maxsize=None)
def module_of(filename: str) -> str | None:
    """``filename`` relative to the ``repro`` package, or None outside it."""
    if filename == "~" or filename.startswith("<"):
        return None
    path = Path(filename).resolve()
    if not path.is_relative_to(PACKAGE):
        return None
    return path.relative_to(PACKAGE).as_posix()


class LayerSplit:
    """Self time and counts by layer, from one ``pstats`` table.

    ``foreign`` names the Python callables registered as foreign procedures;
    their time belongs to the ``foreign`` layer wherever they are defined.
    """

    def __init__(self, stats: dict, foreign: Iterable[Callable] = ()):
        self.stats = stats
        self.foreign_keys = {code_key(fn) for fn in foreign}
        self._shares: dict[tuple, dict[str, float]] = {}

    def layer_of(self, key: tuple) -> str | None:
        """A function's own layer, or None when its time goes to its callers."""
        filename = key[0]
        if key in self.foreign_keys:
            return "foreign"
        module = module_of(filename)
        if module is not None:
            for prefix, layer in MODULE_LAYERS:
                if module.startswith(prefix):
                    return layer
            return "other"
        if filename == "~" or filename.startswith("<frozen") or filename.startswith(STDLIB):
            return None
        return "other"

    def shares(self, key: tuple, visiting: frozenset = frozenset()) -> dict[str, float]:
        """How a function's self time divides among layers (fractions)."""
        cached = self._shares.get(key)
        if cached is not None:
            return cached
        layer = self.layer_of(key)
        if layer is not None:
            result = {layer: 1.0}
        else:
            callers = {
                caller: edge for caller, edge in self.stats[key][4].items()
                if caller not in visiting
            }
            weights = {caller: edge[2] for caller, edge in callers.items()}
            total = sum(weights.values())
            if total <= 0:
                weights = {caller: edge[1] for caller, edge in callers.items()}
                total = sum(weights.values())
            result: dict[str, float] = {}
            for caller, weight in weights.items():
                for name, share in self.shares(caller, visiting | {key}).items():
                    result[name] = result.get(name, 0.0) + share * weight / total
            if not result:
                result = {"other": 1.0}
        if not visiting:
            self._shares[key] = result
        return result

    def self_times(self) -> dict[str, float]:
        """Total self time per layer (seconds), every layer present."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for key, (_, _, tottime, _, _) in self.stats.items():
            for layer, share in self.shares(key).items():
                totals[layer] += tottime * share
        return totals

    def calls(self, module: str, name: str) -> int:
        return sum(
            entry[1] for key, entry in self.stats.items()
            if key[2] == name and module_of(key[0]) == module
        )

    def calls_from(self, callee_names: Iterable[str], module: str) -> int:
        """Calls of the named C functions made from ``module``."""
        names = set(callee_names)
        return sum(
            edge[1]
            for key, entry in self.stats.items() if key[0] == "~" and key[2] in names
            for caller, edge in entry[4].items() if module_of(caller[0]) == module
        )

    def time_in(self, module_suffix: str, name: str, caller_module: str) -> float:
        """Cumulative time of calls to ``name`` (defined in a file ending in
        ``module_suffix``) made from ``caller_module``."""
        return sum(
            edge[3]
            for key, entry in self.stats.items()
            if key[2] == name and key[0].endswith(module_suffix)
            for caller, edge in entry[4].items() if module_of(caller[0]) == caller_module
        )


def layer_metrics(stats: dict, runs: int, reductions: int,
                  foreign: Iterable[Callable]) -> dict[str, float]:
    """Per-run layer metrics from the ``pstats`` table of ``runs`` runs that
    made ``reductions`` reductions in all."""
    split = LayerSplit(stats, foreign)
    metrics = {
        f"{layer}.self_s": seconds / runs for layer, seconds in split.self_times().items()
    }
    for metric, (module, name) in ENTRY_POINTS.items():
        metrics[metric] = split.calls(module, name) / runs
    builtin_keys = {code_key(fn) for fn in BUILTINS.values()}
    metrics["builtins.calls"] = sum(
        entry[1] for key, entry in stats.items() if key in builtin_keys
    ) / runs
    heap_ops = split.calls_from(HEAP_OPS, "strand/scheduler.py")
    metrics["scheduler.heap_ops_per_reduction"] = heap_ops / max(reductions, 1)
    metrics["parallel.wait_s"] = split.time_in(
        "multiprocessing/connection.py", "recv", "machine/parallel.py"
    ) / runs
    return metrics
