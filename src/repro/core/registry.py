"""A named registry of motif factories.

The paper envisions "libraries implementing motifs [as] archives of
expertise that can be consulted, modified, and extended".  The registry is
the consultation surface: motifs register under a name, and callers build
configured instances with keyword parameters.
"""

from __future__ import annotations

from typing import Callable

from repro.core.motif import Motif
from repro.errors import MotifError

__all__ = ["MotifRegistry", "default_registry", "get_motif", "register_motif"]


class MotifRegistry:
    """Name → motif-factory mapping."""

    def __init__(self) -> None:
        self._factories: dict[str, Callable[..., Motif]] = {}

    def register(self, name: str, factory: Callable[..., Motif]) -> None:
        if name in self._factories:
            raise MotifError(f"motif {name!r} already registered")
        self._factories[name] = factory

    def create(self, name: str, **params) -> Motif:
        factory = self._factories.get(name)
        if factory is None:
            known = ", ".join(sorted(self._factories)) or "(none)"
            raise MotifError(f"unknown motif {name!r}; known motifs: {known}")
        return factory(**params)

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


_default = MotifRegistry()


def default_registry() -> MotifRegistry:
    """The process-wide registry, pre-populated with the paper's motifs and
    the future-work extensions on first use."""
    if not _default.names():
        _populate(_default)
    return _default


def register_motif(name: str, factory: Callable[..., Motif]) -> None:
    default_registry().register(name, factory)


def get_motif(name: str, **params) -> Motif:
    return default_registry().create(name, **params)


def _populate(registry: MotifRegistry) -> None:
    # Imported here, not at module level: the motif modules import
    # ``repro.core``, whose package init imports this module.
    from repro.motifs import (
        bnb, bounded, collective, dnc, farm, graph, grid, monitor, pipeline,
        random_map, reliable, scheduler, search, server, sort, supervisor,
        termination, tree_reduce1, tree_reduce2,
    )

    table: dict[str, Callable[..., Motif]] = {
        # The paper's motifs and stacks.
        "server": server.server_motif,
        "rand": random_map.rand_motif,
        "random": random_map.random_motif,
        "termination": termination.short_circuit_motif,
        "tree1": tree_reduce1.tree1_motif,
        "tree-reduce-1": tree_reduce1.tree_reduce_1,
        "static-tree": tree_reduce1.static_tree_motif,
        "sequential-tree": tree_reduce1.sequential_tree_motif,
        "tree-reduce": tree_reduce2.tree_reduce_motif,
        "tree-reduce-2": tree_reduce2.tree_reduce_2,
        "scheduler": scheduler.scheduler_motif,
        "scheduled": scheduler.scheduled_application,
        # Fault tolerance.
        "supervise": supervisor.supervise_motif,
        "supervised-tree-reduce": supervisor.supervised_tree_reduce,
        "reliable": reliable.reliable_motif,
        "reliable-tree-reduce": reliable.reliable_tree_reduce,
        # The §4 future-work extensions.
        "farm": farm.farm_motif,
        "farm-stack": farm.farm_stack,
        "pipeline": pipeline.pipeline_motif,
        "dnc": dnc.dnc_motif,
        "dnc-stack": dnc.dnc_stack,
        "search": search.search_motif,
        "search-stack": search.search_stack,
        "sort": sort.sort_motif,
        "sort-stack": sort.sort_stack,
        "grid": grid.grid_motif,
        "graph-sssp": graph.graph_motif,
        "bounded-buffer": bounded.bounded_motif,
        "monitor": monitor.monitor_motif,
        "collective": collective.collective_motif,
        "bnb": bnb.bnb_motif,
        "bnb-stack": bnb.bnb_stack,
    }
    for name, factory in table.items():
        registry.register(name, factory)
