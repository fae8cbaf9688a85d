"""Latency model for the virtual interconnect.

Message cost is the classic linear model ``startup + per_hop * hops`` —
enough to make locality and communication volume *matter* in experiments
without modelling contention (the paper's claims are about message counts
and load shape, not queueing effects).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.topology import Topology

__all__ = ["Network"]


@dataclass
class Network:
    """Topology + cost parameters.

    ``startup``  — fixed software overhead per message (time units)
    ``per_hop``  — wire time per hop
    """

    topology: Topology
    startup: float = 2.0
    per_hop: float = 1.0

    @property
    def size(self) -> int:
        return self.topology.size

    def latency(self, src: int, dst: int) -> float:
        """Delivery delay for one message from ``src`` to ``dst``.

        Local delivery is free: within a processor, data availability is
        just a memory reference.
        """
        if src == dst:
            return 0.0
        return self.startup + self.per_hop * self.topology.hops(src, dst)
