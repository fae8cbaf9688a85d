"""Interconnect topologies for the virtual multicomputer.

The paper notes Strand ran "on shared-memory computers, hypercubes, mesh
machines, transputer surfaces" — the interconnect determines how many hops a
message travels.  Each topology maps a pair of 1-based processor numbers to
a hop count; the network layer turns hops into latency.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import TopologyError

__all__ = [
    "Topology",
    "FullyConnected",
    "Ring",
    "Mesh2D",
    "Torus2D",
    "Hypercube",
    "BinaryTreeTopology",
    "topology_by_name",
]


class Topology(ABC):
    """Hop-count model over processors numbered ``1..size``."""

    def __init__(self, size: int):
        if size < 1:
            raise TopologyError(f"topology needs at least one processor, got {size}")
        self.size = size

    def _check(self, p: int) -> None:
        if not 1 <= p <= self.size:
            raise TopologyError(f"processor {p} out of range 1..{self.size}")

    def hops(self, a: int, b: int) -> int:
        """Number of network hops from processor ``a`` to ``b``."""
        self._check(a)
        self._check(b)
        if a == b:
            return 0
        return self._hops(a, b)

    @abstractmethod
    def _hops(self, a: int, b: int) -> int:
        """Hop count for distinct, validated processors."""

    @property
    def diameter(self) -> int:
        """Maximum hop count over all pairs (computed generically)."""
        return max(
            (self.hops(a, b) for a in range(1, self.size + 1)
             for b in range(1, self.size + 1)),
            default=0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(size={self.size})"


class FullyConnected(Topology):
    """Every processor one hop from every other (crossbar)."""

    def _hops(self, a: int, b: int) -> int:
        return 1


class Ring(Topology):
    """Bidirectional ring; hops = shortest way around."""

    def _hops(self, a: int, b: int) -> int:
        d = abs(a - b)
        return min(d, self.size - d)


class Mesh2D(Topology):
    """A ``rows x cols`` 2-D mesh (no wraparound); Manhattan distance.

    Processor ``p`` sits at ``((p-1) // cols, (p-1) % cols)``.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise TopologyError(f"bad mesh shape {rows}x{cols}")
        super().__init__(rows * cols)
        self.rows = rows
        self.cols = cols

    @classmethod
    def square(cls, size: int) -> "Mesh2D":
        """The most-square mesh with ``size`` processors."""
        rows = int(math.isqrt(size))
        while size % rows != 0:
            rows -= 1
        return cls(rows, size // rows)

    def _hops(self, a: int, b: int) -> int:
        ra, ca = divmod(a - 1, self.cols)
        rb, cb = divmod(b - 1, self.cols)
        return abs(ra - rb) + abs(ca - cb)


class Torus2D(Mesh2D):
    """A 2-D torus: the mesh with wraparound links on both axes."""

    def _hops(self, a: int, b: int) -> int:
        ra, ca = divmod(a - 1, self.cols)
        rb, cb = divmod(b - 1, self.cols)
        dr = abs(ra - rb)
        dc = abs(ca - cb)
        return min(dr, self.rows - dr) + min(dc, self.cols - dc)


class Hypercube(Topology):
    """A d-dimensional hypercube (size must be a power of two); hops =
    Hamming distance of the node labels."""

    def __init__(self, size: int):
        if size & (size - 1) != 0:
            raise TopologyError(f"hypercube size must be a power of two, got {size}")
        super().__init__(size)
        self.dimension = size.bit_length() - 1

    def _hops(self, a: int, b: int) -> int:
        return ((a - 1) ^ (b - 1)).bit_count()


class BinaryTreeTopology(Topology):
    """Processors as nodes of a complete binary tree rooted at 1; hops =
    tree distance (up to the common ancestor and down)."""

    def _hops(self, a: int, b: int) -> int:
        da, db = a.bit_length(), b.bit_length()
        hops = 0
        while da > db:
            a >>= 1
            da -= 1
            hops += 1
        while db > da:
            b >>= 1
            db -= 1
            hops += 1
        while a != b:
            a >>= 1
            b >>= 1
            hops += 2
        return hops


def topology_by_name(name: str, size: int) -> Topology:
    """Factory used by benchmarks: ``'full' | 'ring' | 'mesh' | 'hypercube'
    | 'tree'``."""
    name = name.lower()
    if name in ("full", "fully_connected", "crossbar", "shared"):
        return FullyConnected(size)
    if name == "ring":
        return Ring(size)
    if name == "mesh":
        return Mesh2D.square(size)
    if name == "torus":
        mesh = Mesh2D.square(size)
        return Torus2D(mesh.rows, mesh.cols)
    if name == "hypercube":
        return Hypercube(size)
    if name == "tree":
        return BinaryTreeTopology(size)
    raise TopologyError(f"unknown topology {name!r}")
