"""Topology tests, including metric-space properties."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TopologyError
from repro.machine.topology import (
    BinaryTreeTopology,
    FullyConnected,
    Hypercube,
    Mesh2D,
    Ring,
    topology_by_name,
)

ALL_KINDS = ["full", "ring", "mesh", "torus", "hypercube", "tree"]


def make(kind: str, size: int):
    if kind == "hypercube":
        size = 1 << max(0, size - 1).bit_length() if size & (size - 1) else size
    return topology_by_name(kind, size)


class TestBasics:
    def test_self_distance_zero(self):
        for kind in ALL_KINDS:
            topo = topology_by_name(kind, 8)
            assert topo.hops(3, 3) == 0

    def test_fully_connected_one_hop(self):
        topo = FullyConnected(6)
        assert all(topo.hops(a, b) == 1 for a in range(1, 7) for b in range(1, 7) if a != b)
        assert topo.diameter == 1

    def test_shared_memory_alias(self):
        topo = topology_by_name("shared", 4)
        assert type(topo) is FullyConnected
        assert topo.hops(1, 4) == 1

    def test_ring_wraps(self):
        topo = Ring(8)
        assert topo.hops(1, 2) == 1
        assert topo.hops(1, 8) == 1  # around the back
        assert topo.hops(1, 5) == 4
        assert topo.diameter == 4

    def test_mesh_manhattan(self):
        topo = Mesh2D(3, 4)  # rows x cols
        # processor 1 at (0,0); processor 12 at (2,3)
        assert topo.hops(1, 12) == 5
        assert topo.hops(1, 2) == 1
        assert topo.hops(1, 5) == 1  # down one row

    def test_mesh_square_factory(self):
        topo = Mesh2D.square(12)
        assert topo.size == 12
        assert topo.rows * topo.cols == 12

    def test_hypercube_hamming(self):
        topo = Hypercube(8)
        assert topo.dimension == 3
        assert topo.hops(1, 2) == 1  # 000 vs 001
        assert topo.hops(1, 8) == 3  # 000 vs 111
        assert topo.diameter == 3

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(TopologyError):
            Hypercube(6)

    def test_tree_distance(self):
        topo = BinaryTreeTopology(7)
        assert topo.hops(2, 3) == 2  # siblings via root
        assert topo.hops(1, 4) == 2  # root to grandchild
        assert topo.hops(4, 5) == 2  # siblings
        assert topo.hops(4, 7) == 4

    def test_invalid_processor(self):
        topo = Ring(4)
        with pytest.raises(TopologyError):
            topo.hops(0, 1)
        with pytest.raises(TopologyError):
            topo.hops(1, 5)

    def test_unknown_name(self):
        with pytest.raises(TopologyError):
            topology_by_name("klein-bottle", 4)

    def test_size_one(self):
        for kind in ALL_KINDS:
            topo = topology_by_name(kind, 1)
            assert topo.hops(1, 1) == 0


@given(
    st.sampled_from(ALL_KINDS),
    st.integers(min_value=2, max_value=5),
    st.data(),
)
def test_metric_properties(kind, log_size, data):
    """hops is a metric: symmetric, zero iff equal, triangle inequality."""
    size = 1 << log_size  # power of two suits every topology
    topo = topology_by_name(kind, size)
    a = data.draw(st.integers(1, size))
    b = data.draw(st.integers(1, size))
    c = data.draw(st.integers(1, size))
    assert topo.hops(a, b) == topo.hops(b, a)
    assert (topo.hops(a, b) == 0) == (a == b)
    assert topo.hops(a, c) <= topo.hops(a, b) + topo.hops(b, c)


class TestTorus:
    def test_wraparound_both_axes(self):
        from repro.machine.topology import Torus2D

        torus = Torus2D(4, 4)
        assert torus.hops(1, 4) == 1   # column wrap
        assert torus.hops(1, 13) == 1  # row wrap
        assert torus.hops(1, 16) == 2  # both wraps
        assert torus.diameter == 4     # vs 6 for the open mesh

    def test_factory(self):
        from repro.machine.topology import Torus2D, topology_by_name

        topo = topology_by_name("torus", 16)
        assert isinstance(topo, Torus2D)

    def test_torus_never_exceeds_mesh(self):
        from repro.machine.topology import Mesh2D, Torus2D

        mesh, torus = Mesh2D(3, 5), Torus2D(3, 5)
        for a in range(1, 16):
            for b in range(1, 16):
                assert torus.hops(a, b) <= mesh.hops(a, b)
