"""Virtual multicomputer substrate: topologies, latency model, processors,
metrics, and the :class:`~repro.machine.simulator.Machine` the Strand engine
runs on."""

from repro.machine.faults import FaultPlan, FaultStats, Partition
from repro.machine.metrics import (
    EpochTelemetry,
    MachineMetrics,
    coefficient_of_variation,
    imbalance,
    jain_fairness,
)
from repro.machine.network import Network
from repro.machine.processor import VirtualProcessor
from repro.machine.simulator import Machine
from repro.machine.topology import (
    BinaryTreeTopology,
    FullyConnected,
    Hypercube,
    Mesh2D,
    Ring,
    SharedMemory,
    Torus2D,
    Topology,
    topology_by_name,
)
from repro.machine.gantt import render_gantt
from repro.machine.parallel import run_parallel, shard_of
from repro.machine.profile import MotifProfile
from repro.machine.trace import Trace, TraceEvent
from repro.machine.tracefile import (
    TraceSink,
    read_jsonl,
    to_chrome,
    write_chrome,
    write_jsonl,
)

__all__ = [
    "Machine",
    "MachineMetrics",
    "EpochTelemetry",
    "FaultPlan",
    "FaultStats",
    "Partition",
    "Network",
    "VirtualProcessor",
    "Topology",
    "FullyConnected",
    "SharedMemory",
    "Ring",
    "Mesh2D",
    "Torus2D",
    "Hypercube",
    "BinaryTreeTopology",
    "topology_by_name",
    "Trace",
    "render_gantt",
    "run_parallel",
    "shard_of",
    "TraceEvent",
    "TraceSink",
    "MotifProfile",
    "write_jsonl",
    "read_jsonl",
    "to_chrome",
    "write_chrome",
    "imbalance",
    "jain_fairness",
    "coefficient_of_variation",
]
