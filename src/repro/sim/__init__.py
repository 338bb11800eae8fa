"""Discrete-event simulation substrate.

Provides the deterministic asynchronous network the Astro protocols and the
consensus baseline run on: an event loop, per-node CPU/NIC resource
servers, WAN latency models matching the paper's EC2 deployment, fault
injection (crash-stop / ``tc netem``-style delays / partitions), and
measurement utilities.
"""

from .events import Event, SimulationError, Simulator
from .faults import FaultInjector
from .latency import (
    EUROPE_REGIONS,
    ConstantLatency,
    LatencyModel,
    RegionLatency,
    UniformLatency,
    europe_wan,
)
from .metrics import LatencyRecorder, LatencySummary, ThroughputMeter
from .network import Network, NetworkStats
from .node import Node
from .resources import CpuServer, FifoServer, LinkServer

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "FaultInjector",
    "ConstantLatency",
    "LatencyModel",
    "RegionLatency",
    "UniformLatency",
    "EUROPE_REGIONS",
    "europe_wan",
    "LatencyRecorder",
    "LatencySummary",
    "ThroughputMeter",
    "Network",
    "NetworkStats",
    "Node",
    "CpuServer",
    "FifoServer",
    "LinkServer",
]
