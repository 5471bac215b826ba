"""On-chip network model (Garnet substitute).

The paper measures NoC traffic as ``bytes x hops`` per message class
(data / control / offloaded, Fig 12). We reproduce that metric *exactly* from
the message inventory: :class:`~repro.noc.topology.Mesh` computes X-Y route
hop counts and multicast trees, :class:`~repro.noc.traffic.TrafficLedger`
accumulates bytes x hops per class, and :class:`~repro.noc.flow.FlowModel`
records aggregate flows (a count and a mean hop count) and derives latency
from M/D/1 queueing at the mean utilization over all links, instead of
simulating flits. :class:`~repro.noc.detailed.DetailedMesh` is the
flit-level ground truth the flow model is validated against.
"""

from repro.noc.message import MessageClass, MessageType, message_bytes
from repro.noc.topology import Mesh
from repro.noc.traffic import TrafficLedger
from repro.noc.detailed import DetailedMesh
from repro.noc.flow import FlowModel

__all__ = [
    "Mesh",
    "MessageClass",
    "MessageType",
    "message_bytes",
    "TrafficLedger",
    "FlowModel",
    "DetailedMesh",
]
