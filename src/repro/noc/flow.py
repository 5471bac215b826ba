"""Analytic flow model: traffic and latency without flit simulation.

Moving flits cycle by cycle is intractable in Python at 64-core scale, so
the phase engine records every message class as an *aggregate flow*: a
message count with a mean hop count. :meth:`FlowModel.inject_mean` adds the
flow to the exact bytes x hops ledger and to the offered load, and
:meth:`FlowModel.mean_latency` answers latency queries for a mean hop
count::

    hops * (router_latency + link_latency)
    + serialization (bytes / link_bytes)
    + hops * M/D/1 queueing delay at the mean link utilization

The load has no per-route component: every link is charged the mean over
all links, averaged over the window set by :meth:`FlowModel.set_window`.
This fixed-point-free scheme is stable and deterministic; it cannot see a
hot link, and it underestimates transient congestion.
"""

from __future__ import annotations

from repro.noc.message import MessageType, message_bytes
from repro.noc.topology import Mesh
from repro.noc.traffic import TrafficLedger


class FlowModel:
    """Aggregate offered load plus latency queries."""

    # Utilization is clamped below 1 to keep the M/D/1 term finite; a link
    # loaded at >= saturation reports this many cycles of queueing.
    _MAX_UTILIZATION = 0.98

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self.config = mesh.config
        self.ledger = TrafficLedger()
        self._offered_bytes = 0.0
        self._window = 1.0

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------
    def set_window(self, cycles: float) -> None:
        """Set the time window over which injected bytes are averaged."""
        self._window = max(cycles, 1.0)

    def inject_mean(self, mtype: MessageType, count: float, hops: float,
                    payload_override: int = -1) -> None:
        """Record ``count`` messages of an aggregate flow with mean ``hops``."""
        if count <= 0 or hops < 0:
            return
        size = message_bytes(mtype, self.config, payload_override)
        self.ledger.record(mtype, size, hops, count)
        # Spread the load uniformly for the queueing model. This stores the
        # per-link share, and mean_utilization divides by the link count
        # again, so the modelled utilization is num_links times too low.
        total = size * count * hops
        links = self.mesh.num_links
        per_link = total / max(links, 1)
        self._offered_bytes += per_link * links / max(links, 1)

    # ------------------------------------------------------------------
    # Latency queries
    # ------------------------------------------------------------------
    def queueing_delay(self, utilization: float) -> float:
        """M/D/1 mean waiting time (in cycles) at the given utilization."""
        rho = min(max(utilization, 0.0), self._MAX_UTILIZATION)
        if rho <= 0.0:
            return 0.0
        # M/D/1: W = rho / (2 * (1 - rho)) service times; service time is the
        # serialization of an average packet, approximated as one flit-cycle.
        return rho / (2.0 * (1.0 - rho))

    def mean_latency(self, mtype: MessageType, hops: float,
                     payload_override: int = -1) -> float:
        """Latency for an aggregate flow with a mean hop count."""
        size = message_bytes(mtype, self.config, payload_override)
        per_hop = self.config.router_latency + self.config.link_latency
        serialization = size / self.config.link_bytes
        rho = self.mean_utilization()
        return hops * per_hop + serialization + hops * self.queueing_delay(rho)

    def mean_utilization(self) -> float:
        per_link = self._offered_bytes / max(self.mesh.num_links, 1)
        return min(per_link / (self._window * self.config.link_bytes),
                   self._MAX_UTILIZATION)
