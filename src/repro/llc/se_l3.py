"""The L3-bank stream engine (SE_L3, §IV, Figure 6).

SE_L3 holds offloaded streams' state (statically partitioned per core),
issues their requests to the co-located L3 cache controller, schedules
computations on a scalar PE or the tile's SCM, forwards stream data to
dependent streams in other banks, and migrates stream state as the address
pattern crosses bank boundaries.

This module models the per-core stream-buffer share, service rates, and
the cost of aborting a stream context. Migration counts and hops come from
the stream geometry (:func:`repro.sim.tracestats.compute_stream_stats`);
the protocol dynamics live in :mod:`~repro.llc.rangesync`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SystemConfig
from repro.core.scm import ScmModel
from repro.isa.stream import NearStreamFunction, Stream
from repro.trace.events import UNTRACKED, EventKind
from repro.trace.tracer import Tracer


@dataclass
class ServiceRate:
    """Elements per cycle SE_L3 sustains for one stream at one bank."""

    elements_per_cycle: float
    bound: str


class SEL3Model:
    """Capacity and service model of one bank's stream engine."""

    # Cycles for the SE to compute one address and issue to the L3
    # controller; the L3 array access itself is the bank latency.
    ISSUE_CYCLES = 1.0

    def __init__(self, config: SystemConfig,
                 tracer: Optional[Tracer] = None) -> None:
        self.config = config
        self.se = config.se
        self.tracer = tracer
        self.scm = ScmModel(config.se, tracer=tracer)

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    def buffer_bytes_per_core(self) -> int:
        """The stream buffer is statically divided among cores (§IV-B)."""
        return self.se.l3_stream_buffer_bytes // self.config.num_cores

    def buffered_elements(self, element_bytes: int) -> int:
        """Elements of one core's streams the bank can buffer uncommitted."""
        return max(self.buffer_bytes_per_core() // max(element_bytes, 1), 1)

    # ------------------------------------------------------------------
    # Service rates
    # ------------------------------------------------------------------
    def service_rate(self, stream: Stream,
                     function: Optional[NearStreamFunction],
                     elements_per_line: float = 1.0,
                     vector_lanes: int = 1) -> ServiceRate:
        """Elements/cycle for one stream: L3 issue + compute pipeline.

        Affine streams fetch whole lines per bank access, so their issue
        rate is ``elements_per_line`` per cycle; data-dependent patterns
        issue one element request per cycle. Vectorized near-stream
        functions process ``vector_lanes`` elements per instance.
        """
        per_access = max(elements_per_line, 1.0)
        issue_rate = per_access / self.ISSUE_CYCLES
        if function is None:
            return ServiceRate(issue_rate, "issue")
        instance_rate = self.scm.throughput(function).instances_per_cycle
        compute_rate = instance_rate * (vector_lanes if function.simd else 1)
        if compute_rate < issue_rate:
            return ServiceRate(compute_rate, "compute")
        return ServiceRate(issue_rate, "issue")

    # Cycles for a bank to tear down an aborted stream context: cancel
    # in-flight L3 issues, invalidate the context's buffer slots, and free
    # the stream slot (a TLB shootdown mid-stream forces this, §IV-B).
    CONTEXT_ABORT_CYCLES = 24.0

    def context_abort_cost(self, element_bytes: int = 8) -> float:
        """Cycles to abort one stream context at a bank.

        The fixed teardown plus draining the context's share of the stream
        buffer (one cycle per buffered line's worth of elements).
        """
        buffered = self.buffered_elements(element_bytes)
        drain = buffered / max(64 // max(element_bytes, 1), 1)
        cost = self.CONTEXT_ABORT_CYCLES + drain
        if self.tracer is not None:
            # Free event: aborts happen outside any protocol episode, so
            # it lands untracked — the sanitizer skips it, metrics count.
            self.tracer.emit(EventKind.CONTEXT_ABORT, 0.0, UNTRACKED,
                             "se_l3", cycles=cost,
                             element_bytes=element_bytes)
        return cost
