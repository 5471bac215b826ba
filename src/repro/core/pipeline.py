"""Analytic core timing model.

The model combines three bounds over a whole kernel run on one core:

* **issue bound** — micro-ops over effective issue width;
* **memory bound** — total exposed miss latency divided by the memory-level
  parallelism the core can sustain (LSQ/ROB-limited for OOO, ~LSQ-limited
  for in-order);
* **serial bound** — latency of dependence chains that cannot be overlapped
  (pointer chases, un-pipelined indirect chains).

For an out-of-order core the bounds overlap, so the run time is their max
plus a small interaction term; an in-order core cannot hide memory stalls
behind independent issue, so issue and memory time add. This style of
bottleneck model tracks gem5 trends well for loop-dominated data-parallel
kernels, which is the fidelity this reproduction targets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.config import CoreConfig


@dataclass
class MemStall:
    """One class of memory accesses with a shared latency.

    ``exposed`` is the fraction of the latency the core actually waits for
    (prefetching and stream FIFOs hide the rest).
    """

    count: float
    latency: float
    exposed: float = 1.0

    @property
    def exposed_latency(self) -> float:
        return self.count * self.latency * self.exposed


@dataclass
class CoreWork:
    """Everything one core executes during a kernel run."""

    uops: float = 0.0
    simd_uops: float = 0.0              # subset of uops needing vector FUs
    mem_stalls: List[MemStall] = field(default_factory=list)
    serial_chain_count: float = 0.0     # un-overlappable dependence steps
    serial_chain_latency: float = 0.0   # cycles per step
    mlp_cap: float = 0.0                # extra cap (0 = no extra cap)
    fixed_cycles: float = 0.0           # one-off costs (configs, barriers)

    def add_stall(self, count: float, latency: float,
                  exposed: float = 1.0) -> None:
        if count > 0 and latency > 0 and exposed > 0:
            self.mem_stalls.append(MemStall(count, latency, exposed))


class PipelineModel:
    """Timing for one core type."""

    # Sustained issue efficiency on loop code (branches, structural hazards).
    ISSUE_EFFICIENCY = 0.7
    # In-order cores still overlap a little via the LSQ.
    INORDER_OVERLAP = 0.3

    def __init__(self, core: CoreConfig) -> None:
        self.core = core

    # ------------------------------------------------------------------
    @property
    def effective_width(self) -> float:
        return self.core.width * self.ISSUE_EFFICIENCY

    @property
    def mlp(self) -> float:
        """Memory-level parallelism the core sustains on misses."""
        if self.core.in_order:
            return max(self.core.lq_entries * self.INORDER_OVERLAP, 1.0)
        # OOO: bounded by load queue and by how many loads fit in the ROB
        # window (roughly one load per 4 uops of loop body).
        rob_loads = self.core.rob_entries / 4.0
        return max(min(self.core.lq_entries, rob_loads), 1.0)

    def simd_throughput(self) -> float:
        """SIMD uops per cycle."""
        return max(self.core.fp_alus, 1)

    # ------------------------------------------------------------------
    def cycles(self, work: CoreWork) -> float:
        """Estimated cycles for this work."""
        issue = work.uops / self.effective_width
        simd = work.simd_uops / self.simd_throughput()
        issue_bound = max(issue, simd)

        mlp = self.mlp
        if work.mlp_cap > 0:
            mlp = min(mlp, work.mlp_cap)
        mem_bound = sum(s.exposed_latency for s in work.mem_stalls) / mlp

        serial_bound = work.serial_chain_count * work.serial_chain_latency

        if self.core.in_order:
            # Little overlap between issue and memory stalls.
            total = issue_bound + mem_bound + serial_bound
        else:
            # Bounds overlap; the max dominates, with a sub-linear
            # interaction term for the non-dominant components.
            parts = sorted([issue_bound, mem_bound, serial_bound],
                           reverse=True)
            total = parts[0] + 0.3 * parts[1] + 0.1 * parts[2]
        return total + work.fixed_cycles
