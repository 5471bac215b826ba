"""The stream computing manager (SCM) and SCC thread contexts (§III-C).

Near-stream functions too complex for the SE's scalar PE run on lightweight
SMT contexts (SCCs) in the tile's core: minimal physical registers, a small
ROB slice, no LSQ. The SCM schedules computation instances onto the SCCs'
software-pipelined loops.

The model answers two questions the sensitivity studies ask:

* steady-state throughput of function instances (instances/cycle), limited
  by issue bandwidth and by Little's law over the SCC ROB slice —
  ``instances_in_flight = rob_entries / uops_per_instance`` and
  ``throughput <= in_flight / latency`` (Fig 14);
* the pipeline-fill penalty of the SE->SCM issue latency (Fig 13), hidden
  when enough independent instances overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SEConfig
from repro.isa.stream import NearStreamFunction
from repro.trace.events import UNTRACKED, EventKind
from repro.trace.tracer import Tracer


@dataclass
class ScmThroughput:
    instances_per_cycle: float
    bound: str                    # "issue" | "rob" | "latency"


class ScmModel:
    """Throughput/latency model of one tile's SCM + SCCs."""

    # Issue width an SCC gets from the SMT pipeline (shares the host core).
    SCC_ISSUE_WIDTH = 2.0
    # Scalar PE: one simple op per cycle, fixed small latency.
    SCALAR_PE_THROUGHPUT = 1.0
    SCALAR_PE_LATENCY = 2.0

    def __init__(self, se: SEConfig,
                 tracer: Optional[Tracer] = None) -> None:
        self.se = se
        self.tracer = tracer

    # ------------------------------------------------------------------
    def runs_on_scalar_pe(self, function: NearStreamFunction) -> bool:
        """Simple scalar computations stay in the SE's scalar PE (Fig 17)."""
        return self.se.scalar_pe and function.scalar_pe_eligible

    def throughput(self, function: NearStreamFunction) -> ScmThroughput:
        """Steady-state function instances per cycle on this tile."""
        if self.runs_on_scalar_pe(function):
            # The PE is a small pipelined ALU: eligible (<=4-op scalar)
            # instances stream through at one per cycle (§IV-C: simple
            # computations take "only a few cycles").
            return ScmThroughput(1.0, "issue")
        # Each instance needs its uops issued...
        uops = max(function.ops, 1) + 3  # + s_load/s_store/s_step overhead
        issue_limit = (self.se.sccs * self.SCC_ISSUE_WIDTH) / uops
        # ...and ROB occupancy bounds instances in flight (Little's law).
        # An instance occupies its ROB slice from SE dispatch to completion,
        # so the SE->SCM issue latency extends the service time — the Fig 13
        # effect (dispatch is pipelined, hiding roughly half of it).
        if self.se.scc_rob_entries <= 0:
            return ScmThroughput(issue_limit, "issue")
        in_flight = max(self.se.scc_rob_entries / uops, 1.0)
        service = max(function.latency, 1) + self.se.scm_issue_latency / 2.0
        rob_limit = in_flight / service
        if rob_limit < issue_limit:
            return ScmThroughput(rob_limit, "rob")
        return ScmThroughput(issue_limit, "issue")

    def instance_latency(self, function: NearStreamFunction) -> float:
        """Latency of one instance including the SE->SCM issue hop.

        With many independent instances this is hidden; it matters for
        serial chains (pointer chasing) and for the Fig 13 sweep.
        """
        if self.runs_on_scalar_pe(function):
            return self.SCALAR_PE_LATENCY + function.latency
        return self.se.scm_issue_latency + function.latency

    # Fixed cost of rebuilding an evicted SCC context: re-acquire the SMT
    # slot, restore the minimal register file, and re-prime the
    # software-pipelined loop before instances flow again.
    SCC_RESTORE_CYCLES = 64.0

    def context_restore_cost(self) -> float:
        """Cycles to restore one evicted SCC context (restart + refill).

        The pipeline refill scales with the ROB slice an instance stream
        must re-occupy before reaching steady state.
        """
        cost = (self.SCC_RESTORE_CYCLES
                + max(self.se.scc_rob_entries, 0) / 2.0)
        if self.tracer is not None:
            # Free event, outside any protocol episode (untracked).
            self.tracer.emit(EventKind.CONTEXT_RESTORE, 0.0, UNTRACKED,
                             "scm", cycles=cost)
        return cost
