"""LLC-side stream machinery.

* :mod:`~repro.llc.se_l3` — the L3-bank stream engine: per-core stream
  buffer share, issue rates, scalar PE vs SCM dispatch, and the cost of
  aborting a stream context.
* :mod:`~repro.llc.rangesync` — the range-based synchronization protocol
  (§IV-B, Fig 7) as a discrete-event simulation at chunk granularity:
  credits, ranges, commits, writebacks, done messages, and precise-state
  recovery episodes.
* :mod:`~repro.llc.rangesync_batch` — the batched structure-of-arrays
  protocol engine the simulator runs: advances all concurrent episodes
  together and is bit-identical to the scalar reference test oracle.
* :mod:`~repro.llc.indirect` — efficient indirection support (§IV-C):
  intra-stream ordering checks, the indirect-reduction multicast collection,
  and the glue from atomic traces to the lock models.
"""

from repro.llc.se_l3 import SEL3Model
from repro.llc.rangesync import (
    ProtocolParams,
    ProtocolResult,
    RecoveryResult,
    run_protocol,
    run_protocol_reference,
    run_recovery,
)
from repro.llc.indirect import (
    IndirectOrdering,
    indirect_reduction_messages,
)

__all__ = [
    "SEL3Model",
    "ProtocolParams",
    "ProtocolResult",
    "RecoveryResult",
    "run_protocol",
    "run_protocol_reference",
    "run_recovery",
    "IndirectOrdering",
    "indirect_reduction_messages",
]
