"""Core-side microarchitecture models.

* :mod:`~repro.core.pipeline` — analytic core timing: issue-width bound,
  memory-latency bound (with MLP from the LSQ/ROB), and serial-dependence
  bound, combined per kernel run. Models IO4/OOO4/OOO8.
* :mod:`~repro.core.scm` — the stream computing manager and its lightweight
  SCC thread contexts: throughput of near-stream function execution under
  ROB and issue constraints (Figs 13/14 sensitivity).
"""

from repro.core.pipeline import CoreWork, MemStall, PipelineModel
from repro.core.scm import ScmModel

__all__ = [
    "PipelineModel",
    "CoreWork",
    "MemStall",
    "ScmModel",
]
