"""SE_L3 translation: one TLB access per page, a page walk per miss."""

import numpy as np

from repro.config import SystemConfig
from repro.mem import AddressSpace
from repro.mem.tlb import PAGE_WALK_CYCLES, page_walk_cycles
from repro.noc import Mesh
from repro.sim.tracestats import compute_stream_stats, hops_matrix
from repro.workloads.base import StreamTraceData


def pages_touched(offsets):
    """The SE's TLB accesses for a stream reading at byte ``offsets``."""
    cfg = SystemConfig.ooo8()
    space = AddressSpace(cfg)
    region = space.allocate("r", 1 << 20, 1)
    trace = StreamTraceData("t", region.vbase + np.asarray(offsets),
                            is_write=False, element_bytes=8)
    mesh = Mesh(cfg.noc)
    return compute_stream_stats(trace, space, mesh, hops_matrix(mesh),
                                cfg.page_bytes).pages_touched


def test_hits_within_page():
    # The SE caches the current translation, so only the first access to
    # each page reaches the TLB (pages 0 and 1 here).
    assert pages_touched([0, 8, 4088, 4096]) == 2


def test_pages_touched_counts_distinct():
    assert pages_touched([0, 1, 4096, 4097, 8192]) == 3


def test_page_walk_cycles_scale_with_misses():
    assert page_walk_cycles(0) == 0.0
    assert page_walk_cycles(3) == 3 * PAGE_WALK_CYCLES
    assert page_walk_cycles(-1) == 0.0
