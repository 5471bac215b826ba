"""SE_L3 stream-buffer share, service rates, and migration accounting."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.isa import AffinePattern, ComputeKind, NearStreamFunction, Stream
from repro.llc import SEL3Model
from repro.mem import AddressSpace
from repro.noc import Mesh
from repro.sim.tracestats import compute_stream_stats, hops_matrix
from repro.workloads.base import StreamTraceData


def model():
    return SEL3Model(SystemConfig.ooo8())


def make_stream():
    return Stream(sid=0, name="s",
                  pattern=AffinePattern(0, (8,), (1000,), 8),
                  compute=ComputeKind.LOAD)


def test_capacity_matches_table_v():
    m = model()
    assert m.buffer_bytes_per_core() == 1024   # 64 kB / 64 cores
    assert m.buffered_elements(8) == 128


def test_affine_service_rate_is_line_granular():
    m = model()
    slow = m.service_rate(make_stream(), None, elements_per_line=1.0)
    fast = m.service_rate(make_stream(), None, elements_per_line=16.0)
    assert fast.elements_per_cycle == pytest.approx(
        16 * slow.elements_per_cycle)


def test_compute_can_bound_service():
    m = model()
    heavy = NearStreamFunction("big", ops=40, latency=40, simd=True)
    with_compute = m.service_rate(make_stream(), heavy,
                                  elements_per_line=16.0, vector_lanes=16)
    without = m.service_rate(make_stream(), None, elements_per_line=16.0)
    assert with_compute.elements_per_cycle < without.elements_per_cycle
    assert with_compute.bound == "compute"


def test_vector_lanes_scale_simd_compute():
    m = model()
    fn = NearStreamFunction("v", ops=8, latency=8, simd=True)
    wide = m.service_rate(make_stream(), fn, 16.0, vector_lanes=16)
    narrow = m.service_rate(make_stream(), fn, 16.0, vector_lanes=1)
    assert wide.elements_per_cycle > narrow.elements_per_cycle


def bank_stats(offsets):
    """Stream geometry of reads at byte ``offsets`` into one region."""
    cfg = SystemConfig.ooo8()
    space = AddressSpace(cfg)
    region = space.allocate("r", 1 << 20, 1)
    trace = StreamTraceData("t", region.vbase + np.asarray(offsets),
                            is_write=False, element_bytes=8)
    mesh = Mesh(cfg.noc)
    return compute_stream_stats(trace, space, mesh, hops_matrix(mesh),
                                cfg.page_bytes), mesh


# A stream migrates whenever its next element lives in another bank
# (§IV-B "Stream Migrate"); results take the counts from the stream
# geometry, and 64 B interleave puts consecutive lines on different banks.

def test_migrations_count_bank_transitions():
    stats, _ = bank_stats([0, 8, 64, 72, 128])     # lines 0, 0, 1, 1, 2
    assert stats.migrations == 2
    assert bank_stats([0])[0].migrations == 0
    assert bank_stats([0, 64, 0, 64])[0].migrations == 3


def test_migration_hops_follow_mesh_distance():
    stats, mesh = bank_stats([0, 64, 64, 64 * 40, 0])
    banks = stats.banks.tolist()
    assert stats.migrations == 3
    assert stats.migration_hops \
        == sum(mesh.hops(a, b) for a, b in zip(banks, banks[1:])) > 0
