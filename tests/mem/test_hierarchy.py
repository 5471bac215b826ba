"""Private hierarchy + shared L3: level routing, warm/cold behavior."""

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.mem import AddressSpace, HierarchyModel
from repro.mem.address import LINE_SHIFT
from repro.mem.hierarchy import PrefetchModel, SharedL3Model


def build(scale=1.0 / 64.0):
    cfg = SystemConfig.ooo8().scaled_private_caches(scale)
    shared = SharedL3Model(cfg)
    return cfg, AddressSpace(SystemConfig.ooo8()), \
        HierarchyModel(cfg, shared, core_id=0)


def lines_of(space, name, n):
    region = space.allocate(name, n, 8)
    vaddrs = region.element_vaddr(np.arange(n))
    return space.translate(vaddrs) >> LINE_SHIFT


def walk(hier, lines, skip_l1=None):
    return hier.walk_elements(lines, np.zeros(len(lines), dtype=bool),
                              skip_l1)


def test_sequential_trace_mostly_hits_l1():
    cfg, space, hier = build()
    levels = walk(hier, lines_of(space, "a", 10000))
    # 8 elements per 64 B line: 7/8 of accesses hit in L1.
    assert np.mean(levels == 0) > 0.8


def test_bypass_goes_straight_to_l3():
    # Offloaded streams skip the private caches: the phase engine sends
    # their lines to the shared L3 directly.
    cfg, space, hier = build()
    lines = np.unique(lines_of(space, "a", 1000))
    hit_mask = hier.shared_l3.access(lines)
    assert len(hit_mask) == len(lines)
    assert hier.shared_l3.hits + hier.shared_l3.misses == len(lines)
    assert not any(hier.l1.contains(line) or hier.l2.contains(line)
                   for line in lines.tolist())


def test_skip_l1_fills_l2_only():
    cfg, space, hier = build()
    lines = lines_of(space, "a", 64)
    skip = np.ones(len(lines), dtype=bool)
    walk(hier, lines, skip)
    levels = walk(hier, lines, skip)
    assert not np.any(levels == 0)
    assert np.any(levels == 1)


def test_shared_l3_warms_across_cores():
    cfg = SystemConfig.ooo8().scaled_private_caches(1.0 / 64.0)
    shared = SharedL3Model(cfg)
    space = AddressSpace(SystemConfig.ooo8())
    a = HierarchyModel(cfg, shared, core_id=0)
    b = HierarchyModel(cfg, shared, core_id=1)
    lines = lines_of(space, "x", 4096)
    first = walk(a, lines)
    second = walk(b, lines)
    assert np.any(first == 3)               # cold
    assert not np.any(second == 3)          # warmed by core 0
    # Core 1's private caches start cold, so its first touch of each line
    # is an L3 hit.
    assert np.sum(second == 2) == len(np.unique(lines))


def test_shared_l3_capacity_eviction_and_writeback():
    cfg = SystemConfig.ooo8().scaled_private_caches(1e-9)  # floor-sized L3
    shared = SharedL3Model(cfg)
    lines = np.arange(shared.capacity_lines * 2)
    writes = np.ones(len(lines), dtype=bool)
    shared.access(lines, writes)
    assert shared.misses == len(lines)
    assert shared.writebacks > 0


def test_access_element_retouch_stays_on_chip():
    cfg, space, hier = build()
    r = space.allocate("a", 2048, 8)
    vaddrs = r.element_vaddr(np.arange(0, 2048, 8))  # one per line
    lines = space.translate(vaddrs) >> 6
    levels = [hier.access_element(int(l), False) for l in lines.tolist()]
    assert all(level in ("l1", "l2", "l3", "dram") for level in levels)
    # Re-touch: everything recently accessed within L1+L2 capacity hits
    # private levels or L3 at worst.
    levels2 = [hier.access_element(int(l), False) for l in lines.tolist()]
    assert levels2.count("dram") == 0


def test_l1_dirty_victims_install_into_l2():
    cfg, space, hier = build()
    # Write lines exceeding L1 but fitting L2, then read them back.
    n_lines = hier.l1.sets * hier.l1.assoc * 2
    for line in range(n_lines):
        hier.access_element(line, write=True)
    hits_l2 = sum(hier.access_element(line, write=False) == "l2"
                  for line in range(n_lines // 2))
    assert hits_l2 > 0, "dirty L1 victims must be visible in L2"


def test_prefetch_model_coverage():
    pf = PrefetchModel(SystemConfig.ooo8().prefetcher)
    assert pf.hidden_fraction(1.0) > pf.hidden_fraction(0.0)
    assert 0 <= pf.hidden_fraction(0.5) <= 1
