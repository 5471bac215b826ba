"""Analytic core timing model."""

import pytest

from repro.config import CoreConfig
from repro.core import CoreWork, MemStall, PipelineModel


def test_issue_bound_scaling():
    model = PipelineModel(CoreConfig.ooo8())
    light = CoreWork(uops=1000)
    heavy = CoreWork(uops=10000)
    assert model.cycles(heavy) == pytest.approx(10 * model.cycles(light))


def test_wider_core_is_faster_on_issue_bound_work():
    ooo8 = PipelineModel(CoreConfig.ooo8())
    ooo4 = PipelineModel(CoreConfig.ooo4())
    work = CoreWork(uops=10000)
    assert ooo8.cycles(work) < ooo4.cycles(work)


def test_ooo_overlaps_memory_with_issue():
    model = PipelineModel(CoreConfig.ooo8())
    compute = CoreWork(uops=10000)
    combined = CoreWork(uops=10000)
    combined.add_stall(count=100, latency=100)
    both = model.cycles(combined)
    assert both < model.cycles(compute) \
        + 100 * 100 / model.mlp  # strictly better than additive


def test_in_order_adds_memory_stalls():
    model = PipelineModel(CoreConfig.io4())
    compute_only = CoreWork(uops=1000)
    with_mem = CoreWork(uops=1000)
    with_mem.add_stall(count=100, latency=100)
    assert model.cycles(with_mem) > model.cycles(compute_only)
    # In-order: the memory term is (nearly) fully additive.
    delta = model.cycles(with_mem) - model.cycles(compute_only)
    assert delta == pytest.approx(100 * 100 / model.mlp)


def test_io4_mlp_much_smaller_than_ooo8():
    io4 = PipelineModel(CoreConfig.io4())
    ooo8 = PipelineModel(CoreConfig.ooo8())
    assert io4.mlp < ooo8.mlp / 5


def test_exposure_scales_stalls():
    model = PipelineModel(CoreConfig.ooo8())
    exposed = CoreWork()
    exposed.add_stall(count=1000, latency=100, exposed=1.0)
    hidden = CoreWork()
    hidden.add_stall(count=1000, latency=100, exposed=0.05)
    assert model.cycles(hidden) < 0.1 * model.cycles(exposed)


def test_zero_quantities_are_ignored():
    work = CoreWork()
    work.add_stall(count=0, latency=100)
    work.add_stall(count=10, latency=0)
    assert work.mem_stalls == []


def test_serial_chain_bound():
    model = PipelineModel(CoreConfig.ooo8())
    work = CoreWork(uops=100, serial_chain_count=1000,
                    serial_chain_latency=50)
    assert model.cycles(work) >= 1000 * 50


def test_mlp_cap_limits_overlap():
    model = PipelineModel(CoreConfig.ooo8())
    free = CoreWork()
    free.add_stall(count=1000, latency=100)
    capped = CoreWork(mlp_cap=2.0)
    capped.add_stall(count=1000, latency=100)
    assert model.cycles(capped) > model.cycles(free)


def test_simd_throughput_bound():
    model = PipelineModel(CoreConfig.ooo8())
    scalar = CoreWork(uops=1000)
    simd = CoreWork(uops=1000, simd_uops=1000)
    assert model.cycles(simd) >= model.cycles(scalar)


def test_fixed_cycles_additive():
    model = PipelineModel(CoreConfig.ooo8())
    a = CoreWork(uops=1000)
    b = CoreWork(uops=1000, fixed_cycles=500)
    assert model.cycles(b) == pytest.approx(model.cycles(a) + 500)
