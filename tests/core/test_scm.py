"""SCM/SCC throughput model (the substance of Figs 13/14/17)."""

import pytest

from repro.config import SEConfig
from repro.core import ScmModel
from repro.isa import NearStreamFunction


def scm(**changes):
    return ScmModel(SEConfig(**changes))


SIMPLE = NearStreamFunction("min", ops=1, latency=1)
VECTOR = NearStreamFunction("stencil", ops=14, latency=20, simd=True)
MEDIUM = NearStreamFunction("score", ops=6, latency=12)


def test_scalar_pe_eligibility():
    model = scm()
    assert model.runs_on_scalar_pe(SIMPLE)
    assert not model.runs_on_scalar_pe(VECTOR)   # SIMD needs an SCC
    assert not model.runs_on_scalar_pe(MEDIUM)   # too many ops
    disabled = scm(scalar_pe=False)
    assert not disabled.runs_on_scalar_pe(SIMPLE)


def test_scalar_pe_throughput_and_latency():
    model = scm()
    assert model.throughput(SIMPLE).instances_per_cycle == pytest.approx(1.0)
    assert model.instance_latency(SIMPLE) \
        < model.instance_latency(MEDIUM)


def test_scc_throughput_drops_with_bigger_functions():
    model = scm()
    small = NearStreamFunction("f", ops=4, latency=4, simd=True)
    big = NearStreamFunction("g", ops=20, latency=4, simd=True)
    assert model.throughput(small).instances_per_cycle \
        > model.throughput(big).instances_per_cycle


def test_rob_limits_long_latency_functions():
    """Fig 14: SIMD functions need ROB entries to stay pipelined."""
    big_rob = scm(scc_rob_entries=64)
    small_rob = scm(scc_rob_entries=8)
    assert small_rob.throughput(VECTOR).instances_per_cycle \
        < big_rob.throughput(VECTOR).instances_per_cycle
    assert small_rob.throughput(VECTOR).bound == "rob"


def test_scalar_functions_insensitive_to_rob():
    """Fig 14: short scalar functions don't need a big ROB."""
    big = scm(scc_rob_entries=64).throughput(SIMPLE).instances_per_cycle
    small = scm(scc_rob_entries=8).throughput(SIMPLE).instances_per_cycle
    assert small == pytest.approx(big)


def test_scm_issue_latency_slows_rob_bound_functions():
    """Fig 13: higher SE->SCM latency extends instance service time."""
    fast = scm(scm_issue_latency=1)
    slow = scm(scm_issue_latency=16)
    assert slow.throughput(VECTOR).instances_per_cycle \
        <= fast.throughput(VECTOR).instances_per_cycle
    assert slow.instance_latency(VECTOR) > fast.instance_latency(VECTOR)
    # Scalar-PE functions bypass the SCM entirely.
    assert slow.instance_latency(SIMPLE) == fast.instance_latency(SIMPLE)


def test_more_sccs_raise_issue_limit():
    two = scm(sccs=2, scc_rob_entries=64)
    four = scm(sccs=4, scc_rob_entries=256)
    f = NearStreamFunction("f", ops=8, latency=2)
    assert four.throughput(f).instances_per_cycle \
        > two.throughput(f).instances_per_cycle
