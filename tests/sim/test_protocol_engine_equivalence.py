"""Batched vs. reference protocol engine at workload level.

The unit suite (``tests/llc/test_rangesync_batch.py``) proves the two
engines agree episode-by-episode; this suite proves the *driver* keeps
them interchangeable end to end: the full ``SimResult`` — cycles,
traffic ledger, energy, message inventories — and the traced metrics
snapshot (including the sanitizer's check count) are identical whichever
engine simulates a workload, across all 14 workloads, every offload
mode, and randomized mesh sizes from 2x2 to 32x32.  The simulator only
runs the batched engine; :func:`reference_engine` swaps the scalar
oracle in for the duration of one run.

Runs under ``REPRO_TRACE=1`` (set by ``tests/conftest.py``), so every
comparison here also passes through the strict online sanitizer twice.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import repro.sim.phase as phase_mod
from repro.config import SystemConfig
from repro.llc import run_protocol_reference
from repro.offload.modes import ExecMode
from repro.sim.run import run_workload
from repro.workloads import all_workload_names

SCALE = 1.0 / 256.0

OFFLOAD_MODES = [ExecMode.NS, ExecMode.NS_DECOUPLE, ExecMode.INST,
                 ExecMode.SINGLE]


@contextmanager
def reference_engine():
    """Run the phase engine's episode batches through the scalar oracle.

    Patches the module attribute by hand rather than through the
    ``monkeypatch`` fixture: the hypothesis test below reuses one
    function-scoped fixture across all of its examples.
    """
    def run_reference(batch, tracer=None, labels=None):
        assert len(labels) == len(batch)
        calls.append(len(batch))
        return [run_protocol_reference(p, tracer=tracer, label=label)
                for p, label in zip(batch, labels)]

    calls = []
    batched = phase_mod.run_batch
    phase_mod.run_batch = run_reference
    try:
        yield calls
    finally:
        phase_mod.run_batch = batched


def run_pair(workload, **kwargs):
    with reference_engine():
        ref = run_workload(workload, **kwargs)
    batched = run_workload(workload, **kwargs)
    return ref, batched


def assert_runs_identical(ref, batched):
    assert batched.to_dict() == ref.to_dict()
    # The traced metrics snapshot is compare=False on SimResult, so
    # check it explicitly: message totals, event counts, histogram
    # accumulations, and the sanitizer's check count must all match —
    # the batched engine emits the same events in the same order.
    assert (batched.trace is None) == (ref.trace is None)
    if ref.trace is not None:
        assert batched.trace.to_dict() == ref.trace.to_dict()
        assert ref.trace.violations == 0


@pytest.mark.parametrize("workload", all_workload_names())
def test_engines_agree_on_every_workload(workload):
    with reference_engine() as calls:
        ref = run_workload(workload, scale=SCALE)
    assert calls, "no protocol episodes ran through the oracle"
    assert_runs_identical(ref, run_workload(workload, scale=SCALE))


@pytest.mark.parametrize("mode", OFFLOAD_MODES,
                         ids=lambda m: m.value)
def test_engines_agree_across_offload_modes(mode):
    for workload in ("bfs_push", "hotspot"):
        ref, batched = run_pair(workload, mode=mode, scale=SCALE)
        assert_runs_identical(ref, batched)


@settings(max_examples=6, deadline=None)
@given(width=st.integers(2, 32), height=st.integers(2, 32))
def test_engines_agree_on_randomized_meshes(width, height):
    config = SystemConfig().with_noc(mesh_width=width, mesh_height=height)
    ref, batched = run_pair("bfs_push", scale=SCALE, config=config)
    assert_runs_identical(ref, batched)
    assert ref.to_dict()["cycles"] > 0


@pytest.mark.parametrize("width", [16, 32])
def test_engines_agree_on_paper_meshes(width):
    config = SystemConfig.paper_mesh(width)
    for workload in ("sssp", "bfs_push"):
        ref, batched = run_pair(workload, scale=SCALE, config=config)
        assert_runs_identical(ref, batched)
