"""The persistent derived-geometry (stats) bundle must be invisible:
loading it is bit-identical to recomputing from the trace.

Same discipline as the replay-equivalence suite: the optimized path
(compute stream geometry once, persist, reuse on every later run of any
mode) is property-tested against fresh computation for every workload on
the paper's mesh sweep axis {4x4, 8x8, 32x32}, under the suite-wide
strict sanitizer (``$REPRO_TRACE=1``).  Corruption, schema drift, and
config-fingerprint mismatches must all degrade to recomputation — never
to a wrong answer.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.eval import result_cache
from repro.eval.result_cache import KIND_STATS
from repro.offload.modes import ExecMode
from repro.sim.machine import Machine
from repro.sim.run import run_workload
from repro.sim.tracestats import compute_phase_stats, hops_matrix
from repro.workloads import all_workload_names
from repro.workloads.build_cache import load_stats_cached, \
    load_trace_cached, resolve_trace, stats_key, store_stats_cached

SCALE = 1.0 / 256.0
ALL_WORKLOADS = all_workload_names()
MESHES = (4, 8, 32)


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Isolated persistent cache for one test (env + default cache)."""
    root = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
    old = result_cache._default_cache
    result_cache.set_default_cache(root)
    yield root
    result_cache._default_cache = old


def _entry_path(cache_dir, key):
    return cache_dir / key[:2] / f"{key}.pkl"


def _assert_stream_stats_equal(unpacked, fresh):
    """Field-by-field bit-identity of two per-stream stats dicts."""
    assert set(unpacked) == set(fresh)
    for name, a in unpacked.items():
        b = fresh[name]
        assert a.name == b.name
        assert a.elements == b.elements
        assert a.element_bytes == b.element_bytes
        assert np.array_equal(a.lines, b.lines)
        assert np.array_equal(a.banks, b.banks)
        assert np.array_equal(a.cores, b.cores)
        assert a.line_fetches == b.line_fetches
        assert a.migrations == b.migrations
        assert a.migration_hops == b.migration_hops
        assert a.mean_hops_core_bank == b.mean_hops_core_bank
        assert a.pages_touched == b.pages_touched
        assert a.distinct_lines == b.distinct_lines
        assert a.is_write == b.is_write
        assert a.affine_fraction == b.affine_fraction
        assert a.alloc_region == b.alloc_region


@pytest.mark.parametrize("mesh", MESHES)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
def test_stats_bundle_bit_identical(workload, mesh, cache_dir):
    """All 14 workloads x {4x4, 8x8, 32x32}: cold == warm, and the
    persisted bundle unpacks to exactly what a fresh computation gives."""
    config = SystemConfig.paper_mesh(mesh)
    cold = run_workload(workload, config=config, scale=SCALE)
    assert "run.record_stats" in cold.profile
    warm = run_workload(workload, config=config, scale=SCALE)
    assert "run.record_stats" not in warm.profile  # loaded, not rebuilt
    assert warm.to_dict() == cold.to_dict()
    if warm.trace is not None:
        assert warm.trace.violations == 0

    # Unpack the bundle directly and compare against a from-scratch
    # computation, stream by stream, array by array.  This is the
    # mode-independence proof: every mode consumes these same objects.
    trace = load_trace_cached(workload, SCALE, 42, config)
    bundle = load_stats_cached(workload, SCALE, 42, config)
    assert bundle is not None
    assert len(bundle.phases) == len(trace.phases)
    machine = Machine.build(config, sample_cores=4, data_scale=SCALE)
    hmat = hops_matrix(machine.mesh)
    for i, (phase, _) in enumerate(trace.phase_programs()):
        unpacked = bundle.phases[i].to_stats(phase, machine.mesh)
        fresh = compute_phase_stats(phase.traces, trace.space,
                                    machine.mesh, hmat,
                                    config.page_bytes)
        _assert_stream_stats_equal(unpacked, fresh)


@pytest.mark.parametrize("mesh", MESHES)
def test_cross_mode_warm_equals_uncached(mesh, cache_dir):
    """Every mode replayed from the persisted bundle matches the same
    mode replayed without it (geometry recomputed in process)."""
    config = SystemConfig.paper_mesh(mesh)
    run_workload("bfs_push", config=config, scale=SCALE)  # populate
    for mode in (ExecMode.BASE, ExecMode.INST, ExecMode.NS,
                 ExecMode.NS_DECOUPLE):
        warm = run_workload("bfs_push", mode, config=config, scale=SCALE)
        assert "run.record_stats" not in warm.profile
        no_bundle = load_trace_cached("bfs_push", SCALE, 42, config)
        live = run_workload(no_bundle, mode, config=config, scale=SCALE)
        assert warm.to_dict() == live.to_dict()


def test_poisoned_bundle_quarantines_and_recomputes(cache_dir):
    config = SystemConfig.ooo8()
    cold = run_workload("histogram", config=config, scale=SCALE)
    key = stats_key("histogram", SCALE, 42, config)
    path = _entry_path(cache_dir, key)
    assert path.exists()
    path.write_bytes(b"this is not a checksummed envelope")

    again = run_workload("histogram", config=config, scale=SCALE)
    assert again.to_dict() == cold.to_dict()
    # The corrupt entry moved aside, the run recomputed geometry and
    # re-recorded a good bundle in its place.
    assert list((cache_dir / "quarantine").glob("*.pkl"))
    assert "run.record_stats" in again.profile
    assert load_stats_cached("histogram", SCALE, 42, config) is not None


def test_foreign_payload_under_stats_key_is_a_miss(cache_dir):
    """A valid pickle that is not a StatsBundle never reaches a run."""
    config = SystemConfig.ooo8()
    run_workload("memset", config=config, scale=SCALE)
    key = stats_key("memset", SCALE, 42, config)
    result_cache.get_default_cache().store(key, {"not": "a bundle"},
                                           kind=KIND_STATS)
    assert load_stats_cached("memset", SCALE, 42, config) is None


def test_config_fingerprint_mismatch_rejected(cache_dir):
    """A bundle derived under a different config must never be adopted —
    it would carry that config's banks and hop counts."""
    config = SystemConfig.ooo8()
    run_workload("vecsum", config=config, scale=SCALE)
    bundle = load_stats_cached("vecsum", SCALE, 42, config)
    assert bundle is not None

    forged = dataclasses.replace(bundle, config_fp="0" * 64)
    key = stats_key("vecsum", SCALE, 42, config)
    result_cache.get_default_cache().store(key, forged, kind=KIND_STATS)
    assert load_stats_cached("vecsum", SCALE, 42, config) is None

    trace = load_trace_cached("vecsum", SCALE, 42, config)
    assert trace.adopt_stats(forged) is False
    assert not trace.has_stats_bundle
    # The genuine bundle is adopted.
    assert trace.adopt_stats(bundle) is True
    assert trace.has_stats_bundle

    # A different config keys differently as well: nothing to load.
    other = SystemConfig.paper_mesh(4)
    assert stats_key("vecsum", SCALE, 42, other) != key
    assert load_stats_cached("vecsum", SCALE, 42, other) is None


def test_stale_bundle_falls_back_to_recompute(cache_dir):
    """A pack whose streams do not describe the phase raises ValueError
    at unpack, which ``stats_for`` treats as a miss."""
    config = SystemConfig.ooo8()
    run_workload("srad", config=config, scale=SCALE)
    bundle = load_stats_cached("srad", SCALE, 42, config)
    pack = bundle.phases[0]
    renamed = dataclasses.replace(pack, names=["bogus"] * len(pack.names))
    trace = load_trace_cached("srad", SCALE, 42, config)
    phase, _ = trace.phase_programs()[0]
    machine = Machine.build(config, sample_cores=4, data_scale=SCALE)
    with pytest.raises(ValueError):
        renamed.to_stats(phase, machine.mesh)

    # End to end: adopt the doctored bundle; the run must still be
    # bit-identical because stats_for degrades to recomputing.
    stale = dataclasses.replace(bundle, phases=[renamed]
                                + list(bundle.phases[1:]))
    trace.adopt_stats(stale)
    doctored = run_workload(trace, config=config, scale=SCALE)
    clean = run_workload("srad", config=config, scale=SCALE)
    assert doctored.to_dict() == clean.to_dict()


def test_no_bundle_run_recomputes_stats(cache_dir):
    """A trace loaded without adopting its bundle recomputes geometry in
    process and stores nothing; a string-named run then persists it."""
    config = SystemConfig.ooo8()
    cache = result_cache.get_default_cache()
    resolve_trace("histogram", SCALE, 42, config, cache)  # trace only
    off_a = run_workload(load_trace_cached("histogram", SCALE, 42, config),
                         scale=SCALE)
    off_b = run_workload(load_trace_cached("histogram", SCALE, 42, config),
                         scale=SCALE)
    assert off_a.to_dict() == off_b.to_dict()
    assert "run.record_stats" not in off_a.profile
    kinds = cache.disk_stats(by_kind=True)["kinds"]
    assert "stats" not in kinds  # replay only

    on = run_workload("histogram", scale=SCALE)
    assert on.to_dict() == off_a.to_dict()
    assert "run.record_stats" in on.profile
    kinds = cache.disk_stats(by_kind=True)["kinds"]
    assert kinds["stats"]["entries"] == 1


def test_bundle_survives_pickle_but_trace_memo_does_not(cache_dir):
    """The persisted artifact round-trips; the in-process memo and the
    adopted bundle never leak into a pickled FunctionalTrace."""
    config = SystemConfig.ooo8()
    run_workload("hash_join", config=config, scale=SCALE)
    bundle = load_stats_cached("hash_join", SCALE, 42, config)
    clone = pickle.loads(pickle.dumps(bundle))
    assert clone.workload == bundle.workload
    assert clone.config_fp == bundle.config_fp
    assert clone.nbytes == bundle.nbytes

    trace = load_trace_cached("hash_join", SCALE, 42, config)
    assert trace.adopt_stats(bundle)
    revived = pickle.loads(pickle.dumps(trace))
    assert not revived.has_stats_bundle
    assert revived._stats == {}


def test_store_stats_requires_full_memo(cache_dir):
    """export_stats returns None until a run populated every phase."""
    config = SystemConfig.ooo8()
    run_workload("bfs_push", config=config, scale=SCALE)
    trace = load_trace_cached("bfs_push", SCALE, 42, config)
    assert trace.export_stats() is None  # fresh load: memo empty

    run_workload(trace, config=config, scale=SCALE)
    bundle = trace.export_stats()
    assert bundle is not None
    assert store_stats_cached(bundle, config)


def test_cache_stats_cli_reports_stats_kind(cache_dir, capsys):
    from repro.cli import main

    run_workload("histogram", scale=SCALE)
    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "stats" in out
    assert "replay" in out
    assert "build" not in out  # workloads are never pickled
