"""The functional-artifact resolver and the store it fills.

A run's functional pass persists exactly two artifact kinds — the
functional trace (``replay``) and its derived-geometry bundle
(``stats``).  The built workload itself is never stored.
"""

import pytest

from repro.config import SystemConfig
from repro.eval import result_cache as rc
from repro.eval.result_cache import ResultCache
from repro.eval.sweep import SweepPoint, run_sweep
from repro.mem.address import AddressSpace
from repro.offload.modes import ExecMode
from repro.sim.run import run_workload
from repro.workloads.build_cache import resolve_trace, stats_key, trace_key

SCALE = 1.0 / 256.0
CFG = SystemConfig.ooo8()


@pytest.fixture
def default_cache(tmp_path, monkeypatch):
    """An isolated process-wide cache for string-named runs."""
    cache = ResultCache(tmp_path)
    monkeypatch.setattr(rc, "_default_cache", cache)
    return cache


def test_trace_key_is_content_addressed():
    a = trace_key("memset", SCALE, 42, CFG)
    assert a == trace_key("memset", SCALE, 42, SystemConfig.ooo8())
    assert a != trace_key("vecsum", SCALE, 42, CFG)
    assert a != trace_key("memset", SCALE / 2, 42, CFG)
    assert a != trace_key("memset", SCALE, 43, CFG)
    assert a != trace_key("memset", SCALE, 42, SystemConfig.io4())
    # Pinned: stores filled by earlier versions must keep hitting. The keys
    # hash every SystemConfig field, so adding or removing a field moves
    # them; update these only together with such a deliberate change.
    assert a == ("a3301327a1647940472c69b1fafb7a2f"
                 "26045641332272d64dda1e5c35fd29bb")
    assert stats_key("memset", SCALE, 42, CFG) == (
        "bcd784e83a2d38caea905b9cac20233d"
        "a8cee4a31dff829b5f3d21d06210f245")


def test_cold_build_stores_warm_build_loads(tmp_path):
    cache = ResultCache(tmp_path)
    cold = resolve_trace("histogram", SCALE, 42, CFG, cache)
    assert (cache.hits, cache.misses) == (0, 2)  # trace + stats probes
    assert not cold.has_stats_bundle
    warm = resolve_trace("histogram", SCALE, 42, CFG, cache)
    assert (cache.hits, cache.misses) == (1, 3)  # no bundle stored yet
    assert warm is not cold  # fresh object per lookup, no shared state
    assert warm.workload == cold.workload
    assert len(warm.phases) == len(cold.phases)


def test_cached_build_simulates_identically(tmp_path):
    cache = ResultCache(tmp_path)
    live = run_workload("bfs_push", config=CFG, scale=SCALE,
                        use_build_cache=False)
    results = []
    for _ in range(2):
        trace = resolve_trace("bfs_push", SCALE, 42, CFG, cache)
        results.append(run_workload(trace, config=CFG, scale=SCALE))
    assert cache.hits == 1
    assert results[0].to_dict() == results[1].to_dict() == live.to_dict()


def test_cold_run_stores_only_trace_and_stats(default_cache):
    cold = run_workload("histogram", scale=SCALE)
    kinds = default_cache.disk_stats(by_kind=True)["kinds"]
    assert set(kinds) == {"replay", "stats"}
    assert kinds["replay"]["entries"] == kinds["stats"]["entries"] == 1
    misses = default_cache.misses
    assert misses == 2  # the trace and stats probes; nothing else
    warm = run_workload("histogram", scale=SCALE)
    assert default_cache.misses == misses
    assert default_cache.hits == 2
    assert warm.to_dict() == cold.to_dict()


def test_cold_sweep_stores_no_build(tmp_path):
    cache = ResultCache(tmp_path)
    points = [SweepPoint("histogram", m, CFG, scale=SCALE)
              for m in (ExecMode.NS, ExecMode.BASE)]
    cold = run_sweep(points, jobs=1, cache=cache)
    assert cold.ok
    kinds = cache.disk_stats(by_kind=True)["kinds"]
    assert set(kinds) == {"result", "replay", "stats"}
    assert "build" not in kinds
    misses = cache.misses
    warm = run_sweep(points, jobs=1, cache=cache)
    assert cache.misses == misses
    for point in points:
        assert warm[point].to_dict() == cold[point].to_dict()


def test_custom_space_opts_out(default_cache):
    run_workload("memset", scale=SCALE, space=AddressSpace(CFG))
    assert (default_cache.hits, default_cache.misses) == (0, 0)
    assert default_cache.disk_stats()["entries"] == 0


def test_use_build_cache_flag_disables(default_cache):
    result = run_workload("memset", scale=SCALE, use_build_cache=False)
    assert (default_cache.hits, default_cache.misses) == (0, 0)
    assert default_cache.disk_stats()["entries"] == 0
    assert "run.compile" in result.profile  # compiled live, not replayed
