"""One resolver for a workload's functional artifacts.

A workload's functional pass — the Kronecker generators, the functional
executions (BFS levels, PageRank sweeps) and kernel compilation — is
deterministic in (workload kind, scale, seed, machine config), and
everything a timing run reads from it fits in a
:class:`~repro.sim.replay.FunctionalTrace`.  The built
:class:`~repro.workloads.base.Workload` itself is never persisted: no
run reads it once its trace exists.

:func:`resolve_trace` is the one place that loads a trace, or builds the
workload and records one, and adopts the trace's stored stream-geometry
:class:`~repro.sim.replay.StatsBundle`.  :func:`~repro.sim.run.
run_workload` and sweep groups both call it, then
:func:`persist_stats` once their runs have computed the geometry.

Artifacts live in the same ``.repro_cache/`` store as simulation results
(:mod:`repro.eval.result_cache`), under keys that mix in the workload's
class identity and schema versions, so result, trace and stats entries
can never collide and semantics changes invalidate cleanly.
"""

from __future__ import annotations

import pickle
import warnings
from contextlib import nullcontext
from typing import TYPE_CHECKING, Optional

from repro.config import SystemConfig
from repro.eval.result_cache import KIND_REPLAY, KIND_STATS, ResultCache, \
    config_fingerprint, fingerprint, get_default_cache
from repro.workloads.base import _REGISTRY

if TYPE_CHECKING:
    from repro.sim.profiler import Profiler

#: Bump when Workload.build semantics change (trace layout, allocation
#: order, functional execution) in a way that invalidates stored traces.
BUILD_SCHEMA = 1


def _store_degraded(cache: ResultCache, key: str, value,
                    kind: str, label: str, name: str,
                    scale: float) -> bool:
    """Store an artifact, degrading every failure to at most a warning.

    Three distinct failure classes, three distinct reactions: an
    unpicklable value and an oversize entry are caller-actionable and
    warn once per call; a write the *filesystem* refused (ENOSPC,
    EACCES, chaos injection) is already counted by the store
    (``cache.write_errors``, shown by ``repro cache stats``) and stays
    silent — an unattended sweep on a full disk must not drown in
    warnings while it keeps computing.
    """
    before = cache.oversize_skips
    try:
        stored = cache.store(key, value, kind=kind)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        warnings.warn(f"{label} cache: {name} (scale={scale:g}) is "
                      f"unpicklable, not cached: {exc}", stacklevel=3)
        return False
    if not stored and cache.oversize_skips > before:
        warnings.warn(f"{label} cache: {name} (scale={scale:g}) exceeds "
                      f"$REPRO_CACHE_MAX_MB, not cached", stacklevel=3)
    return stored


def _stage(profiler: Optional[Profiler], name: str):
    return profiler.stage(name) if profiler is not None else nullcontext()


# ----------------------------------------------------------------------
# Functional-trace (replay) artifacts
# ----------------------------------------------------------------------
def trace_key(name: str, scale: float, seed: int,
              config: SystemConfig) -> str:
    """Content hash identifying one workload's functional trace.

    The machine config participates because :class:`AddressSpace`
    layout (and therefore every trace's physical addresses) derives from
    it; the replay schema lets layout changes invalidate stored traces.
    """
    from repro.sim.replay import REPLAY_SCHEMA
    cls = _REGISTRY.get(name)
    return fingerprint({
        "kind": "functional-trace",
        "schema": BUILD_SCHEMA,
        "replay_schema": REPLAY_SCHEMA,
        "workload": name,
        "class": f"{cls.__module__}.{cls.__qualname__}" if cls else name,
        "scale": scale,
        "seed": seed,
        "config": config,
    })


def load_trace_cached(name: str, scale: float, seed: int,
                      config: SystemConfig,
                      cache: Optional[ResultCache] = None):
    """The cached :class:`~repro.sim.replay.FunctionalTrace`, or None.

    Anything that is not a schema-current FunctionalTrace for this
    workload is a miss — corruption is already quarantined by the store
    layer, and a foreign value under this key simply falls back to a
    fresh build and record.  The trace comes back without its stats
    bundle.
    """
    from repro.sim.replay import REPLAY_SCHEMA, FunctionalTrace
    cache = cache if cache is not None else get_default_cache()
    cached = cache.lookup(trace_key(name, scale, seed, config))
    if isinstance(cached, FunctionalTrace) \
            and cached.schema == REPLAY_SCHEMA \
            and cached.workload == name:
        return cached
    return None


def resolve_trace(name: str, scale: float, seed: int,
                  config: SystemConfig, cache: Optional[ResultCache],
                  profiler: Optional[Profiler] = None):
    """The workload's FunctionalTrace, with any stored stats bundle adopted.

    A store hit loads the trace (``run.replay``).  A miss builds the
    workload (``run.build``), records its trace and stores it
    (``run.record``); an unpicklable or oversize trace costs a warning,
    never the run.  The stats bundle is then probed (``run.trace_load``).
    With ``cache=None`` the trace is built and recorded in memory only:
    nothing is read or written.  ``profiler`` charges each step to the
    named stage; without one nothing is timed.
    """
    # Resolved at call time so tests and span recorders can hook them.
    from repro.mem.address import AddressSpace
    from repro.sim.replay import record_trace
    from repro.workloads import make_workload

    trace = None
    if cache is not None:
        with _stage(profiler, "run.replay"):
            trace = load_trace_cached(name, scale, seed, config, cache=cache)
    if trace is None:
        with _stage(profiler, "run.build"):
            wl = make_workload(name, scale=scale, seed=seed)
            wl.build(AddressSpace(config))
        with _stage(profiler, "run.record"):
            trace = record_trace(wl, config_fingerprint(config))
            if cache is not None:
                _store_degraded(cache, trace_key(name, scale, seed, config),
                                trace, KIND_REPLAY, "replay", name, scale)
    if cache is not None:
        with _stage(profiler, "run.trace_load"):
            trace.adopt_stats(load_stats_cached(name, scale, seed, config,
                                                cache=cache))
    return trace


# ----------------------------------------------------------------------
# Derived stream-geometry (stats) bundles
# ----------------------------------------------------------------------
def stats_key(name: str, scale: float, seed: int,
              config: SystemConfig) -> str:
    """Content hash identifying one trace's derived geometry bundle.

    Keyed by the functional trace's content key plus the config
    fingerprint (geometry depends on the mesh/page layout) and the
    bundle schema, so layout changes invalidate bundles without
    touching traces.
    """
    from repro.sim.replay import STATS_SCHEMA
    return fingerprint({
        "kind": "stream-stats",
        "stats_schema": STATS_SCHEMA,
        "trace": trace_key(name, scale, seed, config),
        "config_fp": config_fingerprint(config),
    })


def load_stats_cached(name: str, scale: float, seed: int,
                      config: SystemConfig,
                      cache: Optional[ResultCache] = None):
    """The cached :class:`~repro.sim.replay.StatsBundle`, or None.

    Anything that is not a schema-current StatsBundle for this workload
    *recorded under this exact config fingerprint* is a miss — a bundle
    derived under a different config would carry wrong banks and hop
    counts, so a fingerprint mismatch falls back to recomputation.
    """
    from repro.sim.replay import STATS_SCHEMA, StatsBundle
    cache = cache if cache is not None else get_default_cache()
    cached = cache.lookup(stats_key(name, scale, seed, config))
    if isinstance(cached, StatsBundle) \
            and cached.schema == STATS_SCHEMA \
            and cached.workload == name \
            and cached.config_fp == config_fingerprint(config):
        return cached
    return None


def store_stats_cached(bundle, config: SystemConfig,
                       cache: Optional[ResultCache] = None) -> bool:
    """Persist a derived-geometry StatsBundle; degrades to a warning."""
    cache = cache if cache is not None else get_default_cache()
    key = stats_key(bundle.workload, bundle.scale, bundle.seed, config)
    return _store_degraded(cache, key, bundle, KIND_STATS, "stats",
                           bundle.workload, bundle.scale)


def persist_stats(trace, config: SystemConfig, cache: ResultCache,
                  profiler: Optional[Profiler] = None) -> bool:
    """Store the geometry runs computed for a resolved ``trace``.

    A no-op when the trace came with an adopted bundle (nothing new to
    store) or when some phase's stats were never computed.  The work is
    charged to ``run.record_stats``.
    """
    if trace.has_stats_bundle:
        return False
    with _stage(profiler, "run.record_stats"):
        bundle = trace.export_stats()
        return bundle is not None and store_stats_cached(bundle, config,
                                                         cache=cache)
