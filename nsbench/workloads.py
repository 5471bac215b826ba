"""The benchmark's three workloads, driven through ``repro``'s public API.

``cold_report``
    One ``run_sweep`` over the figure point set into a fresh, empty
    store: 14 kernels x 8 modes at 1/64, the Fig 13/14/17 timing-knob
    variants at 1/64, and 14 x 8 at 1/128 (490 points, 126 functional
    groups).  Stresses the write side: build, compile, trace record and
    store writes.
``warm_replay``
    Four kernels at scale 0.25, every mode, one ``run_workload`` call at
    a time against a store that set-up filled.  Stresses the read side
    (checksum + unpickle) and the phase model; never builds or records.
``faulted_sanitized``
    Four NS points under the strict sanitizing tracer, each run clean and
    with a seeded ``FaultPlan``.  Stresses the ``fault`` and ``trace``
    layers.

Every timing is host time.  ``sim.*`` values are simulated quantities and
repeat exactly for a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

import repro.eval.sweep as sweep_mod
import repro.sim.run as sim_run
from repro.config import SystemConfig
from repro.eval.experiments import DEFAULT_MODES
from repro.eval.result_cache import ResultCache, set_default_cache
from repro.eval.sweep import SweepPoint
from repro.fault.plan import FaultPlan
from repro.offload.modes import ExecMode
from repro.sim.results import SimResult
from repro.workloads import all_workload_names

from nsbench import claims
from nsbench.spans import SpanRecorder, coverage, layer_totals

COLD_KERNELS = tuple(all_workload_names())
COLD_SCALES = (1.0 / 64.0, 1.0 / 128.0)
#: Fig 13 SCM latencies, Fig 14 SCC ROB sizes, Fig 17 scalar PE.
SCM_LATENCIES = (1, 4, 8, 16)
ROB_SIZES = (8, 16, 32, 64)
WARM_KERNELS = ("bfs_push", "pr_pull", "hotspot3D", "bin_tree")
WARM_SCALE = 0.25
#: (kernel, scale, FaultPlan.uniform rate) for faulted_sanitized.
FAULT_POINTS = (("histogram", 1.0 / 256.0, 5000.0),
                ("bfs_push", 1.0 / 256.0, 5000.0),
                ("sssp", 1.0 / 128.0, 2000.0),
                ("hash_join", 1.0 / 128.0, 2000.0))
#: One timed unit's wall time on the machine and commit that defined the
#: benchmark (2-core Xeon): a sweep, or one pass over the calls.
COLD_UNIT_SECONDS = 10.0
WARM_UNIT_SECONDS = 10.0
FAULT_UNIT_SECONDS = 14.0
#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
#: Below this many samples the tail is the maximum (see point_stats).
TAIL_MIN_SAMPLES = 20

MB = float(1 << 20)

PER_LAYER_UNITS = {
    "sweep.groups": "count", "sweep.dispatch_s": "s",
    "workloads.builds": "count", "workloads.build_s": "s",
    "compiler.compile_s": "s",
    "replay.records": "count", "replay.record_s": "s",
    "store.writes": "count", "store.write_mb": "MB", "store.write_s": "s",
    "store.reads": "count", "store.read_mb": "MB", "store.read_s": "s",
    "store.hit_frac": "fraction", "store.quarantined": "count",
    "phase.stats_s": "s", "phase.sample_caches_s": "s",
    "phase.traffic_s": "s", "phase.protocol_s": "s", "phase.locks_s": "s",
    "phase.timing_s": "s",
    "fault.episodes": "count", "fault.overhead_s": "s",
    "trace.events": "count", "trace.sanitizer_s": "s",
    "sim.ns_speedup_geomean.s64": "x", "sim.ns_speedup_geomean.s128": "x",
    "sim.ns_traffic_reduction.s64": "fraction",
    "sim.ns_traffic_reduction.s128": "fraction",
    "shape_held_frac": "fraction", "fail_frac": "fraction",
    "trace.coverage": "fraction", "trace.overhead_frac": "fraction",
}

#: Profiler stages summed into each phase.* metric.
PHASE_STAGES = {
    "phase.stats_s": ("phase.stats",),
    "phase.sample_caches_s": ("phase.sample_caches",),
    "phase.traffic_s": ("phase.traffic",),
    "phase.protocol_s": ("phase.protocol", "phase.protocol.engine"),
    "phase.locks_s": ("phase.locks",),
    "phase.timing_s": ("phase.timing",),
}


@dataclass
class Run:
    """One invocation: seed-derived inputs, run length, scratch space."""

    seed: int
    seconds: float
    trace: bool
    work: Path
    root: Path
    spans_out: Path
    jobs: int = field(default_factory=lambda: min(2, os.cpu_count() or 1))

    @property
    def kernel_seed(self) -> int:
        return derive_seed(self.seed, "kernel")

    @property
    def fault_seed(self) -> int:
        return derive_seed(self.seed, "fault")

    def fresh_store(self) -> Path:
        (self.work / "stores").mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix="store-",
                                     dir=self.work / "stores"))


@dataclass
class Unit:
    """One timed unit of work: a sweep, or one pass over the calls."""

    start: float
    end: float
    results: Dict[str, SimResult]
    times: Dict[str, float]
    failed: Set[str]
    store_mb: float = 0.0

    @property
    def wall(self) -> float:
        return self.end - self.start


@dataclass
class Report:
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: Set[str] = field(default_factory=set)
    lines: List[str] = field(default_factory=list)


def derive_seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"nsbench:{purpose}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (1 << 31)


def canonical(result: SimResult) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def digest(results: Dict[str, SimResult]) -> str:
    h = hashlib.sha256()
    for key in sorted(results):
        h.update(f"{key}\t{canonical(results[key])}\n".encode())
    return h.hexdigest()


def mismatches(expected: Dict[str, SimResult],
               actual: Dict[str, SimResult]) -> Set[str]:
    """Keys present in both whose results differ bit for bit."""
    return {k for k in expected.keys() & actual.keys()
            if canonical(expected[k]) != canonical(actual[k])}


def point_stats(latencies: List[float]) -> Tuple[float, float, str]:
    """Median, tail and the tail's label, all in milliseconds.

    The tail is the highest percentile with at least ten samples beyond
    it, i.e. the eleventh-largest sample; with fewer than
    ``TAIL_MIN_SAMPLES`` samples that percentile would sit below the
    median, so the tail is the maximum instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n >= TAIL_MIN_SAMPLES:
        tail, label = xs[n - 11], f"p{100.0 * (n - 10) / n:.1f}"
    else:
        tail, label = xs[-1], "p100 (max)"
    return (statistics.median(xs) * 1e3, tail * 1e3,
            f"{label} of n={n}")


def dir_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in Path(path).rglob("*")
               if f.is_file()) / MB


def import_seconds(root: Path) -> float:
    """Interpreter start plus ``import repro`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    "import repro.eval.sweep, repro.sim.run"],
                   cwd=root, env=env, check=True)
    return time.perf_counter() - start


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus ``workers`` x the largest child's.

    ``getrusage`` reports the largest child, not the sum, so for a sweep
    this is an upper bound on the combined peak of self and workers.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def call(fn: Callable[[], SimResult], key: str, unit: Unit,
         lines: List[str]) -> None:
    """Time one call; an exception marks the point failed."""
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 — every failure is counted
        unit.failed.add(key)
        lines.append(f"FAIL {key}: {type(exc).__name__}: {exc}")
        return
    unit.times[key] = time.perf_counter() - start
    unit.results[key] = result


# ----------------------------------------------------------------------
# Shared measurement skeleton
# ----------------------------------------------------------------------
def measure(run: Run, report: Report, setup: Callable[[], float],
            unit: Callable[[], Unit], unit_seconds: float
            ) -> Tuple[List[Unit], List[Unit], Optional[SpanRecorder]]:
    """Set up ``SETUP_REPEATS`` times, then run ~run.seconds of units.

    ``unit_seconds`` is one unit's wall time measured when the benchmark
    was defined.  Fixing the unit count from it (not from a deadline)
    gives every run, and both sides of an A/B, the same work; the first
    unit of a process pays allocator warm-up, so a varying count would
    move the averages.  A traced run spends half its units untraced and
    half on the same units with the span wrappers installed; the pair
    gives ``trace.overhead_frac``.
    """
    samples = [setup() for _ in range(SETUP_REPEATS)]
    report.metrics["setup_s"] = (statistics.median(samples), "s")
    share = run.seconds / (2 if run.trace else 1)
    plain = [unit() for _ in range(max(1, round(share / unit_seconds)))]
    traced: List[Unit] = []
    recorder = None
    if run.trace:
        recorder = SpanRecorder(run.work / "spans")
        recorder.install()
        try:
            traced = [unit() for _ in plain]
        finally:
            recorder.uninstall()
    for u in plain + traced:
        report.attempted += len(u.results) + len(u.failed)
        report.failed |= u.failed
    points = sum(len(u.results) for u in plain)
    report.metrics["points_per_s"] = (points / sum(u.wall for u in plain),
                                      "points/s")
    return plain, traced, recorder


def check_repeats(units: List[Unit], report: Report, name: str) -> None:
    """Every unit of a run computes the same points: results must agree."""
    first = units[0].results
    for u in units[1:]:
        bad = mismatches(first, u.results)
        for key in sorted(bad):
            report.lines.append(f"FAIL {name} {key}: result differs "
                                f"between repeats")
        report.failed |= bad
    report.lines.append(f"digest {name} sha256={digest(first)} "
                        f"({len(first)} points)")


def latency_metrics(report: Report, latencies: List[float]) -> None:
    p50, tail, label = point_stats(latencies)
    report.metrics["point_p50_ms"] = (p50, "ms")
    report.metrics["point_tail_ms"] = (tail, "ms")
    report.lines.append(f"point_tail_ms is {label}")


def layer_metrics(run: Run, report: Report, plain: List[Unit],
                  traced: List[Unit], recorder: SpanRecorder) -> None:
    """Per-layer values, per timed unit, from spans and run profiles."""
    spans = recorder.collect()
    totals = layer_totals(spans)
    n = len(traced)

    def total(name: str, what: str) -> float:
        return totals.get(name, {}).get(what, 0) / n

    reads = total("store.read", "calls")
    # A layer the workload never enters reads 0, so every workload
    # reports the same per-layer names.
    values = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    values.update({
        "sweep.groups": total("sweep.group", "calls"),
        "sweep.dispatch_s": total("sweep.run_sweep", "self_s"),
        "workloads.builds": total("workloads.build", "calls"),
        "workloads.build_s": total("workloads.build", "self_s"),
        "compiler.compile_s": total("compiler.compile", "self_s"),
        "replay.records": total("replay.record", "calls"),
        "replay.record_s": total("replay.record", "self_s"),
        "store.writes": total("store.write", "calls"),
        "store.write_mb": total("store.write", "bytes") / MB,
        "store.write_s": total("store.write", "self_s"),
        "store.reads": reads,
        "store.read_mb": total("store.read", "bytes") / MB,
        "store.read_s": total("store.read", "self_s"),
        "store.hit_frac": total("store.read", "hits") / reads if reads
        else 0.0,
        "store.quarantined": total("store.read", "quarantined"),
    })
    results = [r for u in traced for r in u.results.values()]
    for metric, stages in PHASE_STAGES.items():
        values[metric] = sum(r.profile[s].seconds for r in results
                             for s in stages if s in r.profile) / n
    values["fault.episodes"] = sum(r.faults.recovery_episodes
                                   for r in results
                                   if r.faults is not None) / n
    values["trace.events"] = sum(r.trace.n_events for r in results
                                 if r.trace is not None) / n
    covered = sum(coverage(spans, u.start, u.end) * u.wall for u in traced)
    values["trace.coverage"] = covered / sum(u.wall for u in traced)
    values["trace.overhead_frac"] = (sum(u.wall for u in traced)
                                     / sum(u.wall for u in plain) - 1.0)
    for metric, value in values.items():
        report.layers[metric] = (value, PER_LAYER_UNITS[metric])
    run.spans_out.parent.mkdir(parents=True, exist_ok=True)
    run.spans_out.write_text(json.dumps(spans))


# ----------------------------------------------------------------------
# cold_report
# ----------------------------------------------------------------------
def cold_points(seed: int) -> List[SweepPoint]:
    """The figure point set, deduplicated in first-seen order."""
    names = COLD_KERNELS
    base = SystemConfig.ooo8()
    points: List[SweepPoint] = []

    def add(name, mode, config, scale):
        points.append(SweepPoint(name, mode, config, scale=scale, seed=seed))

    for scale in COLD_SCALES:
        for name in names:
            for mode in DEFAULT_MODES:
                add(name, mode, base, scale)
    fig13 = (ExecMode.NS, ExecMode.NS_NO_SYNC, ExecMode.NS_DECOUPLE,
             ExecMode.BASE)
    for latency in SCM_LATENCIES:
        config = base.with_se(scm_issue_latency=latency)
        for mode in fig13:
            for name in names:
                add(name, mode, config, COLD_SCALES[0])
    for rob in ROB_SIZES:
        config = base.with_se(scc_rob_entries=rob)
        for mode in (ExecMode.BASE, ExecMode.NS_DECOUPLE):
            for name in names:
                add(name, mode, config, COLD_SCALES[0])
    for pe in (True, False):
        config = base.with_se(scalar_pe=pe)
        for name in names:
            add(name, ExecMode.NS_DECOUPLE, config, COLD_SCALES[0])
    return list(dict.fromkeys(points))


def cold_report(run: Run) -> Report:
    report = Report()
    points = cold_points(run.kernel_seed)
    keyed = {p.key(): p for p in points}

    def setup() -> float:
        start = time.perf_counter()
        import_seconds(run.root)
        store = run.fresh_store()
        ResultCache(store)
        elapsed = time.perf_counter() - start
        shutil.rmtree(store)
        return elapsed

    def unit() -> Unit:
        store = run.fresh_store()
        cache = ResultCache(store)
        start = time.perf_counter()
        swept = sweep_mod.run_sweep(points, jobs=run.jobs, cache=cache)
        end = time.perf_counter()
        results = {p.key(): swept[p] for p in points if p in swept}
        # A sweep times its points inside workers; a point's latency is
        # its run_workload time, the sum of its disjoint profile stages.
        times = {k: sum(t.seconds for t in r.profile.values())
                 for k, r in results.items()}
        u = Unit(start, end, results, times, set(keyed) - set(results),
                 store_mb=dir_mb(store))
        shutil.rmtree(store)
        for f in swept.failures:
            report.lines.append(f"FAIL {f.summary()}")
        return u

    plain, traced, recorder = measure(run, report, setup, unit,
                                      COLD_UNIT_SECONDS)
    units = plain + traced
    check_repeats(units, report, "cold_report")
    first = units[0].results

    # The sweep's store/replay path must equal a live, store-free run.
    base = SystemConfig.ooo8()
    live = Unit(0.0, 0.0, {}, {}, set())
    for i, name in enumerate(COLD_KERNELS):
        point = SweepPoint(name, DEFAULT_MODES[i % len(DEFAULT_MODES)],
                           base, scale=COLD_SCALES[1], seed=run.kernel_seed)
        call(lambda: sim_run.run_workload(
            point.workload, point.mode, config=base, scale=point.scale,
            seed=point.seed, use_build_cache=False),
             point.key(), live, report.lines)
    report.attempted += len(COLD_KERNELS)
    report.failed |= live.failed
    for k in sorted(mismatches(first, live.results)):
        report.failed.add(k)
        report.lines.append(f"FAIL cold_report {k}: sweep result differs "
                            f"from a live, store-free run")

    latency_metrics(report, [t for u in plain for t in u.times.values()])
    report.metrics["peak_rss_mb"] = (peak_rss_mb(run.jobs), "MB")
    report.metrics["store_mb"] = (
        statistics.median(u.store_mb for u in plain), "MB")

    sim: Dict[str, float] = {}
    held: List[bool] = []
    for scale, tag in zip(COLD_SCALES, ("s64", "s128")):
        table: Dict[str, Dict[str, SimResult]] = {}
        for key, result in first.items():
            p = keyed[key]
            if p.scale == scale and p.config == base:
                table.setdefault(p.workload, {})[p.mode.value] = result
        if len(table) != len(COLD_KERNELS) or any(
                len(by_mode) != len(DEFAULT_MODES)
                for by_mode in table.values()):
            continue  # failed points are already counted
        head = claims.headline(table)
        sim[f"sim.ns_speedup_geomean.{tag}"] = head["ns_speedup_geomean"]
        sim[f"sim.ns_traffic_reduction.{tag}"] = \
            head["ns_traffic_reduction"]
        report.lines.append(
            f"sim {tag}: NS speedup {head['ns_speedup_geomean']:.2f}x "
            f"(paper {claims.PAPER_NS_SPEEDUP}x), NS traffic reduction "
            f"{head['ns_traffic_reduction']:.0%} "
            f"(paper {claims.PAPER_NS_TRAFFIC_REDUCTION:.0%})")
        for text, ok in claims.shape_claims(table):
            held.append(ok)
            if not ok:
                report.lines.append(f"shape FAIL {tag}: {text}")
    shape = sum(held) / len(held) if held else 0.0
    report.lines.append(f"shape_held_frac = {shape} "
                        f"({sum(held)}/{len(held)} claims hold)")
    if recorder is not None:
        layer_metrics(run, report, plain, traced, recorder)
        for metric, value in sim.items():
            report.layers[metric] = (value, PER_LAYER_UNITS[metric])
        report.layers["shape_held_frac"] = (shape, "fraction")
    return report


# ----------------------------------------------------------------------
# warm_replay
# ----------------------------------------------------------------------
def warm_replay(run: Run) -> Report:
    report = Report()
    seed = run.kernel_seed
    # Each kernel's set-up run uses a different mode, so the bit-for-bit
    # cold/warm check covers four modes.
    fill_modes = {name: DEFAULT_MODES[(2 * i + 1) % len(DEFAULT_MODES)]
                  for i, name in enumerate(WARM_KERNELS)}
    fills: List[Dict[str, SimResult]] = []
    stores: List[Path] = []

    def key(name: str, mode: ExecMode) -> str:
        return f"{name}/{mode.value}@{WARM_SCALE:g}"

    def setup() -> float:
        start = time.perf_counter()
        import_seconds(run.root)
        store = run.fresh_store()
        set_default_cache(store)
        cold = {key(n, m): sim_run.run_workload(n, m, scale=WARM_SCALE,
                                                seed=seed)
                for n, m in fill_modes.items()}
        elapsed = time.perf_counter() - start
        fills.append(cold)
        stores.append(store)
        return elapsed

    def unit() -> Unit:
        u = Unit(time.perf_counter(), 0.0, {}, {}, set())
        # Mode-major order spreads each kernel's calls over the pass, so a
        # slow spell on the host does not land on one kernel's block.
        for mode in DEFAULT_MODES:
            for name in WARM_KERNELS:
                call(lambda: sim_run.run_workload(name, mode,
                                                  scale=WARM_SCALE,
                                                  seed=seed),
                     key(name, mode), u, report.lines)
        u.end = time.perf_counter()
        return u

    plain, traced, recorder = measure(run, report, setup, unit,
                                      WARM_UNIT_SECONDS)
    for store in stores[:-1]:
        shutil.rmtree(store)
    check_repeats(plain + traced, report, "warm_replay")
    for cold in fills:
        bad = mismatches(cold, plain[0].results)
        for k in sorted(bad):
            report.lines.append(f"FAIL warm_replay {k}: warm result "
                                f"differs from its cold set-up run")
        report.failed |= bad
    latency_metrics(report, [t for u in plain for t in u.times.values()])
    report.metrics["peak_rss_mb"] = (peak_rss_mb(0), "MB")
    report.metrics["store_mb"] = (dir_mb(stores[-1]), "MB")
    if recorder is not None:
        layer_metrics(run, report, plain, traced, recorder)
    return report


# ----------------------------------------------------------------------
# faulted_sanitized
# ----------------------------------------------------------------------
def faulted_sanitized(run: Run) -> Report:
    report = Report()
    seed, fault_seed = run.kernel_seed, run.fault_seed
    os.environ["REPRO_TRACE"] = "1"
    stores: List[Path] = []

    def key(name: str, scale: float, label: str) -> str:
        return f"{name}@{scale:g}/{label}"

    def plan(rate: float) -> FaultPlan:
        return FaultPlan.uniform(rate, seed=fault_seed)

    def setup() -> float:
        start = time.perf_counter()
        import_seconds(run.root)
        store = run.fresh_store()
        set_default_cache(store)
        for name, scale, _ in FAULT_POINTS:
            sim_run.run_workload(name, ExecMode.NS, scale=scale, seed=seed)
        elapsed = time.perf_counter() - start
        stores.append(store)
        return elapsed

    def unit() -> Unit:
        u = Unit(time.perf_counter(), 0.0, {}, {}, set())
        for name, scale, rate in FAULT_POINTS:
            call(lambda: sim_run.run_workload(name, ExecMode.NS,
                                              scale=scale, seed=seed),
                 key(name, scale, "clean"), u, report.lines)
            call(lambda: sim_run.run_workload(name, ExecMode.NS,
                                              scale=scale, seed=seed,
                                              fault_plan=plan(rate)),
                 key(name, scale, "faulted"), u, report.lines)
        u.end = time.perf_counter()
        return u

    plain, traced, recorder = measure(run, report, setup, unit,
                                      FAULT_UNIT_SECONDS)
    for store in stores[:-1]:
        shutil.rmtree(store)
    units = plain + traced
    check_repeats(units, report, "faulted_sanitized")
    for u in units:
        for k, r in u.results.items():
            problem = fault_check(r, k.endswith("/faulted"))
            if problem:
                report.failed.add(k)
                report.lines.append(f"FAIL faulted_sanitized {k}: "
                                    f"{problem}")
    # A point is one kernel run clean and then faulted, and its latency
    # is that pair's time averaged over the run's passes: the median of
    # single calls would straddle the gap between cheap clean calls and
    # expensive faulted ones, and with four points a single slow call
    # would move it.
    pairs = {}
    for name, scale, _ in FAULT_POINTS:
        clean, faulted = key(name, scale, "clean"), key(name, scale,
                                                        "faulted")
        times = [u.times[clean] + u.times[faulted] for u in plain
                 if clean in u.times and faulted in u.times]
        if times:
            pairs[name] = (len(times), statistics.mean(times))
    report.metrics["points_per_s"] = (
        sum(n for n, _ in pairs.values()) / sum(u.wall for u in plain),
        "points/s")
    latency_metrics(report, [t for _, t in pairs.values()])
    report.metrics["peak_rss_mb"] = (peak_rss_mb(0), "MB")
    report.metrics["store_mb"] = (dir_mb(stores[-1]), "MB")
    if recorder is None:
        return report

    layer_metrics(run, report, plain, traced, recorder)

    def mean_time(k: str) -> float:
        return statistics.mean(u.times.get(k, 0.0) for u in plain)

    overhead = sum(mean_time(key(name, scale, "faulted"))
                   - mean_time(key(name, scale, "clean"))
                   for name, scale, _ in FAULT_POINTS)
    report.layers["fault.overhead_s"] = (overhead, "s")
    # The same faulted points with the sanitizing tracer off.
    os.environ["REPRO_TRACE"] = "0"
    bare = Unit(time.perf_counter(), 0.0, {}, {}, set())
    for name, scale, rate in FAULT_POINTS:
        call(lambda: sim_run.run_workload(name, ExecMode.NS, scale=scale,
                                          seed=seed,
                                          fault_plan=plan(rate)),
             key(name, scale, "faulted"), bare, report.lines)
    os.environ["REPRO_TRACE"] = "1"
    report.attempted += len(FAULT_POINTS)
    report.failed |= bare.failed
    for k in sorted(mismatches(plain[0].results, bare.results)):
        report.failed.add(k)
        report.lines.append(f"FAIL faulted_sanitized {k}: result differs "
                            f"with the sanitizer off")
    report.layers["trace.sanitizer_s"] = (
        sum(mean_time(k) - t for k, t in bare.times.items()), "s")
    return report


def fault_check(result: SimResult, faulted: bool) -> str:
    """Why a sanitized (clean or faulted) result is wrong, or ''."""
    if result.trace is None:
        return "no sanitizer ran"
    if result.trace.violations:
        return f"{result.trace.violations} sanitizer violation(s)"
    if not faulted:
        return "" if result.faults is None else "faults on a clean run"
    stats = result.faults
    if stats is None or stats.recovery_episodes <= 0:
        return "no fault episodes injected"
    done = stats.committed_iterations + stats.reexecuted_iterations
    if abs(done - stats.offloaded_iterations) > \
            1e-9 * max(1.0, stats.offloaded_iterations):
        return "committed + re-executed != offloaded iterations"
    return ""


WORKLOADS: Dict[str, Callable[[Run], Report]] = {
    "cold_report": cold_report,
    "warm_replay": warm_replay,
    "faulted_sanitized": faulted_sanitized,
}
