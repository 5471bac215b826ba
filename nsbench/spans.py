"""Span recording around the public calls into each layer of ``repro``.

The benchmark's traced run installs wrappers on a fixed set of public
entry points (see :data:`LAYER_CALLS`) and records one span per call:
name, start, end, the span that caused it, and a few counts taken at the
same boundary (bytes moved, cache hit).  Nothing inside ``src/`` changes;
the wrappers are removed again when the traced run ends.

Sweep workers are forked from the benchmark process, so they inherit the
wrappers and the open-span stack (their group spans get ``run_sweep`` as
parent).  A worker keeps its spans in memory and writes them to one file
per sweep group as the group ends, because pool workers exit without
running ``atexit`` hooks; :meth:`SpanRecorder.collect` reads them back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

Span = Dict[str, Any]

#: (module path, attribute, span name) for every wrapped call.  A dotted
#: attribute ``Class.method`` patches the method on the class.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.eval.sweep", "run_sweep", "sweep.run_sweep"),
    ("repro.eval.sweep", "_run_group", "sweep.group"),
    ("repro.sim.run", "run_workload", "sim.run_workload"),
    ("repro.workloads.base", "Workload.build", "workloads.build"),
    ("repro.sim.replay", "record_trace", "replay.record"),
    ("repro.sim.replay", "compile_kernel", "compiler.compile"),
    ("repro.sim.run", "compile_kernel", "compiler.compile"),
    ("repro.eval.result_cache", "ResultCache.lookup", "store.read"),
    ("repro.eval.result_cache", "ResultCache.store", "store.write"),
)


class SpanRecorder:
    """In-memory spans for one process tree; see the module docstring."""

    def __init__(self, flush_dir: Path) -> None:
        self.flush_dir = Path(flush_dir)
        self.flush_dir.mkdir(parents=True, exist_ok=True)
        self.owner_pid = os.getpid()
        self.spans: List[Span] = []
        self._pid = self.owner_pid
        self._stack: List[str] = []
        self._count = 0
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record one span; the caller may add counts to the yielded dict."""
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: drop the parent's copies,
            # keep the inherited stack so the parent link survives.
            self._pid, self.spans = pid, []
        self._count += 1
        record: Span = {"id": f"{pid}.{self._count}", "name": name,
                        "parent": self._stack[-1] if self._stack else None,
                        "pid": pid, "start": time.perf_counter()}
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def flush_worker(self) -> None:
        """In a forked worker, move this process's spans to a file."""
        if os.getpid() == self.owner_pid or not self.spans:
            return
        self._count += 1
        path = self.flush_dir / f"spans-{os.getpid()}-{self._count}.json"
        path.write_text(json.dumps(self.spans))
        self.spans = []

    def collect(self) -> List[Span]:
        """Every span: this process's plus what workers flushed."""
        spans = list(self.spans)
        for path in sorted(self.flush_dir.glob("spans-*.json")):
            spans.extend(json.loads(path.read_text()))
        return spans

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every call in :data:`LAYER_CALLS`."""
        import importlib
        for module_name, attr, span_name in LAYER_CALLS:
            owner: Any = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrapper(original, span_name))
            self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn: Callable, name: str) -> Callable:
        # functools.wraps keeps __module__/__qualname__, so the wrapped
        # ``_run_group`` still pickles by reference to the (patched)
        # module attribute when the sweep submits it to a worker.
        if name == "store.read":
            @functools.wraps(fn)
            def read(cache, key, *args, **kwargs):
                with self.span(name) as rec:
                    before = (cache.bytes_read, cache.quarantined)
                    value = fn(cache, key, *args, **kwargs)
                    rec["bytes"] = cache.bytes_read - before[0]
                    rec["hit"] = value is not None
                    rec["quarantined"] = cache.quarantined - before[1]
                return value
            return read
        if name == "store.write":
            @functools.wraps(fn)
            def write(cache, key, *args, **kwargs):
                with self.span(name) as rec:
                    before = cache.bytes_written
                    stored = fn(cache, key, *args, **kwargs)
                    rec["bytes"] = cache.bytes_written - before
                return stored
            return write

        @functools.wraps(fn)
        def call(*args, **kwargs):
            with self.span(name):
                value = fn(*args, **kwargs)
            if name == "sweep.group":
                self.flush_worker()
            return value
        return call


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total, end = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def clip(intervals: List[Tuple[float, float]], lo: float,
         hi: float) -> List[Tuple[float, float]]:
    return [(max(a, lo), min(b, hi)) for a, b in intervals
            if min(b, hi) > max(a, lo)]


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Span id -> duration minus the part its children cover."""
    children: Dict[str, List[Tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"],
                                                         s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - union_length(
                clip(children.get(s["id"], []), s["start"], s["end"]))
            for s in spans}


def nesting_errors(spans: List[Span], slack: float = 1e-6) -> List[str]:
    """Spans that are not contained in their parent's interval."""
    by_id = {s["id"]: s for s in spans}
    errors = []
    for s in spans:
        parent = by_id.get(s["parent"]) if s["parent"] else None
        if s["parent"] is not None and parent is None:
            errors.append(f"{s['name']} {s['id']}: parent "
                          f"{s['parent']} was never recorded")
        elif parent is not None and (s["start"] < parent["start"] - slack
                                     or s["end"] > parent["end"] + slack):
            errors.append(f"{s['name']} {s['id']} escapes its parent "
                          f"{parent['name']} {parent['id']}")
    return errors


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed self time, bytes, hits."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0,
                                         "bytes": 0, "hits": 0,
                                         "quarantined": 0})
        row["calls"] += 1
        row["self_s"] += own[s["id"]]
        row["bytes"] += s.get("bytes", 0)
        row["hits"] += int(s.get("hit", False))
        row["quarantined"] += s.get("quarantined", 0)
    return out


def coverage(spans: List[Span], lo: float, hi: float) -> float:
    """Share of the wall interval [lo, hi] that any span covers."""
    if hi <= lo:
        return 0.0
    covered = union_length(clip([(s["start"], s["end"]) for s in spans],
                                lo, hi))
    return covered / (hi - lo)
