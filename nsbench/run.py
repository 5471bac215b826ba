"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 nsbench/run.py --workload cold_report --seed 1 --seconds 8 \
        --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
work untraced and then traced and prints every per-layer metric.  Each
metric is printed by name with its unit, then the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``nsbench/README.md`` for what each workload and
metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("cold_report", "warm_replay", "faulted_sanitized")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def git_sha(root: Path) -> str:
    """HEAD's commit read from ``.git`` directly; 'unknown' elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> Dict[str, object]:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"nsbench: {ROOT / 'src' / 'repro'} is missing; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    work = ROOT / ".nsbench_work" / f"{args.workload}-{os.getpid()}"
    saved_env, saved_tempdir = dict(os.environ), tempfile.tempdir
    try:
        # Isolation: no inherited REPRO_* knob, every temp file (sweep
        # heartbeats included) under the run's own scratch directory.
        for name in [n for n in os.environ if n.startswith("REPRO_")]:
            del os.environ[name]
        (work / "tmp").mkdir(parents=True)
        os.environ["TMPDIR"] = tempfile.tempdir = str(work / "tmp")
        for path in (str(ROOT / "src"), str(ROOT)):
            if path not in sys.path:
                sys.path.insert(0, path)
        from nsbench import workloads
        run = workloads.Run(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            work=work, root=ROOT,
            spans_out=ROOT / ".nsbench_out"
            / f"spans-{args.workload}-seed{args.seed}.json")
        report = workloads.WORKLOADS[args.workload](run)
    finally:
        os.environ.clear()
        os.environ.update(saved_env)
        tempfile.tempdir = saved_tempdir
        shutil.rmtree(work, ignore_errors=True)

    fail_frac = len(report.failed) / max(report.attempted, 1)
    if args.trace:
        report.layers["fail_frac"] = (fail_frac, "fraction")
    record = {"workload": args.workload, "seed": args.seed,
              "kernel_seed": run.kernel_seed, "fault_seed": run.fault_seed,
              "seconds": args.seconds, "trace": args.trace,
              "git_sha": git_sha(ROOT), "machine": machine()}
    print("record " + json.dumps(record, sort_keys=True))
    for line in report.lines:
        print(line)
    print(f"fail_frac = {fail_frac} ({len(report.failed)} of "
          f"{report.attempted} points)")
    metrics = report.layers if args.trace else report.metrics
    shown = dict(report.metrics)
    shown.update(report.layers)
    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value} {unit}")
    print(json.dumps({
        "correct": not report.failed,
        "attempted": report.attempted,
        "failed": len(report.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
