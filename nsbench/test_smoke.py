"""Fast smoke test of the benchmark itself, at a tiny run length.

Shrinks every workload to one or a few kernels at scale 1/256 and checks
that each metric named in ``BENCHMARK.json`` is printed with its unit,
that traced spans nest (sweep workers included), that a perturbed result
is counted as a failure, and that the benchmark refuses to run without
the program's sources.  Run from the repository root::

    python3 -m pytest nsbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import repro.sim.run as sim_run  # noqa: E402
from nsbench import run, spans, workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 97


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "COLD_KERNELS",
                        ("histogram", "bfs_push", "hash_join"))
    monkeypatch.setattr(workloads, "COLD_SCALES", (1 / 256, 1 / 512))
    monkeypatch.setattr(workloads, "WARM_KERNELS", ("histogram", "sssp"))
    monkeypatch.setattr(workloads, "WARM_SCALE", 1 / 256)
    monkeypatch.setattr(workloads, "FAULT_POINTS",
                        (("histogram", 1 / 256, 200.0),))
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)


def bench(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seed", str(SEED),
                     "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(capsys, workload, trace):
    result = bench(capsys, workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())


def test_spans_nest_across_sweep_workers(capsys):
    bench(capsys, "cold_report", 1)
    out = ROOT / ".nsbench_out" / f"spans-cold_report-seed{SEED}.json"
    recorded = json.loads(out.read_text())
    out.unlink()
    assert spans.nesting_errors(recorded) == []
    sweeps = [s for s in recorded if s["name"] == "sweep.run_sweep"]
    groups = [s for s in recorded if s["name"] == "sweep.group"]
    assert sweeps and groups
    assert {g["parent"] for g in groups} <= {s["id"] for s in sweeps}
    assert any(g["pid"] != sweeps[0]["pid"] for g in groups), \
        "group spans must come from the sweep's worker processes"


def test_perturbed_result_is_a_failure(capsys, monkeypatch):
    real = sim_run.run_workload
    calls = []

    def perturbed(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(result)
        if len(calls) > len(workloads.WARM_KERNELS):  # after set-up
            result = replace(result, cycles=result.cycles * (1 + 1e-12))
        return result

    monkeypatch.setattr(sim_run, "run_workload", perturbed)
    result = bench(capsys, "warm_replay", 0)
    assert not result["correct"]
    assert result["failed"] == len(workloads.WARM_KERNELS)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".nsbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "nsbench", bare / "nsbench")
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "nsbench/run.py", "--workload", "cold_report",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
