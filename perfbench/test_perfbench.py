"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import qtelegraph.cli as cli  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from worker import Reference, run_pass  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "tests"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def scratch(request) -> Path:
    path = SCRATCH / request.node.name.replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def traced_pass(workload: str, out: Path) -> dict:
    tracer = Tracer()
    original = cli.main
    tracer.install()
    tracer.start_pass()
    try:
        records = run_pass(cli, workload, 5, 0, TINY, out, tracer, Reference())
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert not any(r["problems"] for r in records)
    return tracer.end_pass(sum(r["seconds"] for r in records), sum(r["bytes"] for r in records))


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_pass_passes_its_checks(workload, scratch):
    records = run_pass(cli, workload, 3, 0, TINY, scratch)
    assert records
    assert [r["problems"] for r in records] == [[] for _ in records]


def test_checks_report_a_wrong_column_sum(scratch):
    run_pass(cli, "bulk", 3, 0, TINY, scratch)
    command = next(c for c in WORKLOADS["bulk"](3, 0, TINY, scratch) if c.label == "distributions")
    path = scratch / "distributions" / "distributions.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) + 1e-9)
    path.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n", encoding="utf-8")
    assert command.check(scratch / "distributions", 0) != []
    assert command.check(scratch / "distributions", 1) != []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_counts_repeat_and_self_times_fit_in_wall(workload, scratch):
    first = traced_pass(workload, scratch)
    second = traced_pass(workload, scratch)
    counts = [name for name in first if not name.endswith(("_s", ".s"))]
    assert "protocol.log_ratio_table.calls" in counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["cli.main.calls"] > 0
    assert (first["quantum.eigvalsh_n3"] > 0) == (workload == "nosignal")
    assert sum(first[f"{layer}.self_s"] for layer in TRACED) <= first["trace.wall_s"]


def run_benchmark(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_metric(trace):
    proc = run_benchmark(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in group
    }


def test_runner_fails_without_the_program(scratch):
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, scratch / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(scratch, 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
