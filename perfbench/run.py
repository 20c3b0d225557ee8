"""qtelegraph benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload telegraph --seed 7 --seconds 30 --trace 0

The workloads and the metrics (names, units, bounds) are declared in
``BENCHMARK.json``; the command lists and their checks are in
``workloads.py``. The program is imported from the checkout's ``src``.

A run spawns ``SETUP_PROBES`` fresh interpreters that only set up, then one
fresh worker that sets up and runs the workload for ``--seconds`` (see
``worker.py``). With ``--trace 0`` the final line carries the end-to-end
metrics, measured without tracing:

* ``setup_s``: median set-up time (import plus warm-up) of all of them, each
  scaled to the speed at which the reference work takes
  ``NOMINAL_REFERENCE_S``, by the reference time measured just after it;
* ``wall_ref``: median time of one pass of the workload's command list,
  counted in units of the fixed reference work timed next to each command
  (``worker.Reference``), which cancels most of a shared machine's drift;
* ``cmd_geomean_ref``: geometric mean over the commands of each one's median
  time in the same units, so a short command weighs as much as a long one;
* ``peak_rss_mib``: peak resident memory of the worker, reference data included.

With ``--trace 1`` it carries the per-layer metrics of the traced passes.
The lines before it give the environment, a SHA-256 of every report file of
the first pass (its inputs depend only on workload and seed, so two commits
can be compared for byte-identical reports), and ``info`` lines with the
plain wall times: symbols and hits per second, single-command times such as
``plan_s``, the reference time and the failed fraction. The last line is one
JSON object::

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

A command counts as failed when its exit code or any check on its reports is
wrong. Scratch files go to ``.perfbench_work/<workload>`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# Every child must end inside this budget, so a run ends well within 180 s.
TIME_LIMIT_S = 170.0
# BLAS threads: no more than the cores this process may use, and at most two
# so that machines with many cores run the dense algebra the same way.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
# Seconds the reference work (``worker.Reference``) takes on the 2-core x86-64
# machine the benchmark was built on; ``setup_s`` is scaled to that speed.
NOMINAL_REFERENCE_S = 0.03


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


def source_sha256(src: Path) -> str:
    """One digest over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def spawn_worker(work: Path, args: list[str], result: Path, deadline: float) -> float:
    """Run one worker to completion; returns its peak resident memory in MiB."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    argv = [sys.executable, str(HERE / "worker.py"), *args, "--result", str(result)]
    proc = subprocess.Popen(
        argv + ["--spawn-t", repr(time.monotonic())], cwd=work, env=env, stdout=subprocess.DEVNULL
    )
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise BenchError(f"worker {' '.join(args)} did not finish in time")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return usage.ru_maxrss / 1024.0


def headline(passes: list[dict]) -> dict[str, float]:
    """Throughputs and single-command times of untraced passes (medians)."""
    times: dict[str, list[float]] = defaultdict(list)
    symbols_rate, hits_rate = [], []
    for p in passes:
        commands = p["commands"]
        for c in commands:
            if c["metric"]:
                times[c["metric"]].append(c["seconds"])
        for key, rates in (("symbols", symbols_rate), ("hits", hits_rate)):
            work = [c for c in commands if c[key]]
            if work:
                rates.append(sum(c[key] for c in work) / sum(c["seconds"] for c in work))
    figures = {name: statistics.median(values) for name, values in times.items()}
    if symbols_rate:
        figures["symbols_per_s"] = statistics.median(symbols_rate)
    if hits_rate:
        figures["hits_per_s"] = statistics.median(hits_rate)
    return figures


def end_to_end(passes: list[dict], setups: list[dict], peak_rss_mib: float) -> dict[str, float]:
    """Command times are counted in units of the reference work timed next to
    them (see ``worker.Reference``): ``*_ref`` metrics are medians over the
    passes of these ratios. Each set-up time is scaled by the reference time
    measured in the same process just after it."""
    per_label: dict[str, list[float]] = defaultdict(list)
    pass_ref = []
    for p in passes:
        for c in p["commands"]:
            per_label[c["label"]].append(c["seconds"] / c["reference_s"])
        pass_ref.append(sum(c["seconds"] / c["reference_s"] for c in p["commands"]))
    medians = [statistics.median(v) for v in per_label.values()]
    return {
        "setup_s": NOMINAL_REFERENCE_S
        * statistics.median(p["setup_s"] / p["setup_reference_s"] for p in setups),
        "wall_ref": statistics.median(pass_ref),
        "cmd_geomean_ref": math.exp(statistics.fmean(math.log(m) for m in medians)),
        "peak_rss_mib": peak_rss_mib,
    }


def per_layer(passes: list[dict], units: dict[str, str]) -> dict[str, float]:
    """Times are medians over the traced passes; counts come from the first
    traced pass, whose inputs depend only on the seed, so they repeat exactly."""
    traced = [p["figures"] for p in passes if p["traced"]]
    untraced_walls = [sum(c["seconds"] for c in p["commands"]) for p in passes if not p["traced"]]
    figures = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            continue
        if unit == "s":
            figures[name] = statistics.median(f[name] for f in traced)
        else:
            figures[name] = traced[0][name]
    figures["trace.overhead_s"] = figures["trace.wall_s"] - statistics.median(untraced_walls)
    return figures


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    src = ROOT / "src"
    if not (src / "qtelegraph" / "cli.py").is_file():
        raise BenchError(f"no qtelegraph sources under {src}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if workload not in whys:
        raise BenchError(f"unknown workload {workload!r}; expected one of {sorted(whys)}")
    group = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}

    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--src", str(src), "--workload", workload, "--seed", str(seed)]

    setups = []
    for probe in range(SETUP_PROBES):
        path = work / f"setup-{probe}.json"
        spawn_worker(work, [*common, "--seconds", "0", "--setup-only"], path, deadline)
        setups.append(json.loads(path.read_text(encoding="utf-8")))
    path = work / "result.json"
    peak_rss_mib = spawn_worker(
        work, [*common, "--seconds", str(seconds), "--trace", str(int(trace))], path, deadline
    )
    result = json.loads(path.read_text(encoding="utf-8"))
    setups.append(result)
    shutil.rmtree(work / "out", ignore_errors=True)

    passes = result["passes"]
    commands = result["warm_up"] + [c for p in passes for c in p["commands"]]
    problems = [problem for c in commands for problem in c["problems"]]
    failed = sum(1 for c in commands if c["problems"])
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    meta = {
        "workload": workload,
        "why": whys[workload],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(ROOT),
        "source_sha256": source_sha256(src),
        **{k: result[k] for k in ("python", "numpy", "blas", "blas_threads", "nproc")},
        "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["traced"]),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, digest in result["digests"].items():
        print(f"sha256 {workload} seed={seed} {name} {digest}")
    untraced = [p for p in passes if not p["traced"]]
    info = headline(untraced)
    info["setup_unscaled_s"] = statistics.median(p["setup_s"] for p in setups)
    info["wall_s"] = statistics.median(sum(c["seconds"] for c in p["commands"]) for p in untraced)
    info["reference_s"] = statistics.median(c["reference_s"] for p in untraced for c in p["commands"])
    info["failed_frac"] = failed / len(commands)
    for name, value in sorted(info.items()):
        unit = "1/s" if name.endswith("_per_s") else "s" if name.endswith("_s") else "fraction"
        print(f"info {name} {value!r} {unit}")

    figures = per_layer(passes, units) if trace else end_to_end(untraced, setups, peak_rss_mib)
    metrics = {name: {"value": figures[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one qtelegraph benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
