"""One fresh benchmark process: set up, then run a workload's passes.

Started by ``run.py`` with the working directory set to the run's scratch
directory, so every ``--output-dir`` it hands the CLI is relative and the
report bytes do not depend on where the checkout lives. Set-up is the import
of ``qtelegraph.cli`` (numpy included) plus one pass at ``TINY`` size that
warms lazy imports and the BLAS thread pool; it is timed from the moment the
parent spawned this process and followed by three runs of the reference
work (see :class:`Reference`). With ``--setup-only`` the process stops there.

Otherwise it runs full passes through ``qtelegraph.cli.main`` back to back
until the next pass would end past ``--seconds`` (at least two passes). With
``--trace 1`` every odd pass is traced and every even pass is not, so the
traced and untraced wall times come from the same process. The result is a
JSON file for the parent; spans go to ``spans.csv``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer
from workloads import FULL, TINY, WORKLOADS, Size

WARM_UP_SEED = 0


class Reference:
    """A fixed computation timed next to every command, as the machine's speed.

    The machines this runs on are shared, and their speed drifts by tens of
    percent for minutes at a time; a command's time divided by the time of
    this fixed work nearby drifts far less, and no change to the program can
    move the divisor. The work imitates the kinds of work the workloads do,
    since they do not all slow alike: many calls on small arrays, rows
    formatted by a CSV writer, a small dense eigen-solve on the BLAS threads,
    and reads scattered over a working set larger than the per-core caches.
    """

    def __init__(self) -> None:
        import numpy

        self.np = numpy
        generator = numpy.random.default_rng(0)
        half = generator.standard_normal((160, 160))
        self.matrix = half + half.T
        self.x = numpy.linspace(-10.0, 10.0, 256)
        weights = numpy.exp(-self.x**2 / 16.0) * (1.0 + numpy.cos(2.0 * numpy.pi * self.x))
        self.p = weights / weights.sum()
        self.table = generator.random(1 << 21)
        self.gather = generator.integers(0, self.table.size, size=1 << 18)

    def seconds(self) -> float:
        np, x, p = self.np, self.x, self.p
        start = time.perf_counter()
        for k in range(120):
            rng = np.random.default_rng(k)
            index = np.minimum(np.searchsorted(np.cumsum(p), rng.random(32), side="right"), 255)
            ratio = np.log(np.maximum(p, 1e-300)) - np.log(np.maximum(p[::-1], 1e-300))
            float(ratio[index].sum())
            float(np.abs(np.exp(2j * x[index]).mean()))
            json.dumps({"k": k, "first": int(np.lexsort((index, x[index]))[0])})
        writer = csv.writer(io.StringIO())
        for j in range(1_500):
            writer.writerow([j % 7, repr(j * 0.37), repr(float(x[j % 256]))])
        for _ in range(4):
            np.linalg.eigvalsh(self.matrix)
        self.table.take(self.gather).sum()
        return time.perf_counter() - start


def run_pass(cli, workload: str, seed: int, index: int | str, size: Size, out_root: Path,
             tracer: Tracer | None = None, reference: Reference | None = None) -> list[dict]:
    """Run and check one pass; one record per command issued.

    With a ``reference``, each record's ``reference_s`` is the mean time of
    the reference work run just before and just after the command.
    """
    records = []
    before = reference.seconds() if reference else None
    for command in WORKLOADS[workload](seed, index, size, out_root):
        out = out_root / command.label
        shutil.rmtree(out, ignore_errors=True)
        argv = [*command.argv, "--output-dir", str(out)]
        if tracer is not None:
            tracer.command += 1
        crash = None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash of the program under test is a failed command
            code, crash = None, f"{command.label}: raised {exc!r}"
        seconds = time.perf_counter() - start
        reference_s = None
        if reference:
            after = reference.seconds()
            reference_s, before = 0.5 * (before + after), after
        problems = [crash] if crash else command.check(out, code)
        written = sum(f.stat().st_size for f in out.iterdir() if f.is_file()) if out.is_dir() else 0
        records.append({
            "label": command.label,
            "seconds": seconds,
            "reference_s": reference_s,
            "problems": problems,
            "bytes": written,
            "symbols": command.symbols,
            "hits": command.hits,
            "metric": command.metric,
        })
    return records


def report_digests(out_root: Path) -> dict[str, str]:
    """SHA-256 of every report file under ``out_root``, by relative path."""
    return {
        path.relative_to(out_root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_root.rglob("*"))
        if path.is_file()
    }


def timed_passes(cli, workload: str, seed: int, seconds: float, trace: bool,
                 reference: Reference) -> dict:
    tracer = Tracer() if trace else None
    out_root = Path("out")
    passes, durations, digests = [], [], {}
    loop_start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        started = time.perf_counter()
        figures = None
        if traced:
            tracer.install()
            tracer.start_pass()
            try:
                commands = run_pass(cli, workload, seed, index, FULL, out_root, tracer, reference)
            finally:
                tracer.uninstall()
            figures = tracer.end_pass(
                sum(c["seconds"] for c in commands), sum(c["bytes"] for c in commands)
            )
        else:
            commands = run_pass(cli, workload, seed, index, FULL, out_root, reference=reference)
        if index == 0:
            digests = report_digests(out_root)
        durations.append(time.perf_counter() - started)
        passes.append({"traced": traced, "commands": commands, "figures": figures})
        index += 1
        elapsed = time.perf_counter() - loop_start
        if index >= 2 and elapsed + statistics.median(durations) > seconds:
            break
    if tracer is not None:
        tracer.write(Path("spans.csv"))
    return {"passes": passes, "digests": digests}


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_library = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas_library,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the qtelegraph package")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-t", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--result", required=True, help="path of the result JSON file")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import qtelegraph.cli as cli

    warm_up = run_pass(cli, args.workload, WARM_UP_SEED, "warm-up", TINY, Path("warm-up"))
    setup_s = time.monotonic() - args.spawn_t
    reference = Reference()
    result = {
        "setup_s": setup_s,
        "setup_reference_s": statistics.median(reference.seconds() for _ in range(3)),
        "warm_up": warm_up,
    }
    if not args.setup_only:
        result.update(environment())
        result.update(
            timed_passes(cli, args.workload, args.seed, args.seconds, bool(args.trace), reference)
        )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
