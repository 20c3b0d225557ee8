"""Spans around calls into the ``qtelegraph`` modules, recorded from outside.

:class:`Tracer` replaces each traced function at every ``qtelegraph`` module
binding that refers to it (``device.coherent_distribution`` and its import
as ``protocol.coherent_distribution`` alike), so calls the package makes to
itself are seen too. Methods and constructors are replaced on their class.
``uninstall`` restores every original object, so untraced passes run the
program's own code with no wrapper in the way.

A span is ``(name, start, end, parent, command)``: ``parent`` is the index of
the enclosing span (-1 for none) and ``command`` the id of the CLI command
that caused it. Spans stay in memory; :meth:`Tracer.write` saves them.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable

# The traced public names per module. A dotted name is a method; a class name
# traces its construction.
TRACED = {
    "cli": ("main",),
    "protocol": (
        "log_ratio_table",
        "decide_bit",
        "sample_hits",
        "transmit_message",
        "required_sample_size",
        "EnsembleSchedule.emissions_after",
    ),
    "device": (
        "coherent_distribution",
        "incoherent_distribution",
        "eraser_conditionals",
        "build_joint_state",
        "write_distributions_csv",
    ),
    "quantum": ("DensityMatrix", "partial_trace", "trace_distance", "density_from_state"),
    "nosignal": (
        "verify_no_signaling",
        "reduced_screen_by_partial_trace",
        "reduced_screen_by_measurement_mixture",
        "coherent_screen_state",
    ),
    "relativity": ("build_paradox",),
}
# Screen distribution builders; their recompute ratio is builds per distinct
# (config, kind).
DISTRIBUTIONS = (
    "device.coherent_distribution",
    "device.incoherent_distribution",
    "device.eraser_conditionals",
)
EIGEN_SOLVERS = ("eigvalsh", "eigh", "eigvals", "eig")


class Tracer:
    """Installs the wrappers, records spans and counts, and summarises a pass."""

    def __init__(self) -> None:
        self.spans: list = []
        self.archive: list[list] = []
        self.stack: list[int] = []
        self.command = -1
        self.counts: Counter = Counter()
        self.distribution_keys: set = set()
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        package = [
            module
            for name, module in list(sys.modules.items())
            if name == "qtelegraph" or name.startswith("qtelegraph.")
        ]
        for layer, names in TRACED.items():
            module = sys.modules[f"qtelegraph.{layer}"]
            for name in names:
                span_name = f"{layer}.{name}"
                if "." in name:
                    owner_name, attr = name.split(".")
                    self._patch(getattr(module, owner_name), attr, span_name, None)
                else:
                    target = getattr(module, name)
                    if isinstance(target, type):
                        self._patch(target, "__init__", span_name, self._on_density_matrix)
                    else:
                        hook = self._on_distribution if span_name in DISTRIBUTIONS else None
                        self._rebind(package, target, self._wrap(span_name, target, hook))
        import numpy.linalg

        for name in EIGEN_SOLVERS:
            original = getattr(numpy.linalg, name)
            self._rebind(package + [numpy.linalg], original, self._count_eigen(original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner: type, attr: str, span_name: str, hook) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrap(span_name, original, hook))

    def _rebind(self, modules: list, original: object, replacement: object) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _wrap(self, name: str, fn: Callable, hook) -> Callable:
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent, self.command)
                stack.pop()
                if hook is not None:
                    hook(name, args, kwargs)

        return traced

    def _on_distribution(self, name: str, args: tuple, kwargs: dict) -> None:
        self.distribution_keys.add((name, args[0] if args else kwargs.get("cfg")))

    def _on_density_matrix(self, name: str, args: tuple, kwargs: dict) -> None:
        matrix = getattr(args[0], "matrix", None)
        if matrix is not None:
            self.counts["quantum.dense_bytes"] += 16 * matrix.shape[0] * matrix.shape[1]

    def _count_eigen(self, fn: Callable) -> Callable:
        """Count dim^3 per eigen-solve made inside a traced call of the program."""

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            if self.stack and len(shape) >= 2:
                self.counts["quantum.eigvalsh_n3"] += math.prod(shape[:-2]) * shape[-1] ** 3
            return fn(a, *args, **kwargs)

        return counted

    # -- per-pass summaries ------------------------------------------------

    def start_pass(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.distribution_keys.clear()

    def end_pass(self, wall_s: float, bytes_written: int) -> dict[str, float]:
        """Per-layer figures of the pass just traced; the spans move to the archive."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            inclusive[name] += end - start
            self_time[name.split(".")[0]] += end - start - child_time[index]

        figures: dict[str, float] = {}
        for layer, names in TRACED.items():
            figures[f"{layer}.self_s"] = self_time[layer]
            for name in names:
                figures[f"{layer}.{name}.calls"] = calls[f"{layer}.{name}"]
                figures[f"{layer}.{name}.s"] = inclusive[f"{layer}.{name}"]
        builds = sum(calls[name] for name in DISTRIBUTIONS)
        figures["device.distribution.calls"] = builds
        figures["device.distribution.s"] = sum(inclusive[name] for name in DISTRIBUTIONS)
        figures["device.recompute_ratio"] = builds / len(self.distribution_keys) if builds else 0.0
        figures["quantum.eigvalsh_n3"] = self.counts["quantum.eigvalsh_n3"]
        figures["quantum.dense_bytes"] = self.counts["quantum.dense_bytes"]
        figures["cli.bytes_written"] = bytes_written
        figures["trace.wall_s"] = wall_s
        self.archive.append(list(self.spans))
        return figures

    def write(self, path: Path) -> None:
        """Save every archived span as CSV: pass, index, parent, command, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("pass,index,parent,command,name,start,end\n")
            for pass_index, spans in enumerate(self.archive):
                for index, (name, start, end, parent, command) in enumerate(spans):
                    handle.write(f"{pass_index},{index},{parent},{command},{name},{start!r},{end!r}\n")
