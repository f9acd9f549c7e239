"""Spans and counters recorded around calls into `rpia`, from outside the package.

The tracer replaces a public function by a wrapper in its defining module
and in every `rpia` module that imported it by name, so calls made through
either path are seen. A function that no longer exists is reported as an
absent layer rather than an error: later refactors may fold or delete it.

Spans are kept in memory. A span's self time is its duration minus the
durations of its direct children; the root span covers the whole process,
so the self times of all spans add up to the root's duration.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

clock = time.monotonic


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(float))
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)

    def open(self, name: str, start: Optional[float] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, clock() if start is None else start, parent=parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, end: Optional[float] = None) -> None:
        if self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span.end = clock() if end is None else end
        if span.parent is not None:
            self.spans[span.parent].children_s += span.duration

    def record(self, name: str, start: float, end: float) -> None:
        """A finished span, e.g. one timed before the tracer existed."""
        self.close(self.open(name, start), end)

    def wrap(self, fn: Callable, name: str, count=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if count is not None:
                count(self, result, args, kwargs)
            return result

        return traced

    def install(self, layers) -> list:
        """Wrap every layer function that exists; return the absent ones."""
        absent = []
        for layer in layers:
            module = sys.modules.get(layer.module)
            original = getattr(module, layer.attr, None) if module else None
            if not callable(original):
                absent.append(f"{layer.module}.{layer.attr}")
                continue
            wrapper = self.wrap(original, layer.span, layer.count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "rpia" or mod_name.startswith("rpia.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return absent

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def ancestors(self, span: Span):
        while span.parent is not None:
            span = self.spans[span.parent]
            yield span.name

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open now."""
        return any(self.spans[index].name == name for index in self._stack)

    def durations(self, name: str, within: Optional[str] = None) -> list:
        """Durations of the outermost spans called ``name`` (no double counting),
        only those inside a span called ``within`` if that is given."""
        return [
            span.duration
            for span in self.spans
            if span.name == name
            and name not in self.ancestors(span)
            and (within is None or within in self.ancestors(span))
        ]

    def total(self, name: str, within: Optional[str] = None) -> float:
        return float(sum(self.durations(name, within)))

    def self_total(self, name: str) -> float:
        return float(sum(s.self_s for s in self.spans if s.name == name))


# Counters: each receives (tracer, result, args, kwargs) after a call returns
# and its span has closed.

# Collocation is measured as set-up only: write_outputs also assembles
# collocation matrices, to sample the fitted curve or surface.
SETUP_SPAN = "experiment.build_problem"


def _count_rows(tracer, result, args, kwargs):
    if tracer.inside(SETUP_SPAN):
        tracer.counts["assembly.collocation_rows"] += getattr(result, "shape", (0,))[0]


def _count_calls(key):
    def count(tracer, result, args, kwargs):
        tracer.counts[key] += 1
    return count


def _count_outer(tracer, result, args, kwargs):
    tracer.counts["regparam.sc_outer_iterations"] += getattr(result, "outer_iterations", 0)


def _count_solver(prefix):
    def count(tracer, result, args, kwargs):
        counts = tracer.counts
        counts[f"{prefix}.calls"] += 1
        counts[f"{prefix}.iterations"] += getattr(result, "iterations", 0)
        if getattr(result, "converged", False):
            counts[f"{prefix}.converged"] += 1
        else:
            counts[f"{prefix}.capped_seeds"] += 1
    return count


def _count_csv(tracer, result, args, kwargs):
    counts = tracer.counts
    path = kwargs.get("path", args[0] if args else None)
    rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
    counts["pointsio.rows_written"] += len(rows) if hasattr(rows, "__len__") else 0
    if path is not None and os.path.exists(path):
        counts["pointsio.bytes_written"] += os.path.getsize(path)


@dataclass(frozen=True)
class Layer:
    span: str
    module: str
    attr: str
    count: Optional[Callable] = None


# The layer boundaries the traced run wraps, named after the rpia modules.
LAYERS = (
    Layer("config.load", "rpia.config", "load_config"),
    Layer("datasets.generate", "rpia.datasets", "rose_curve"),
    Layer("datasets.generate", "rpia.datasets", "blob_curve"),
    Layer("datasets.generate", "rpia.datasets", "boy_surface"),
    Layer("datasets.noise", "rpia.datasets", "add_noise"),
    Layer("basis.params", "rpia.basis", "chord_length_params"),
    Layer("basis.params", "rpia.basis", "surface_params"),
    Layer("basis.knots", "rpia.basis", "build_knots"),
    Layer("assembly.collocation", "rpia.assembly", "assemble_collocation", _count_rows),
    Layer("assembly.augment", "rpia.assembly", "augment_curve",
          _count_calls("assembly.augment_calls")),
    Layer("assembly.augment", "rpia.assembly", "augment_surface",
          _count_calls("assembly.augment_calls")),
    Layer("assembly.partition", "rpia.assembly", "make_partition"),
    Layer("oracle.direct", "rpia.oracle", "solve_curve_direct",
          _count_calls("oracle.direct_calls")),
    Layer("oracle.direct", "rpia.oracle", "solve_surface_direct",
          _count_calls("oracle.direct_calls")),
    Layer("regparam.whiten", "rpia.regparam", "build_whitened_design"),
    Layer("regparam.eig", "rpia.regparam", "gram_eigenvalues"),
    Layer("regparam.eig", "rpia.regparam", "surface_whitened_eigenvalues"),
    Layer("regparam.spectrum", "rpia.experiment", "problem_spectrum"),
    Layer("regparam.estimate", "rpia.experiment", "estimate_lambda"),
    Layer("regparam.sc", "rpia.regparam", "self_consistent_curve", _count_outer),
    Layer("regparam.sc", "rpia.regparam", "self_consistent_surface", _count_outer),
    Layer("curve.run", "rpia.curve", "run", _count_solver("curve")),
    Layer("surface.run", "rpia.surface", "run", _count_solver("surface")),
    Layer("pointsio.write", "rpia.pointsio", "write_csv", _count_csv),
    Layer("experiment.build_problem", "rpia.experiment", "build_problem"),
    Layer("experiment.run_seed", "rpia.experiment", "run_seed"),
    Layer("experiment.run_experiment", "rpia.experiment", "run_experiment"),
    Layer("experiment.write_outputs", "rpia.experiment", "write_outputs"),
)

# The one boundary the untraced run needs: it separates set-up from seed fits.
SEED_LAYER = next(layer for layer in LAYERS if layer.span == "experiment.run_seed")


def _per_iter_us(seconds: float, iterations: float) -> float:
    return 1e6 * seconds / iterations if iterations else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced process, keyed by metric name."""
    c = tracer.counts
    t = tracer.total
    curve_calls = c["curve.calls"]
    return {
        "cli.import_s": t("cli.import"),
        "config.load_s": t("config.load"),
        "datasets.generate_s": t("datasets.generate"),
        "datasets.noise_s": t("datasets.noise"),
        "basis.params_s": t("basis.params"),
        "basis.knots_s": t("basis.knots"),
        "assembly.collocation_s": t("assembly.collocation", within=SETUP_SPAN),
        "assembly.collocation_rows": c["assembly.collocation_rows"],
        "assembly.augment_s": t("assembly.augment"),
        "assembly.augment_calls": c["assembly.augment_calls"],
        "assembly.partition_s": t("assembly.partition"),
        "oracle.direct_s": t("oracle.direct"),
        "oracle.direct_calls": c["oracle.direct_calls"],
        "regparam.whiten_s": t("regparam.whiten"),
        "regparam.eig_s": t("regparam.eig"),
        "regparam.spectrum_s": t("regparam.spectrum"),
        "regparam.estimate_s": t("regparam.estimate"),
        "regparam.sc_self_s": tracer.self_total("regparam.sc"),
        "regparam.sc_outer_iterations": c["regparam.sc_outer_iterations"],
        "curve.run_s": t("curve.run"),
        "curve.iterations": c["curve.iterations"],
        "curve.us_per_iter": _per_iter_us(t("curve.run"), c["curve.iterations"]),
        "curve.capped_seeds": c["curve.capped_seeds"],
        "curve.converged_ratio": c["curve.converged"] / curve_calls if curve_calls else 0.0,
        "surface.run_s": t("surface.run"),
        "surface.iterations": c["surface.iterations"],
        "surface.us_per_iter": _per_iter_us(t("surface.run"), c["surface.iterations"]),
        "surface.capped_seeds": c["surface.capped_seeds"],
        "pointsio.write_s": t("pointsio.write"),
        "pointsio.rows_written": c["pointsio.rows_written"],
        "pointsio.bytes_written": c["pointsio.bytes_written"],
        "experiment.build_problem_s": tracer.self_total("experiment.build_problem"),
        "experiment.run_seed_self_s": tracer.self_total("experiment.run_seed"),
    }
