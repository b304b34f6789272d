"""Span tracing of optonoise's public functions, installed from outside.

``Tracer.install`` replaces public functions by timing wrappers in every
module that binds them by name, and wraps ``RngStream.generator`` on the
class so the generators it returns count and time ``standard_normal``.
``uninstall`` restores the originals.  Nothing under ``src/`` changes.

Calls that open a layer (samplers, solvers, sweeps, ``forward``) become
spans with a name, start, end, parent and run id, kept in memory.  The
hot leaf calls (``affine``, stream construction, normal draws) happen up
to a hundred thousand times per run, so they are not spans: their count
and time are added to the enclosing span and to per-name totals.  A
layer's self time is its spans' durations minus their child spans and
leaf calls.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass

_clock = time.perf_counter

# Per-layer metrics, all reported per traced round: (name, unit).
PER_LAYER = (
    ("noise.rng_streams", "count"),
    ("noise.rng_stream_s", "s"),
    ("noise.normals", "count"),
    ("noise.normal_s", "s"),
    ("noise.normals_per_stream", "count"),
    ("network.affine_calls", "count"),
    ("network.affine_s", "s"),
    ("network.affine_flops", "flop"),
    ("network.forward_s", "s"),
    ("noise.samples_s", "s"),
    ("noise.stats_s", "s"),
    ("design_a.self_s", "s"),
    ("design_a.wadds", "count"),
    ("design_b.self_s", "s"),
    ("design_b.wadds", "count"),
    ("experiments.self_s", "s"),
    ("experiments.sampler_calls", "count"),
    ("covariance.limit_series_s", "s"),
    ("covariance.limit_series_b_s", "s"),
    ("covariance.fixed_point_iterate_s", "s"),
    ("covariance.fixed_point_vectorized_s", "s"),
    ("covariance.propagate_s", "s"),
    ("covariance.propagate_b_s", "s"),
    ("covariance.propagate_b_branchwise_s", "s"),
    ("covariance.min_stable_m_s", "s"),
    ("covariance.fp_iterations", "count"),
    ("covariance.series_terms", "count"),
    ("covariance.kron_bytes", "B"),
    ("cli.self_s", "s"),
    ("cli.bytes_out", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)

# Layer spans whose own time is reported as self time.
SELF_TIME_LAYERS = ("cli", "experiments", "design_a", "design_b")

SAMPLERS = ("noisy_forward_samples", "design_a_samples", "design_b_samples")


@dataclass
class Span:
    span_id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float = math.nan
    child_s: float = 0.0  # child spans plus leaf calls

    def to_json(self) -> dict:
        return {"id": self.span_id, "parent": self.parent, "run": self.run,
                "name": self.name, "start": self.start, "end": self.end}


def _tree_wadds(spec, trials: int) -> int:
    """Weighted additions of a replication tree: ``sum_l prod_{k>=l} n_k`` per trial."""
    copies = spec.copies
    return trials * sum(math.prod(copies[l:]) for l in range(len(copies) - 1))


def _cs_wadds(spec, trials: int) -> int:
    return trials * spec.m * spec.base.depth


class Tracer:
    """Installs the wrappers and holds the spans and counts they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.run = 0
        self._stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.run, name, _clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = _clock()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def leaf(self, name: str, seconds: float, work: float = 1.0) -> None:
        self.counts[name + ".calls"] += 1
        self.counts[name + ".s"] += seconds
        self.counts[name + ".work"] += work
        if self._stack:
            self._stack[-1].child_s += seconds

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _affine_wrapper(self, fn):
        tracer = self

        def affine(weights, bias, h):
            start = _clock()
            out = fn(weights, bias, h)
            rows = h.size // h.shape[-1]
            tracer.leaf("network.affine", _clock() - start,
                        2.0 * weights.shape[0] * weights.shape[1] * rows)
            return out

        return affine

    def _generator_wrapper(self, fn):
        tracer = self

        def generator(stream):
            start = _clock()
            gen = fn(stream)
            tracer.leaf("noise.rng_stream", _clock() - start)
            return _CountingGenerator(gen, tracer)

        return generator

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap the public functions in every module that binds them by name."""
        from optonoise import cli, design_a, design_b, experiments, noise

        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {
            "noisy_forward_samples": noise.noisy_forward_samples,
            "stats_from_samples": noise.stats_from_samples,
            "design_a_samples": design_a.design_a_samples,
            "design_b_samples": design_b.design_b_samples,
            "forward": cli.forward,
            "affine": noise.affine,
        }
        wrapped = {
            "noisy_forward_samples": self._span_wrapper(
                "noise.noisy_forward_samples", originals["noisy_forward_samples"]),
            "stats_from_samples": self._span_wrapper(
                "noise.stats_from_samples", originals["stats_from_samples"]),
            "design_a_samples": self._span_wrapper(
                "design_a.design_a_samples", originals["design_a_samples"],
                lambda a, k, r: self.count("design_a.wadds", _tree_wadds(a[0], a[3]))),
            "design_b_samples": self._span_wrapper(
                "design_b.design_b_samples", originals["design_b_samples"],
                lambda a, k, r: self.count("design_b.wadds", _cs_wadds(a[0], a[3]))),
            "forward": self._span_wrapper("network.forward", originals["forward"]),
            "affine": self._affine_wrapper(originals["affine"]),
        }
        for module in (cli, experiments, noise, design_a, design_b):
            for attr, fn in wrapped.items():
                if getattr(module, attr, None) is originals[attr]:
                    replacement = fn
                    if module is experiments and attr in SAMPLERS:
                        replacement = self._counted(fn, "experiments.sampler_calls")
                    self._patch(module, attr, replacement)
        for module in (cli, experiments, design_b):
            for attr in ("limit_series", "limit_series_b", "fixed_point_solve", "propagate",
                         "propagate_b", "propagate_b_branchwise", "min_stable_m"):
                if hasattr(module, attr):
                    self._patch(module, attr, self._solver_wrapper(attr, getattr(module, attr)))
        for attr in ("run_accuracy_experiment", "run_mse_experiment", "run_depth_sweep",
                     "scan_m_grid"):
            self._patch(cli, attr, self._span_wrapper(f"experiments.{attr}", getattr(cli, attr)))
        self._patch(experiments, "calibrate_noise", self._span_wrapper(
            "experiments.calibrate_noise", experiments.calibrate_noise))
        self._patch(noise.RngStream, "generator",
                    self._generator_wrapper(noise.RngStream.generator))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _counted(self, fn, counter: str):
        def wrapper(*args, **kwargs):
            self.count(counter, 1)
            return fn(*args, **kwargs)

        return wrapper

    def _solver_wrapper(self, attr: str, fn):
        if attr == "fixed_point_solve":
            def name(args, kwargs):
                method = args[1] if len(args) > 1 else kwargs.get("method", "iterate")
                return f"covariance.fixed_point_{method}"

            def after(args, kwargs, result):
                if result.method == "iterate":
                    self.count("covariance.fp_iterations", result.iterations)
                else:
                    self.count("covariance.kron_bytes", 8 * args[0].dim**4)

            return self._span_wrapper(name, fn, after)
        if attr.startswith("limit_series"):
            return self._span_wrapper(
                f"covariance.{attr}", fn,
                lambda a, k, r: self.count("covariance.series_terms", r.terms))
        return self._span_wrapper(f"covariance.{attr}", fn)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics, averaged over ``rounds`` traced rounds."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            total[span.name] += duration
            self_time[span.name.split(".")[0]] += duration - span.child_s
        c = self.counts
        out = {
            "noise.rng_streams": c["noise.rng_stream.calls"],
            "noise.rng_stream_s": c["noise.rng_stream.s"],
            "noise.normals": c["noise.normal.work"],
            "noise.normal_s": c["noise.normal.s"],
            "network.affine_calls": c["network.affine.calls"],
            "network.affine_s": c["network.affine.s"],
            "network.affine_flops": c["network.affine.work"],
            "network.forward_s": total["network.forward"],
            "noise.samples_s": total["noise.noisy_forward_samples"],
            "noise.stats_s": total["noise.stats_from_samples"],
            "design_a.wadds": c["design_a.wadds"],
            "design_b.wadds": c["design_b.wadds"],
            "experiments.sampler_calls": c["experiments.sampler_calls"],
            "covariance.fp_iterations": c["covariance.fp_iterations"],
            "covariance.series_terms": c["covariance.series_terms"],
            "covariance.kron_bytes": c["covariance.kron_bytes"],
            "cli.bytes_out": c["cli.bytes_out"],
            "trace.spans": float(len(self.spans)),
        }
        for layer in SELF_TIME_LAYERS:
            out[f"{layer}.self_s"] = self_time[layer]
        for name, unit in PER_LAYER:
            if name.startswith("covariance.") and unit == "s":
                out[name] = total[name.removesuffix("_s")]
        out = {name: value / rounds for name, value in out.items()}
        streams = out["noise.rng_streams"]
        out["noise.normals_per_stream"] = out["noise.normals"] / streams if streams else 0.0
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")


class _CountingGenerator:
    """A numpy Generator whose ``standard_normal`` calls are counted and timed."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        start = _clock()
        out = self._gen.standard_normal(*args, **kwargs)
        self._tracer.leaf("noise.normal", _clock() - start, float(getattr(out, "size", 1)))
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)
