"""Smoke tests of the benchmark itself, at the tiny (warm-up) scale.

    python3 -m pytest bench -q
"""

import json
import math
from pathlib import Path

import pytest

import run
import spans
import workloads

SAMPLER_LAYERS = ("noise.", "network.", "design_a.", "design_b.")


def _benchmark(workload, trace):
    return run.run_benchmark(workload, seed=3, seconds=0.1, trace=trace, scale="tiny")


def test_benchmark_json_names_every_metric_and_workload():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _benchmark(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == dict(run.END_TO_END)
    assert all(m["value"] > 0 for m in metrics.values())
    assert metrics["pass_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _benchmark(workload, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == dict(spans.PER_LAYER)
    values = {name: m["value"] for name, m in metrics.items()}
    assert all(math.isfinite(v) for v in values.values())
    assert values["cli.bytes_out"] > 0 and values["trace.spans"] > 0
    sampler = [v for k, v in values.items() if k.startswith(SAMPLER_LAYERS)]
    solver = [v for k, v in values.items() if k.startswith("covariance.")]
    if workload == "analytic-d64":
        assert not any(sampler)
        assert all(solver)
    else:
        assert any(sampler) and not any(solver)
        assert values["noise.rng_streams"] > 0 and values["noise.normals"] > 0


def test_tracer_restores_the_package():
    from optonoise import cli, design_a, experiments, noise

    before = (cli.forward, experiments.design_a_samples, design_a.affine,
              noise.RngStream.generator, cli.fixed_point_solve)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.forward is not before[0]
    tracer.uninstall()
    after = (cli.forward, experiments.design_a_samples, design_a.affine,
             noise.RngStream.generator, cli.fixed_point_solve)
    assert after == before


def _truncate(path):
    with open(path, "r+", encoding="utf-8") as fh:
        size = len(fh.read())
        fh.truncate(size // 2)


def _scale_numbers(path):
    def scale(obj):
        if isinstance(obj, float):
            return obj * 1.5
        if isinstance(obj, list):
            return [scale(v) for v in obj]
        if isinstance(obj, dict):
            return {k: scale(v) for k, v in obj.items()}
        return obj

    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scale(obj), fh)


@pytest.mark.parametrize("corrupt", [_truncate, _scale_numbers])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_raises_failed_fraction(workload, corrupt, monkeypatch):
    read_output = workloads.read_output

    def corrupted_read(path):
        assert run.OUT_DIR in Path(path).parents  # never touch a shipped file
        corrupt(path)
        return read_output(path)

    monkeypatch.setattr(workloads, "read_output", corrupted_read)
    result = _benchmark(workload, trace=False)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["pass_frac"]["value"] < 1.0
