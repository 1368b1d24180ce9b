"""Tests of the benchmark's span arithmetic and of its per-layer predictions.

    python3 -m pytest -q bench/test_bench.py

The prediction tests run each workload traced for one short run (about a
minute in all).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import Span, Tracer, self_times  # noqa: E402


def test_nested_spans_self_time():
    spans = [
        Span("accumulator.push", 0, 100, -1),
        Span("accumulator.batch_ustat", 10, 60, 0),
        Span("kernels.cross", 20, 30, 1),
        Span("kernels.cross", 40, 50, 1),
    ]
    assert self_times(spans) == [50, 30, 10, 10]


def test_overlapping_siblings_count_once_and_clip_to_parent():
    spans = [
        Span("cli", 0, 100, -1),
        Span("b", 30, 70, 0),
        Span("a", 10, 50, 0),  # overlaps b
        Span("c", 60, 65, 0),  # inside b
        Span("d", 90, 120, 0),  # runs past the parent's end
        Span("e", 110, 130, 0),  # wholly outside the parent
    ]
    # children cover [10, 70] and [90, 100]
    assert self_times(spans)[0] == 100 - 60 - 10


def test_tracer_restores_every_binding():
    from ustatcs import accumulator, kernels, sequences, simharness, spectral

    before = (
        accumulator.UStatAccumulator.push,
        kernels.get_kernel("gmd").cross,
        spectral.sage_upper,
        sequences.sage_upper,
        simharness.sage_upper,
        spectral.eigsh,
    )
    tracer = Tracer()
    tracer.install()
    assert sequences.sage_upper is simharness.sage_upper is not before[3]
    tracer.restore()
    after = (
        accumulator.UStatAccumulator.push,
        kernels.get_kernel("gmd").cross,
        spectral.sage_upper,
        sequences.sage_upper,
        simharness.sage_upper,
        spectral.eigsh,
    )
    assert after == before
    assert "cross" not in vars(kernels.get_kernel("gmd"))


def _traced(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["stream-gmd", "stream-mmd", "mc-power"])
def test_predicted_zeros_hold(workload):
    m = _traced(workload)
    spectral = {k: v for k, v in m.items() if k.startswith("spectral.")}
    if workload == "stream-gmd":
        assert m["accumulator.batch_ustat.calls"] == 4  # drift passes at 4096..16384
        assert not any(spectral.values())
    else:
        assert m["accumulator.batch_ustat.calls"] == 0
        assert m["spectral.refreshes"] > 0
    chi = m["sequences.chi_square_mixture_quantile.calls"]
    assert (chi > 0) if workload == "mc-power" else (chi == 0)


def test_benchmark_json_names_and_units_match_the_output():
    from collections import Counter

    import run
    from tracing import layer_metrics

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.UNITS
    assert list(layer) == [*layer_metrics([], Counter()), "trace.overhead_ratio"]
    assert all(run.unit_of(name) == unit for name, unit in layer.items())
