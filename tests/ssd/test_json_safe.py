"""Non-finite floats must never leak into JSON output.

An empty :class:`~repro.kernel.stats.Accumulator` snapshots as
``minimum=inf`` / ``maximum=-inf``; ``json.dumps`` would happily emit the
``Infinity`` token, which is outside the JSON grammar and rejected by
strict parsers (and Perfetto).  ``json_safe`` / ``render_json`` are the
choke points.
"""

import json
import math

import pytest

from repro.core import render_json
from repro.kernel.stats import Accumulator
from repro.ssd.metrics import RunResult, json_safe


def strict_loads(text):
    """Parse rejecting Infinity/NaN tokens, like a strict consumer."""
    def _reject(token):
        raise ValueError(f"non-finite constant {token!r}")
    return json.loads(text, parse_constant=_reject)


class TestJsonSafe:
    def test_scalars(self):
        assert json_safe(math.inf) is None
        assert json_safe(-math.inf) is None
        assert json_safe(float("nan")) is None
        assert json_safe(1.5) == 1.5
        assert json_safe(7) == 7
        assert json_safe("inf") == "inf"
        assert json_safe(None) is None
        assert json_safe(True) is True

    def test_nested_containers(self):
        payload = {"a": [1.0, math.inf, {"b": (float("nan"), 2)}]}
        assert json_safe(payload) == {"a": [1.0, None, {"b": [None, 2]}]}

    def test_empty_accumulator_snapshot_round_trips(self):
        acc = Accumulator()
        payload = {"lat.max": acc.maximum, "lat.mean": acc.mean}
        text = json.dumps(json_safe(payload), allow_nan=False)
        assert strict_loads(text) == {"lat.max": None, "lat.mean": 0.0}


class TestRenderJson:
    def test_sanitizes_and_sorts(self):
        text = render_json({"b": math.inf, "a": 1})
        assert strict_loads(text) == {"a": 1, "b": None}
        assert text.index('"a"') < text.index('"b"')

    def test_never_emits_infinity_token(self):
        text = render_json({"deep": [{"x": [-math.inf, float("nan")]}]})
        assert "Infinity" not in text and "NaN" not in text


class TestRunResultToDict:
    def make_result(self, **overrides):
        fields = dict(label="t", throughput_mbps=1.0, sustained_mbps=1.0,
                      iops=1.0, commands=1, bytes_moved=4096,
                      sim_time_ps=10, mean_latency_us=1.0,
                      max_latency_us=1.0, p50_latency_us=1.0,
                      p95_latency_us=1.0, p99_latency_us=1.0,
                      wall_seconds=0.1, events=10, utilizations={})
        fields.update(overrides)
        return RunResult(**fields)

    def test_to_dict_sanitizes_non_finite(self):
        result = self.make_result(
            p99_latency_us=math.inf,  # overflow-only histogram tail
            utilizations={"chn0": float("nan")})
        payload = result.to_dict()
        assert payload["latency_us"]["p99"] is None
        assert payload["utilizations"]["chn0"] is None
        strict_loads(json.dumps(payload, allow_nan=False))  # no raise

    def test_to_dict_carries_stage_breakdown(self):
        result = self.make_result(stage_breakdown={
            "queue": {"count": 1, "total_ps": 10.0, "mean_ps": 10.0,
                      "max_ps": 10.0, "share": 1.0}})
        payload = result.to_dict()
        assert payload["stage_breakdown"]["queue"]["share"] == 1.0
        assert self.make_result().to_dict()["stage_breakdown"] == {}
