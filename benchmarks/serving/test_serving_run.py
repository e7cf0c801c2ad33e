"""Short end-to-end runs of every workload against a real gateway."""

from __future__ import annotations

import json
import os

import pytest

import run
from workloads import BENCHMARKS

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

NAMES = [w.name for w in BENCHMARKS]


def _run(tmp_path, workload, *extra):
    out = tmp_path / "out.json"
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "3", "--out", str(out), *extra])
    with open(out) as fh:
        (record,) = json.load(fh)
    return code, record


def test_the_definition_names_the_registry():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END


@pytest.mark.parametrize("workload", NAMES)
def test_short_run_reports_every_metric_and_no_errors(tmp_path, capsys, workload):
    code, record = _run(tmp_path, workload)
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert {name: m["unit"] for name, m in summary["metrics"].items()} == run.END_TO_END
    assert summary["attempted"] == record["attempted"] and summary["failed"] == 0
    assert record["correct"] and record["wrong"] == 0 and record["degraded"] == 0
    assert record["error_rate"] == 0 and record["failed"] == 0
    assert record["checked"] >= record["attempted"] > 0
    units = {name: metric["unit"] for name, metric in record["metrics"].items()}
    assert units == run.REPORTED
    assert all(metric["value"] > 0 for metric in record["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_attributes_time_to_the_right_layers(tmp_path, workload):
    code, record = _run(tmp_path, workload, "--trace", "1")
    assert code == 0 and record["error_rate"] == 0
    metrics = {name: metric["value"] for name, metric in record["metrics"].items()}
    units = {name: metric["unit"] for name, metric in record["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert record["absent"] == []
    assert (tmp_path / "trace.json").exists()
    solver = [metrics[f"{name}.count"] for name in ("solver.solve", "solver.opt_infty")]
    if workload == "cold-misses":
        assert all(count > 0 for count in solver)
    elif workload in ("hot-hits", "deadline-hits"):
        assert all(count == 0 for count in solver)
        assert metrics["serve.lru.hit_ratio"] == 1.0
    if workload == "hot-hits":
        assert metrics["gateway.batcher.count"] > 0
    if workload == "deadline-hits":
        assert metrics["gateway.batcher.count"] == 0
        assert metrics["gateway.rpc.count"] > 0
    if workload == "store-spill":
        assert metrics["store.get.hit_ratio"] >= 0.5
        assert metrics["store.prewarm.count"] == 2


def test_a_tampered_expected_value_fails_the_run(tmp_path, monkeypatch):
    honest = run.direct_value
    calls = []

    def tampered(request):
        calls.append(request)
        value = honest(request)
        return value + 1 if len(calls) == 1 else value

    monkeypatch.setattr(run, "direct_value", tampered)
    code, record = _run(tmp_path, "hot-hits")
    assert code == 1
    assert not record["correct"] and record["wrong"] > 0
