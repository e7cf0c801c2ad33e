"""compare.py verdicts on synthetic runs."""

from __future__ import annotations

import json
import os

import compare

PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_improved_needs_nine_of_ten_pairs():
    nine = [p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    assert compare.verdict(PARENT, nine, "lower", 0.1)["verdict"] == "improved"
    assert compare.verdict(PARENT, nine, "lower", 0.1)["won"] == 0.9
    eight = [p - 1.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    row = compare.verdict(PARENT, eight, "lower", 0.1)
    assert row["won"] == 0.8
    assert row["verdict"] == "unchanged"


def test_improved_needs_a_gap_wider_than_the_parent_spread():
    # Every pair won, but by less than the parent's interquartile range.
    row = compare.verdict(PARENT, [p - 0.01 for p in PARENT], "lower", 0.1)
    assert row["won"] == 1.0
    assert row["verdict"] == "unchanged"


def test_higher_is_better_flips_the_direction():
    assert compare.verdict(PARENT, [p + 1.0 for p in PARENT], "higher", 0.1)["verdict"] == "improved"
    assert compare.verdict(PARENT, [p - 2.0 for p in PARENT], "higher", 0.1)["verdict"] == "worse"


def test_worse_past_the_bound_only():
    assert compare.verdict(PARENT, [p * 1.15 for p in PARENT], "lower", 0.1)["verdict"] == "worse"
    assert compare.verdict(PARENT, [p * 1.05 for p in PARENT], "lower", 0.1)["verdict"] == "unchanged"


def test_unresolved_when_spread_is_wider_than_the_bound():
    wide = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0]
    assert compare.verdict(PARENT, wide, "lower", 0.1)["verdict"] == "unresolved"
    assert compare.verdict(wide, PARENT, "lower", 0.1)["verdict"] == "unresolved"


def test_metrics_without_a_bound_get_no_verdict():
    row = compare.verdict(PARENT, PARENT, None, None)
    assert row["verdict"] == "-" and row["won"] is None


def _write_runs(tmp_path, side, values):
    paths = []
    for i, value in enumerate(values):
        path = tmp_path / f"{side}-{i}.json"
        record = {
            "workload": "hot-hits",
            "metrics": {
                "latency_p50_ms": {"value": value, "unit": "ms"},
                "gateway.rpc.count": {"value": 3.0, "unit": "count"},
            },
        }
        path.write_text(json.dumps([record]))
        paths.append(str(path))
    return paths


def test_compare_reads_run_files_in_pair_order(tmp_path):
    parent = _write_runs(tmp_path, "parent", PARENT)
    change = _write_runs(tmp_path, "change", [p * 1.3 for p in PARENT])
    rows = compare.compare(parent, change, {"latency_p50_ms": ("lower", 0.1)})
    verdicts = {(w, m): row["verdict"] for w, m, row in rows}
    assert verdicts == {
        ("hot-hits", "latency_p50_ms"): "worse",
        ("hot-hits", "gateway.rpc.count"): "-",
    }
    assert compare.main(["--parent", *parent, "--change", *change]) == 1


def test_bounds_come_from_the_benchmark_definition():
    bounds = compare.load_bounds(os.path.join(compare.ROOT, "BENCHMARK.json"))
    assert set(bounds) >= {"latency_p50_ms", "latency_p95_ms", "setup_s"}
    assert bounds["setup_s"] == ("lower", max(bound for _, bound in bounds.values()))
    assert all(0 < bound <= 0.25 for _, bound in bounds.values())
