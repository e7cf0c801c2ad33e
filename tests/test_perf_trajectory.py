"""The ``repro bench`` trajectory file: append semantics and damage recovery.

Regression tests for the bug where a ``BENCH_perf.json`` that existed but
had no ``runs`` key left the tracked trajectory permanently empty — every
bench run rewrote the file without ever accumulating history.  The append
path must absorb every on-disk shape it can meet: missing file, empty
file, invalid JSON, the legacy single-run schema-1 payload, and trajectory
dicts with a missing or malformed ``runs`` key.
"""

import json

import pytest

from repro.analysis.perf import (
    RUN_SCHEMA,
    TRAJECTORY_SCHEMA,
    _load_runs,
    append_run,
    run_bench,
)


def _fake_run(tag):
    return {
        "schema": RUN_SCHEMA,
        "quick": True,
        "records": [
            {
                "op": f"fake[{tag}]", "n": 10, "k": None, "reps": 1,
                "median_ms": 1.0, "p90_ms": 1.0, "speedup_vs_reference": None,
            }
        ],
    }


def _read(path):
    return json.loads(path.read_text())


def test_append_creates_missing_file(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    trajectory = append_run(str(out), _fake_run("first"))
    assert trajectory == _read(out)
    assert trajectory["schema"] == TRAJECTORY_SCHEMA
    assert [r["records"][0]["op"] for r in trajectory["runs"]] == ["fake[first]"]


def test_append_accumulates_runs(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    append_run(str(out), _fake_run("a"))
    append_run(str(out), _fake_run("b"))
    trajectory = append_run(str(out), _fake_run("c"))
    assert [r["records"][0]["op"] for r in trajectory["runs"]] == [
        "fake[a]", "fake[b]", "fake[c]",
    ]


def test_append_to_empty_file(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    out.write_text("")
    trajectory = append_run(str(out), _fake_run("x"))
    assert len(trajectory["runs"]) == 1


def test_append_to_invalid_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    out.write_text("{not json")
    trajectory = append_run(str(out), _fake_run("x"))
    assert len(trajectory["runs"]) == 1
    # The rewrite healed the file: the next append sees a valid trajectory.
    assert len(append_run(str(out), _fake_run("y"))["runs"]) == 2


def test_append_migrates_legacy_schema1_payload(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    legacy = _fake_run("legacy")
    out.write_text(json.dumps(legacy))
    trajectory = append_run(str(out), _fake_run("new"))
    assert [r["records"][0]["op"] for r in trajectory["runs"]] == [
        "fake[legacy]", "fake[new]",
    ]


@pytest.mark.parametrize(
    "on_disk",
    [
        {"schema": TRAJECTORY_SCHEMA},                      # the reported bug
        {"schema": TRAJECTORY_SCHEMA, "runs": "oops"},      # malformed runs
        {"schema": TRAJECTORY_SCHEMA, "runs": None},
        [1, 2, 3],                                          # not even a dict
    ],
)
def test_append_initialises_when_runs_key_unusable(tmp_path, on_disk):
    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps(on_disk))
    trajectory = append_run(str(out), _fake_run("x"))
    assert trajectory["schema"] == TRAJECTORY_SCHEMA
    assert len(trajectory["runs"]) == 1
    assert _read(out) == trajectory


def test_append_refuses_newer_on_disk_schema(tmp_path):
    # A trajectory written by a future library version must not be silently
    # rewritten (downgraded) by this one.
    out = tmp_path / "BENCH_perf.json"
    newer = {"schema": "repro-bench-perf/99", "runs": [_fake_run("future")]}
    out.write_text(json.dumps(newer))
    with pytest.raises(ValueError, match="refusing to silently downgrade"):
        append_run(str(out), _fake_run("x"))
    assert _read(out) == newer  # file untouched


def test_append_refuses_unversioned_run_payload(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    bad = _fake_run("x")
    del bad["schema"]
    with pytest.raises(ValueError, match="append_run only accepts"):
        append_run(str(out), bad)
    with pytest.raises(ValueError):
        append_run(str(out), {**_fake_run("y"), "schema": "something-else/3"})
    assert not out.exists()


def test_load_runs_skips_non_dict_entries(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    out.write_text(json.dumps({"schema": TRAJECTORY_SCHEMA, "runs": [_fake_run("a"), 7, None]}))
    assert [r["records"][0]["op"] for r in _load_runs(str(out))] == ["fake[a]"]


def test_run_bench_appends_and_returns_current_run(tmp_path, monkeypatch):
    # Stub every benchmark so this is an I/O test, not a timing run.
    import repro.analysis.perf as perf

    for name in (
        "bench_tm_kernels", "bench_sweep_engine", "bench_opt_exact",
        "bench_forest_traversals", "bench_tracer_overhead",
        "bench_serve_cache", "bench_store_prewarm",
    ):
        monkeypatch.setattr(perf, name, lambda **kw: [])
    out = tmp_path / "BENCH_perf.json"
    first = run_bench(quick=True, out=str(out))
    second = run_bench(quick=True, out=str(out))
    assert first["schema"] == RUN_SCHEMA and second["records"] == []
    on_disk = _read(out)
    assert on_disk["schema"] == TRAJECTORY_SCHEMA
    assert on_disk["runs"] == [first, second]


def test_run_bench_out_none_writes_nothing(tmp_path, monkeypatch):
    import repro.analysis.perf as perf

    for name in (
        "bench_tm_kernels", "bench_sweep_engine", "bench_opt_exact",
        "bench_forest_traversals", "bench_tracer_overhead",
        "bench_serve_cache", "bench_store_prewarm",
    ):
        monkeypatch.setattr(perf, name, lambda **kw: [])
    monkeypatch.chdir(tmp_path)
    payload = run_bench(quick=True, out=None)
    assert payload["schema"] == RUN_SCHEMA
    assert list(tmp_path.iterdir()) == []