"""Span recording, nesting and self time, on synthetic spans."""

from __future__ import annotations

import asyncio
import json
import threading
import types

import pytest

import spans


def test_self_time_subtracts_the_union_of_children():
    # parent [0, 10]; children [1, 3] and [2, 5] overlap; [9, 12] runs past
    # the parent's end; the grandchild [1.5, 2] is the child's business.
    synthetic = [
        (1, 0, "solver.solve", 0.0, 10.0, None),
        (2, 1, "solver.opt_infty", 1.0, 3.0, None),
        (3, 1, "solver.lsa", 2.0, 5.0, None),
        (4, 1, "solver.reduction", 9.0, 12.0, None),
        (5, 2, "solver.tm_batched", 1.5, 2.0, None),
    ]
    assert spans.self_times(synthetic, "solver.solve") == [pytest.approx(10 - 4 - 1)]
    assert spans.self_times(synthetic, "solver.opt_infty") == [pytest.approx(1.5)]
    assert spans.self_times(synthetic, "solver.lsa") == [pytest.approx(3.0)]


def test_covered_merges_overlaps_and_clips():
    assert spans.covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4)
    assert spans.covered([(-5, 1), (9, 20)], 0, 10) == pytest.approx(2)
    assert spans.covered([], 0, 10) == 0


def _fake_layers(rec):
    ns = types.SimpleNamespace()
    ns.inner = spans._timed(rec, "solver.lsa", lambda x: x + 1)
    ns.outer = spans._timed(rec, "solver.solve", lambda x: ns.inner(x) * 2)
    return ns


def test_recorder_nests_calls_and_keeps_threads_apart():
    rec = spans.Recorder()
    layers = _fake_layers(rec)
    assert layers.outer(1) == 4
    worker = threading.Thread(target=layers.outer, args=(2,))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    recorded = rec.spans()
    by_id = {s[0]: s for s in recorded}
    inner = [s for s in recorded if s[2] == "solver.lsa"]
    assert len(inner) == 2
    for span in inner:
        parent = by_id[span[1]]
        assert parent[2] == "solver.solve"
        assert parent[3] <= span[3] <= span[4] <= parent[4]
    assert {by_id[s[1]][1] for s in inner} == {0}


def test_async_spans_nest_per_task():
    rec = spans.Recorder()

    async def leaf():
        await asyncio.sleep(0.01)

    timed_leaf = spans._timed(rec, "gateway.rpc", leaf)

    async def handle():
        await timed_leaf()

    timed_handle = spans._timed(rec, "gateway.handle_solve", handle)

    async def main():
        await asyncio.gather(*(timed_handle() for _ in range(5)))

    asyncio.run(main())
    recorded = rec.spans()
    handles = {s[0] for s in recorded if s[2] == "gateway.handle_solve"}
    rpcs = [s for s in recorded if s[2] == "gateway.rpc"]
    assert len(handles) == 5 and len(rpcs) == 5
    assert sorted(s[1] for s in rpcs) == sorted(handles)


def test_extra_false_drops_the_span_and_restores_the_parent():
    rec = spans.Recorder()

    async def call(self, op, **payload):
        return op

    wrapped = spans._timed(rec, "gateway.rpc", call, extra=spans._rpc_batch_size)

    async def main():
        await wrapped(None, "ping")
        await wrapped(None, "batch", requests=[1, 2, 3])
        return spans._CURRENT.get()

    assert asyncio.run(main()) == 0
    assert [(s[2], s[5]) for s in rec.spans()] == [("gateway.rpc", 3.0)]


def test_install_reports_missing_targets_as_absent(monkeypatch):
    monkeypatch.setattr(
        spans,
        "TARGETS",
        spans.TARGETS[:1] + (("gateway.gone", "repro.gateway.core", "NoSuchClass.submit", spans._timed),),
    )
    import repro.gateway.core as core
    from repro.serve.service import SolverService

    original = core.Gateway.handle_solve
    # Re-set what install() replaces, so monkeypatch restores it afterwards.
    monkeypatch.setattr(core.Gateway, "handle_solve", original)
    monkeypatch.setattr(SolverService, "shutdown", SolverService.shutdown)
    monkeypatch.setattr(spans.os, "register_at_fork", lambda **kwargs: None)
    assert spans.install(spans.Recorder()) == ["gateway.gone"]
    assert core.Gateway.handle_solve is not original
    assert core.Gateway.handle_solve.__wrapped__ is original


def test_layer_metrics_from_dumps(tmp_path):
    window = (100.0, 200.0)
    shard = [
        (1, 0, "store.prewarm", 50.0, 51.0, None),  # set-up: kept outside the window
        (2, 1, "store.get", 50.1, 50.2, 1.0),  # a prewarm read: dropped
        (3, 0, "store.get", 120.0, 120.002, 1.0),
        (4, 0, "store.get", 121.0, 121.004, 0.0),
        (5, 0, "solver.solve", 150.0, 150.010, None),
        (6, 5, "solver.opt_infty", 150.001, 150.004, None),
        (7, 0, "solver.solve", 90.0, 90.5, None),  # warm-up: dropped
        (8, 0, "serve.lru.get", 130.0, 130.001, 1.0),
        (9, 0, "serve.lru.get", 131.0, 131.001, 0.0),
        (10, 0, "serve.lru.put", 131.0, 131.001, 1.0),
    ]
    gateway = [
        (1, 0, "gateway.handle_solve", 110.0, 110.008, None),
        (2, 1, "gateway.rpc", 110.001, 110.005, 1.0),
        (3, 1, "gateway.rpc", 110.001, 110.005, 3.0),
    ]
    for pid, recorded in ((1, shard), (2, gateway)):
        (tmp_path / f"spans-{pid}.json").write_text(json.dumps(recorded))
    per_process = spans.load_process_spans(str(tmp_path), window)
    metrics = spans.layer_metrics(per_process, [0.001, 0.003], 12.0)
    assert metrics["store.prewarm.count"] == 1
    assert metrics["store.get.count"] == 2
    assert metrics["store.get.p50_ms"] == pytest.approx(3.0)
    assert metrics["store.get.busy_ms"] == pytest.approx(6.0)
    assert metrics["store.get.hit_ratio"] == pytest.approx(0.5)
    assert metrics["solver.solve.count"] == 1
    assert metrics["solver.solve.self_ms"] == pytest.approx(7.0)
    assert metrics["serve.lru.hit_ratio"] == pytest.approx(0.5)
    assert metrics["serve.lru.evictions"] == 1
    assert metrics["gateway.rpc.batch_size_mean"] == pytest.approx(2.0)
    assert metrics["client.conn_wait.p50_ms"] == pytest.approx(2.0)
    assert metrics["gateway.http_self.p50_ms"] == pytest.approx(12.0 - 2.0 - 8.0)
    assert metrics["gateway.batcher.count"] == 0
