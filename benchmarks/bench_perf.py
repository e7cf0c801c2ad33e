"""Performance-layer benchmarks: the vectorized TM kernel, the parallel
sweep engine, the exact ``OPT_∞`` core and the serving caches, with the
speedup acceptance gates.

The machine-readable trajectory (``BENCH_perf.json``) is produced by
``python -m repro bench``; this file re-times the same kernels under
pytest-benchmark and asserts the headline claims:

* ``tm_values_vectorized`` ≥ 5× the reference loop at n = 10^5;
* the persistent executor's ``run_sweep[workers=4]`` ≥ 3× serial (≥ 1.5× under
  ``CI``, where shared runners throttle; skipped below 4 usable cores —
  the speedup is physically bounded by the core count);
* parallel and serial sweeps agree bit-for-bit (the equality, not the
  timing, is the correctness contract);
* the disabled observability layer costs < 5% on the TM hot path
  (``repro.obs`` tracer contract);
* a solver-service cache hit answers ≥ 10× faster than the cold solve it
  memoised (``repro.serve`` acceptance gate);
* a restarted service prewarmed from the durable store answers within 2×
  of warm-cache p50 (``repro.store`` acceptance gate: a restart must be
  indistinguishable from a warm process);
* the bitset ``OPT_∞`` core solves an overloaded integral n = 20 instance
  cold (caches cleared) in under 1 s — the frontier the legacy
  branch-and-bound could not reach at all.
"""

import json
import os

import pytest

from repro.analysis.perf import (
    bench_opt_exact,
    bench_serve_cache,
    bench_store_prewarm,
    bench_sweep_engine,
    bench_tm_kernels,
    bench_tracer_overhead,
    run_bench,
)
from repro.analysis.sweep import Sweep, run_sweep
from repro.core.bas.tm import tm_values, tm_values_vectorized
from repro.instances.random_trees import random_forest


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_bench_tm_vectorized(benchmark, n):
    forest = random_forest(n, seed=2018)
    forest.children_index  # warm the CSR layout; the DP is what's timed
    t, m = benchmark(tm_values_vectorized, forest, 2)
    assert len(t) == n and len(m) == n


def test_vectorized_speedup_at_1e5():
    records = bench_tm_kernels(sizes=(100_000,), k_values=(2,), reps=3)
    fast = [r for r in records if r.op == "tm_values_vectorized"]
    assert fast and fast[0].speedup_vs_reference >= 5.0, (
        f"vectorized TM below the 5x gate: {fast}"
    )


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def test_sweep_parallel_speedup_gate():
    """``run_sweep[workers=4]`` ≥ 3× serial (1.5× on CI's shared runners).

    The parallel speedup is bounded above by the usable core count, so the
    gate only means something with ≥ 4 cores; below that the JSON
    trajectory still records the honest number but nothing is asserted.
    """
    cores = _usable_cores()
    if cores < 4:
        pytest.skip(f"parallel sweep speedup gate needs >= 4 usable cores, have {cores}")
    threshold = 1.5 if os.environ.get("CI") else 3.0
    records = bench_sweep_engine(workers_values=(1, 4), reps=3)
    parallel = [r for r in records if r.op == "run_sweep[workers=4]"]
    assert parallel, f"workers=4 record missing: {records}"
    assert parallel[0].speedup_vs_reference >= threshold, (
        f"parallel sweep below the {threshold}x gate: {parallel[0]}"
    )


def test_tracer_disabled_overhead_under_5pct():
    records = bench_tracer_overhead(n=100_000, k=4, reps=7)
    disabled = [r for r in records if r.op == "tracer_overhead[disabled]"]
    assert disabled, f"overhead record missing: {records}"
    # speedup_vs_reference = min(raw impl) / min(wrapper, tracer off);
    # 1/1.05 is the 5% contract with min-of-reps noise robustness.
    assert disabled[0].speedup_vs_reference >= 1 / 1.05, (
        f"disabled tracer exceeds the 5% overhead gate: {disabled[0]}"
    )


def test_opt_exact_cold_n20_gate():
    """Bitset ``OPT_∞`` cold solve at n = 20 stays under 1 s.

    Cold means genuinely cold: ``bench_opt_exact`` clears the solve and
    feasibility memo caches before every rep, so the gate times the full
    bitset branch-and-bound, not a dictionary lookup.  One second is ~50×
    the typical median on an unloaded host — the gate exists to catch a
    pruning or bound regression that reopens the exponential blowup, not
    to race the runner."""
    records = bench_opt_exact(sizes=(20,), reps=3)
    cold = [r for r in records if r.op == "opt_infty_exact[bitset cold]"]
    assert cold, f"cold record missing: {records}"
    assert cold[0].median_ms < 1000.0, (
        f"n=20 cold exact solve above the 1s gate: {cold[0]}"
    )


def test_serve_cache_speedup_at_least_10x():
    records = bench_serve_cache(reps=3)
    cached = [r for r in records if r.op == "serve.solve[cached]"]
    assert cached, f"serve cache record missing: {records}"
    assert cached[0].speedup_vs_reference >= 10.0, (
        f"serve cache hit below the 10x gate: {cached[0]}"
    )


def test_store_prewarm_within_2x_of_warm():
    """Prewarmed cold-start p50 ≤ 2× warm-cache p50 (the ROADMAP store gate).

    Both phases are memory-LRU hits at the tens-of-µs scale — prewarming
    moved the disk cost to service construction, which is exactly the
    contract.  The small absolute floor keeps the ratio meaningful at that
    scale instead of amplifying scheduler noise; ``repro bench
    --max-prewarm-ratio`` enforces the same bound from the CLI.
    """
    records = bench_store_prewarm(reps=3)
    by_op = {r.op: r for r in records}
    warm = by_op.get("serve.store[warm-cache]")
    prewarmed = by_op.get("serve.store[prewarmed-cold-start]")
    assert warm and prewarmed, f"store prewarm records missing: {records}"
    assert prewarmed.median_ms <= 2.0 * warm.median_ms + 0.25, (
        f"prewarmed cold-start p50 {prewarmed.median_ms:.3f} ms above 2x "
        f"warm-cache p50 {warm.median_ms:.3f} ms"
    )


def test_bench_sweep_parallel_identical(benchmark):
    from repro.analysis.config import CELL_REGISTRY

    cell = CELL_REGISTRY["bas_loss_random"]
    sweep = Sweep(axes={"n": [200], "k": [1, 2], "shape": ["attachment"]}, repeats=2)
    serial = run_sweep(sweep, cell, seed=7, workers=1)
    parallel = benchmark.pedantic(
        run_sweep, args=(sweep, cell), kwargs=dict(seed=7, workers=2),
        rounds=1, iterations=1,
    )
    assert serial == parallel


def test_bench_perf_json(tmp_path):
    out = tmp_path / "BENCH_perf.json"
    payload = run_bench(quick=True, out=str(out))
    on_disk = json.loads(out.read_text())
    assert on_disk["schema"] == "repro-bench-perf/2"
    assert on_disk["runs"][-1] == payload
    assert payload["schema"] == "repro-bench-perf/1"
    ops = {r["op"] for r in payload["records"]}
    assert "tm_values_vectorized" in ops and any(o.startswith("run_sweep") for o in ops)
    for rec in payload["records"]:
        assert rec["median_ms"] >= 0 and rec["p90_ms"] >= rec["median_ms"] * 0.999
