"""Performance benchmark harness: ``repro bench`` → ``BENCH_perf.json``.

Times the repo's hot kernels at several sizes and records a machine-readable
trajectory so future performance work has a baseline to beat:

* the TM dynamic program — reference loop vs the vectorized CSR kernel
  (:func:`repro.core.bas.tm.tm_values_vectorized`);
* the sweep engine — serial vs parallel execution of one grid
  (:func:`repro.analysis.sweep.run_sweep` over the persistent process
  executor), with an untimed warmup per worker count;
* the exact ``OPT_∞`` bitset branch-and-bound
  (:func:`repro.scheduling.bitset_bb.bitset_solve`) cold vs memoized at
  n ∈ {16, 20, 24, 28};
* forest traversals — first (computing) vs cached ``postorder()``;
* the observability layer — TM with the tracer disabled vs the raw kernel
  (the < 5% overhead contract) and under a live tracer for reference.

Each record carries the op name, problem size, repeat count, median and p90
wall-time in milliseconds, and — for fast paths — the speedup against the
reference implementation measured in the same process.  The JSON is written
by :func:`run_bench` (CLI: ``python -m repro bench [--quick]``) and asserted
on by ``benchmarks/bench_perf.py``.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence

from repro.analysis.sweep import Sweep, run_sweep


@dataclass
class BenchRecord:
    """One timed operation at one size."""

    op: str
    n: int
    k: Optional[int]
    reps: int
    median_ms: float
    p90_ms: float
    speedup_vs_reference: Optional[float] = None


def _times_ms(fn: Callable[[], object], reps: int) -> List[float]:
    out: List[float] = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append((time.perf_counter() - t0) * 1e3)
    return out


def _median(xs: Sequence[float]) -> float:
    return float(statistics.median(xs))


def _p90(xs: Sequence[float]) -> float:
    ordered = sorted(xs)
    idx = max(0, math.ceil(0.9 * len(ordered)) - 1)
    return float(ordered[idx])


def _record(op: str, n: int, k: Optional[int], times: Sequence[float],
            speedup: Optional[float] = None) -> BenchRecord:
    return BenchRecord(
        op=op, n=n, k=k, reps=len(times),
        median_ms=round(_median(times), 4), p90_ms=round(_p90(times), 4),
        speedup_vs_reference=None if speedup is None else round(speedup, 2),
    )


# ---------------------------------------------------------------------------
# individual benchmarks
# ---------------------------------------------------------------------------


def bench_tm_kernels(
    sizes: Sequence[int] = (10_000, 100_000),
    k_values: Sequence[int] = (2, 4),
    reps: int = 5,
    seed: int = 2018,
) -> List[BenchRecord]:
    """Reference TM loop vs the vectorized kernel on random forests."""
    from repro.core.bas.tm import tm_values, tm_values_vectorized
    from repro.instances.random_trees import random_forest

    records: List[BenchRecord] = []
    for n in sizes:
        forest = random_forest(n, seed=seed)
        # Warm the traversal/CSR caches so both engines time the DP alone.
        forest.postorder()
        forest.children_index
        for k in k_values:
            ref = _times_ms(lambda: tm_values(forest, k), reps)
            vec = _times_ms(lambda: tm_values_vectorized(forest, k), reps)
            records.append(_record("tm_values[loop]", n, k, ref))
            records.append(
                _record("tm_values_vectorized", n, k, vec,
                        speedup=_median(ref) / _median(vec))
            )
    return records


def bench_sweep_engine(
    workers_values: Sequence[int] = (1, 4),
    n: int = 400,
    repeats: int = 4,
    reps: int = 3,
    seed: int = 0,
) -> List[BenchRecord]:
    """Serial vs parallel execution of one sweep grid.

    Uses the registered ``bas_loss_random`` cell (module-level, hence
    picklable) over a k × shape grid; the recorded ``n`` is the number of
    cell executions (cells × repeats).  Each parallel worker count gets one
    untimed warmup sweep first, which starts the cached process executor
    for that count (:func:`repro.analysis.sweep.map_in_workers`), so the
    one-time fork cost is excluded — reusing those workers across sweeps
    is what the executor buys, so timing the fork would misstate
    steady-state throughput.  The parallel speedup is bounded by the
    host's CPU count — on a single-core machine the record shows pure
    dispatch overhead (< 1x); the equivalence tests, not this number, gate
    the engine's correctness.
    """
    from repro.analysis.config import CELL_REGISTRY

    cell = CELL_REGISTRY["bas_loss_random"]
    sweep = Sweep(
        axes={"n": [n], "k": [1, 2, 4], "shape": ["attachment", "preferential"]},
        repeats=repeats,
    )
    cell_runs = len(sweep.cells()) * sweep.repeats
    warmup = Sweep(axes={"n": [20], "k": [1, 2]}, repeats=1)
    records: List[BenchRecord] = []
    serial_median: Optional[float] = None
    for workers in workers_values:
        if workers > 1:
            run_sweep(warmup, cell, seed=seed, workers=workers)
        times = _times_ms(
            lambda: run_sweep(sweep, cell, seed=seed, workers=workers), reps
        )
        speedup = None
        if workers == 1:
            serial_median = _median(times)
        elif serial_median is not None:
            speedup = serial_median / _median(times)
        records.append(_record(f"run_sweep[workers={workers}]", cell_runs, None, times, speedup))
    return records


def bench_opt_exact(
    sizes: Sequence[int] = (16, 20, 24, 28), reps: int = 3, seed: int = 2018
) -> List[BenchRecord]:
    """The bitset ``OPT_∞`` branch-and-bound: cold vs memoized solves.

    One seeded integral overloaded instance per size (the
    ``large_jobsets`` regime: mixed tight/loose laxity, packed releases).
    Cold timings drop the solver's memo and the EDF feasibility cache
    first (:func:`repro.scheduling.exact.clear_exact_caches`), so they
    measure the search itself; warm timings replay the same instance
    through the ``_solve_by_key`` memo.  The n = 20 cold median is the
    number the CI gate in ``benchmarks/bench_perf.py`` asserts stays
    under a second on shared runners.
    """
    from repro.instances.random_jobs import random_integral_jobs
    from repro.scheduling.exact import clear_exact_caches, opt_infty_exact

    records: List[BenchRecord] = []
    for n in sizes:
        jobs = random_integral_jobs(n, seed=seed + n)

        def cold() -> None:
            clear_exact_caches()
            opt_infty_exact(jobs)

        cold_times = _times_ms(cold, reps)
        clear_exact_caches()
        opt_infty_exact(jobs)  # populate the memo once
        warm_times = _times_ms(lambda: opt_infty_exact(jobs), reps)
        records.append(_record("opt_infty_exact[bitset cold]", n, None, cold_times))
        records.append(
            _record("opt_infty_exact[bitset warm]", n, None, warm_times,
                    speedup=_median(cold_times) / _median(warm_times))
        )
    return records


def bench_forest_traversals(n: int = 100_000, reps: int = 5, seed: int = 1) -> List[BenchRecord]:
    """First (computing) vs cached ``Forest.postorder()``."""
    from repro.instances.random_trees import random_forest

    forests = [random_forest(n, seed=seed) for _ in range(reps)]
    cold_times = [
        _times_ms(forest.postorder, 1)[0] for forest in forests
    ]
    cached = forests[0]
    warm_times = _times_ms(cached.postorder, reps)
    return [
        _record("forest.postorder[first]", n, None, cold_times),
        _record("forest.postorder[cached]", n, None, warm_times,
                speedup=_median(cold_times) / _median(warm_times)),
    ]


def bench_tracer_overhead(
    n: int = 100_000, k: int = 4, reps: int = 7, seed: int = 2018
) -> List[BenchRecord]:
    """Observability cost on the TM hot path.

    Three timings of the same DP on the same warmed forest:

    * the raw kernel (``_tm_values_vectorized_impl``) — the honest baseline,
      no tracer check at all;
    * the public wrapper with **no tracer active** — the disabled fast path
      (one context-variable read plus a ``None`` check), whose
      ``speedup_vs_reference`` against the raw kernel is the number the CI
      gate asserts stays above ``1/1.05`` (< 5% overhead);
    * the public wrapper **under an active tracer** with a memory sink —
      informational, showing what full instrumentation costs.

    Min-of-reps on both sides of each ratio, since scheduler noise only ever
    inflates a measurement.
    """
    from repro.core.bas.tm import _tm_values_vectorized_impl, tm_values_vectorized
    from repro.instances.random_trees import random_forest
    from repro.obs.sinks import MemorySink
    from repro.obs.tracer import Tracer, current_tracer

    if current_tracer() is not None:  # pragma: no cover - defensive
        raise RuntimeError("tracer-overhead benchmark must start with no tracer active")
    forest = random_forest(n, seed=seed)
    forest.postorder()
    forest.children_index
    # Interleave the disabled-path and baseline reps so slow drift (thermal,
    # competing load) hits both sides equally instead of biasing the ratio.
    impl_times: List[float] = []
    off_times: List[float] = []
    for _ in range(reps):
        impl_times.extend(_times_ms(lambda: _tm_values_vectorized_impl(forest, k), 1))
        off_times.extend(_times_ms(lambda: tm_values_vectorized(forest, k), 1))
    tracer = Tracer(sinks=[MemorySink()])
    with tracer.activate():
        on_times = _times_ms(lambda: tm_values_vectorized(forest, k), reps)
    return [
        _record("tm_values_vectorized[impl]", n, k, impl_times),
        _record("tracer_overhead[disabled]", n, k, off_times,
                speedup=min(impl_times) / min(off_times)),
        _record("tracer_overhead[enabled]", n, k, on_times,
                speedup=min(impl_times) / min(on_times)),
    ]


def bench_serve_cache(
    corpus: int = 12, n: int = 12, requests: int = 120, reps: int = 3, seed: int = 7
) -> List[BenchRecord]:
    """Solver-service latency: cold solves vs canonical-key cache hits.

    One service per rep; the cold phase clears the cache and solves every
    corpus instance, the cached phase replays the same requests (all hits).
    The recorded ``n`` is the number of requests per phase; the hit-side
    ``speedup_vs_reference`` is the cached-vs-cold median ratio the
    acceptance gate in ``benchmarks/bench_perf.py`` asserts stays >= 10.
    """
    from repro.api import SolveRequest
    from repro.instances.random_jobs import random_jobs
    from repro.serve import SolverService

    instances = [
        SolveRequest(jobs=random_jobs(n, seed=seed + i), k=1 + i % 2)
        for i in range(corpus)
    ]
    cold_times: List[float] = []
    hit_times: List[float] = []
    for _ in range(reps):
        with SolverService(workers=1, cache_size=4 * corpus) as svc:
            svc.clear_cache()
            for req in instances:
                cold_times.extend(_times_ms(lambda: svc.solve(req), 1))
            for _ in range(max(1, requests // corpus)):
                for req in instances:
                    hit_times.extend(_times_ms(lambda: svc.solve(req), 1))
    return [
        _record("serve.solve[cold]", corpus, None, cold_times),
        _record("serve.solve[cached]", corpus, None, hit_times,
                speedup=_median(cold_times) / _median(hit_times)),
    ]


def bench_store_prewarm(
    corpus: int = 10, n: int = 12, requests: int = 60, reps: int = 3, seed: int = 7
) -> List[BenchRecord]:
    """Restart latency with a durable store: warm cache vs prewarmed cold start.

    One long-lived service populates a :class:`repro.store.ResultStore`
    and serves the warm-cache phase (pure memory-LRU hits).  Each rep of
    the prewarmed phase then builds a *fresh* service on the same store —
    the restart — whose LRU was prewarmed from disk, and replays the same
    requests.  The prewarmed record's ``speedup_vs_reference`` is
    warm-median / prewarmed-median; the ROADMAP acceptance gate (enforced
    by ``repro bench --max-prewarm-ratio`` and
    ``benchmarks/bench_perf.py``) is its inverse: prewarmed cold-start p50
    must stay within 2x of warm-cache p50, i.e. prewarming must make a
    restart indistinguishable from a warm process up to small-constant
    overhead.
    """
    import os
    import tempfile

    from repro.api import SolveRequest
    from repro.instances.random_jobs import random_jobs
    from repro.serve import SolverService

    instances = [
        SolveRequest(jobs=random_jobs(n, seed=seed + i), k=1 + i % 2)
        for i in range(corpus)
    ]
    rounds = max(1, requests // corpus)
    warm_times: List[float] = []
    prewarmed_times: List[float] = []
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        store_path = os.path.join(root, "store")
        with SolverService(workers=1, cache_size=4 * corpus, store_path=store_path) as svc:
            for req in instances:  # populate the store and the LRU
                svc.solve(req)
            for _ in range(reps):
                for _ in range(rounds):
                    for req in instances:
                        warm_times.extend(_times_ms(lambda: svc.solve(req), 1))
        for _ in range(reps):
            with SolverService(
                workers=1, cache_size=4 * corpus, store_path=store_path
            ) as restarted:
                for _ in range(rounds):
                    for req in instances:
                        prewarmed_times.extend(
                            _times_ms(lambda: restarted.solve(req), 1)
                        )
    return [
        _record("serve.store[warm-cache]", corpus, None, warm_times),
        _record("serve.store[prewarmed-cold-start]", corpus, None, prewarmed_times,
                speedup=_median(warm_times) / _median(prewarmed_times)),
    ]


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

#: Per-run payload schema (what one ``run_bench`` call measures).
RUN_SCHEMA = "repro-bench-perf/1"
#: On-disk trajectory schema: ``{"schema": ..., "runs": [run, run, ...]}``.
TRAJECTORY_SCHEMA = "repro-bench-perf/2"


def _load_runs(path: str) -> List[dict]:
    """Prior runs from a trajectory file, tolerating every legacy shape.

    * missing, empty or unparseable file → no prior runs;
    * a schema-1 payload (one bare run, the pre-trajectory format) →
      migrated in place as the first run;
    * a trajectory dict whose ``runs`` key is missing or malformed → treated
      as empty rather than discarding the append (the bug this fixes:
      such files used to leave the trajectory permanently empty);
    * a well-formed trajectory → its runs.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return []
    if not isinstance(data, dict):
        return []
    runs = data.get("runs")
    if isinstance(runs, list):
        return [r for r in runs if isinstance(r, dict)]
    if "records" in data:  # legacy schema-1 single-run payload
        return [data]
    return []


def _schema_version(schema) -> Optional[int]:
    """The ``N`` of a ``repro-bench-perf/N`` schema string, else ``None``."""
    if not isinstance(schema, str) or not schema.startswith("repro-bench-perf/"):
        return None
    try:
        return int(schema.rsplit("/", 1)[1])
    except ValueError:
        return None


def append_run(path: str, payload: dict) -> dict:
    """Append one run to the trajectory at ``path`` and rewrite it.

    Returns the full trajectory dict that was written.  The write is a
    rewrite, not an in-place patch, so a corrupt file heals on the next
    bench run instead of poisoning every subsequent append.

    Two silent-downgrade hazards are refused rather than absorbed:

    * ``payload`` must itself declare the current :data:`RUN_SCHEMA` — a
      caller handing in a differently-shaped run would otherwise be
      laundered into the trajectory unversioned;
    * an on-disk trajectory written by a *newer* schema than this code
      knows is never rewritten (healing it here would throw away whatever
      the newer schema recorded).  Legacy (older or absent) schemas are
      still healed in place, as before.
    """
    if payload.get("schema") != RUN_SCHEMA:
        raise ValueError(
            f"run payload declares schema {payload.get('schema')!r}; "
            f"append_run only accepts {RUN_SCHEMA!r}"
        )
    try:
        with open(path) as fh:
            existing = json.load(fh)
    except (OSError, ValueError):
        existing = None
    if isinstance(existing, dict):
        on_disk = _schema_version(existing.get("schema"))
        known = _schema_version(TRAJECTORY_SCHEMA)
        if on_disk is not None and known is not None and on_disk > known:
            raise ValueError(
                f"{path} carries schema {existing['schema']!r}, newer than "
                f"{TRAJECTORY_SCHEMA!r}; refusing to silently downgrade it "
                "(upgrade the library or move the file aside)"
            )
    runs = _load_runs(path)
    runs.append(payload)
    trajectory = {"schema": TRAJECTORY_SCHEMA, "runs": runs}
    with open(path, "w") as fh:
        json.dump(trajectory, fh, indent=2)
        fh.write("\n")
    return trajectory


def run_bench(*, quick: bool = False, out: Optional[str] = "BENCH_perf.json") -> dict:
    """Run the suite, append to the ``out`` trajectory, return this run's payload.

    ``quick=True`` shrinks sizes/repeats for CI smoke runs (seconds, not
    minutes); the full run includes the n = 10^5 TM point the acceptance
    trajectory tracks.  ``out`` accumulates one entry in its ``runs`` list
    per invocation (see :func:`append_run` for how legacy and damaged
    files are absorbed).
    """
    if quick:
        records = (
            bench_tm_kernels(sizes=(2_000,), k_values=(2,), reps=2)
            + bench_sweep_engine(workers_values=(1, 4), n=120, repeats=2, reps=2)
            + bench_opt_exact(sizes=(16, 20), reps=2)
            + bench_forest_traversals(n=20_000, reps=2)
            + bench_tracer_overhead(n=20_000, reps=5)
            + bench_serve_cache(corpus=6, requests=30, reps=2)
            + bench_store_prewarm(corpus=6, requests=24, reps=2)
        )
    else:
        records = (
            bench_tm_kernels()
            + bench_sweep_engine()
            + bench_opt_exact()
            + bench_forest_traversals()
            + bench_tracer_overhead()
            + bench_serve_cache()
            + bench_store_prewarm()
        )
    payload = {
        "schema": RUN_SCHEMA,
        "quick": quick,
        "records": [asdict(r) for r in records],
    }
    if out:
        append_run(out, payload)
    return payload


def render_bench(payload: dict) -> str:
    """Human-readable rendering of a :func:`run_bench` payload."""
    from repro.analysis.tables import Table

    table = Table(
        title="performance benchmarks" + (" (quick)" if payload.get("quick") else ""),
        columns=["op", "n", "k", "reps", "median ms", "p90 ms", "speedup vs ref"],
    )
    for rec in payload["records"]:
        table.add_row(
            rec["op"], rec["n"], rec["k"] if rec["k"] is not None else "-",
            rec["reps"], rec["median_ms"], rec["p90_ms"],
            rec["speedup_vs_reference"] if rec["speedup_vs_reference"] is not None else float("nan"),
        )
    table.add_note("speedup is median(reference)/median(fast path), same process")
    return table.render()
