"""Equivalence tests gating the performance layer.

Every fast path introduced by the performance work is checked against its
reference implementation here:

* ``tm_values_vectorized`` against the ``tm_values`` loop — exactly for
  integer/``Fraction`` forests (including the Appendix-A layered family),
  up to summation-order ulps for float forests;
* ``run_sweep(workers=N)`` against serial execution — bit-identical, the
  per-cell RNG-stream contract — plus the persistent executor's edges:
  faults armed after its workers started, nested sweeps, failing and
  dying cells, and worker reuse across sweeps;
* ``edf_feasible_cached`` against ``edf_feasible``, and the cached
  branch-and-bound against its known optimum;
* the CSR/level numpy layout against the per-node ``children()``/``depths``
  views it mirrors.
"""

import math
import os
import time
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.config import CELL_REGISTRY
from repro.analysis.sweep import Sweep, run_sweep
from repro.core.bas.forest import Forest
from repro.core.bas.tm import (
    _VECTORIZE_MIN_NODES,
    tm_optimal_bas,
    tm_optimal_value,
    tm_values,
    tm_values_vectorized,
)
from repro.core.bas.verify import verify_bas
from repro.instances.lower_bounds import appendix_a_forest
from repro.instances.random_trees import random_forest
from repro.obs import MemorySink, Tracer
from repro.utils import faults
from repro.utils.rng import spawn_rngs


from tests.strategies import int_forests


class TestVectorizedTm:
    @given(int_forests(), st.integers(min_value=1, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_random_integer_forests(self, f, k):
        assert tm_values_vectorized(f, k) == tm_values(f, k)

    @pytest.mark.parametrize("K,L", [(2, 1), (2, 4), (4, 3), (6, 2)])
    @pytest.mark.parametrize("scale", [True, False])
    def test_matches_reference_on_appendix_a(self, K, L, scale):
        f = appendix_a_forest(K, L, scale=scale)
        for k in (1, 2, K):
            assert tm_values_vectorized(f, k) == tm_values(f, k)

    def test_fraction_values_stay_exact(self):
        f = Forest([-1, 0, 0, 1, 1, 2], [Fraction(1, 3)] * 6)
        t, m = tm_values_vectorized(f, 1)
        assert all(isinstance(x, (Fraction, int)) for x in t + m)
        assert (t, m) == tm_values(f, 1)

    @pytest.mark.parametrize("shape", ["attachment", "preferential", "mixed"])
    def test_float_forests_agree_to_ulps(self, shape):
        for seed in range(3):
            f = random_forest(300, trees=2, shape=shape, seed=seed)
            for k in (1, 2, 4):
                t1, m1 = tm_values(f, k)
                t2, m2 = tm_values_vectorized(f, k)
                np.testing.assert_allclose(t1, t2, rtol=1e-12)
                np.testing.assert_allclose(m1, m2, rtol=1e-12)

    @pytest.mark.parametrize(
        "f",
        [
            Forest.star(200),
            Forest.path(200),
            Forest.complete(3, 4),
            Forest([-1], [5]),
            Forest([-1, -1, -1], [1, 2, 3]),  # forest of isolated roots
        ],
    )
    def test_edge_shapes(self, f):
        for k in (1, 2, 7):
            assert tm_values_vectorized(f, k) == tm_values(f, k)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            tm_values_vectorized(Forest([-1], [1]), 0)

    def test_auto_dispatch_large_forest_is_still_optimal(self):
        # Above the crossover tm_optimal_bas runs on the vectorized t/m;
        # the produced BAS must still verify and carry the value the DP
        # promises.
        n = _VECTORIZE_MIN_NODES + 500
        f = random_forest(n, value_model="unit", seed=11)
        bas = tm_optimal_bas(f, 2)
        verify_bas(bas, 2).assert_ok()
        assert bas.value == tm_optimal_value(f, 2)
        t, m = tm_values(f, 2)  # reference loop
        assert bas.value == sum(max(t[r], m[r]) for r in f.roots)


# ---------------------------------------------------------------------------
# parallel sweep engine
# ---------------------------------------------------------------------------


def _metric_cell(rng, n: int, k: int = 1) -> dict:
    """Module-level cell (picklable) exercising the rng stream directly."""
    draws = rng.random(int(n))
    return {"mean": float(draws.mean()), "k_scaled": float(k * draws.sum())}


def _pid_cell(rng, n: int, nap: float = 0.0) -> dict:
    """Reports the process that ran it; ``nap`` keeps every worker busy."""
    time.sleep(nap)
    return {"pid": float(os.getpid())}


def _nested_cell(rng, n: int) -> dict:
    """A cell that itself sweeps with ``workers=2``."""
    inner = run_sweep(Sweep(axes={"n": [1, 2]}), _pid_cell, seed=1, workers=2)
    pid = float(os.getpid())
    return {"pid": pid, "inner_in_process": float(all(r.metrics["pid"] == pid for r in inner))}


def _failing_cell(rng, n: int) -> dict:
    if int(n) == 13:
        raise ValueError("unlucky cell blew up")
    return {"ok": float(n)}


def _exit_cell(rng, n: int) -> dict:
    os._exit(3)


class TestParallelSweep:
    def test_workers_bit_identical_to_serial(self):
        sweep = Sweep(axes={"n": [50, 200], "k": [1, 2, 3]}, repeats=3)
        serial = run_sweep(sweep, _metric_cell, seed=123, workers=1)
        for workers in (2, 4):
            parallel = run_sweep(sweep, _metric_cell, seed=123, workers=workers)
            assert parallel == serial  # bit-identical floats, same order

    def test_workers_bit_identical_on_forest_cell(self):
        cell = CELL_REGISTRY["bas_loss_random"]
        sweep = Sweep(axes={"n": [60, 120], "k": [1, 2], "shape": ["attachment"]}, repeats=2)
        serial = run_sweep(sweep, cell, seed=5, workers=1)
        parallel = run_sweep(sweep, cell, seed=5, workers=3)
        assert parallel == serial

    def test_untraced_rows_equal_serial_without_trace(self):
        sweep = Sweep(axes={"n": [40, 90], "k": [1, 2]}, repeats=2)
        serial = run_sweep(sweep, _metric_cell, seed=11, workers=1)
        parallel = run_sweep(sweep, _metric_cell, seed=11, workers=2)
        assert parallel == serial
        assert all(r.trace is None for r in parallel)  # no tracer, no trace block

    def test_traced_rows_equal_serial(self):
        sweep = Sweep(axes={"n": [30, 60], "k": [1, 2]}, repeats=2)
        serial = run_sweep(sweep, _metric_cell, seed=7, workers=1)
        tracer = Tracer(sinks=[MemorySink()])
        with tracer.activate():
            parallel = run_sweep(sweep, _metric_cell, seed=7, workers=2)
        assert [r.params for r in parallel] == [r.params for r in serial]
        assert [r.metrics for r in parallel] == [r.metrics for r in serial]
        assert all(r.trace is not None for r in parallel)
        assert tracer.counters["sweep.cells_run"] == 4

    def test_fault_armed_after_workers_started_reaches_them(self):
        # Workers forked before the fault was armed must still run under it,
        # or serial-vs-parallel equality breaks under injection.
        cell = CELL_REGISTRY["bas_loss_random"]
        sweep = Sweep(axes={"n": [40, 70], "k": [2]}, repeats=2)
        clean = run_sweep(sweep, cell, seed=5, workers=2)  # starts the workers
        with faults.inject("tm.loop.topk-order"):
            serial = run_sweep(sweep, cell, seed=5, workers=1)
            parallel = run_sweep(sweep, cell, seed=5, workers=2)
        assert serial != clean  # the fault changes the rows
        assert parallel == serial
        assert run_sweep(sweep, cell, seed=5, workers=2) == clean  # and is disarmed

    def test_nested_sweep_runs_serially_in_worker(self):
        sweep = Sweep(axes={"n": [20, 40]}, repeats=1)
        rows = run_sweep(sweep, _nested_cell, seed=2, workers=2)
        assert all(r.metrics["pid"] != os.getpid() for r in rows)
        assert all(r.metrics["inner_in_process"] == 1.0 for r in rows)

    def test_cell_exception_carries_worker_traceback(self):
        sweep = Sweep(axes={"n": [1, 13]}, repeats=1)
        with pytest.raises(ValueError, match="unlucky cell blew up") as exc:
            run_sweep(sweep, _failing_cell, seed=0, workers=2)
        # The executor chains the formatted worker-side traceback.
        assert "_failing_cell" in str(exc.value.__cause__)
        ok = run_sweep(Sweep(axes={"n": [1, 2]}), _failing_cell, seed=0, workers=2)
        assert [r.metrics["ok"] for r in ok] == [1.0, 2.0]

    def test_worker_death_raises_and_next_sweep_succeeds(self):
        sweep = Sweep(axes={"n": [1, 2]}, repeats=1)
        with pytest.raises(BrokenProcessPool):
            run_sweep(sweep, _exit_cell, seed=0, workers=2)
        serial = run_sweep(sweep, _metric_cell, seed=4, workers=1)
        assert run_sweep(sweep, _metric_cell, seed=4, workers=2) == serial

    def test_back_to_back_sweeps_share_worker_pids(self):
        # A per-call executor would fork fresh workers for every sweep.
        sweep = Sweep(axes={"n": [1, 2, 3, 4], "nap": [0.05]})
        run_sweep(sweep, _pid_cell, seed=0, workers=2)  # start the workers
        first = {r.metrics["pid"] for r in run_sweep(sweep, _pid_cell, seed=0, workers=2)}
        second = {r.metrics["pid"] for r in run_sweep(sweep, _pid_cell, seed=0, workers=2)}
        assert float(os.getpid()) not in first | second
        assert first & second
        assert len(first | second) <= 2

    def test_single_cell_grid_ignores_workers(self):
        sweep = Sweep(axes={"n": [10]}, repeats=2)
        a = run_sweep(sweep, _metric_cell, seed=0, workers=4)
        b = run_sweep(sweep, _metric_cell, seed=0)
        assert a == b

    def test_rng_streams_match_spawn_contract(self):
        # Cell i, repeat r must see stream i*repeats + r of spawn_rngs(seed).
        sweep = Sweep(axes={"n": [3, 4]}, repeats=2)
        results = run_sweep(sweep, _metric_cell, seed=9, workers=2)
        rngs = spawn_rngs(9, 4)
        expected_first = float(rngs[0].random(3).mean())
        expected_second = float(rngs[2].random(4).mean())
        assert math.isclose(
            results[0].metrics["mean"] * 2,
            expected_first + float(rngs[1].random(3).mean()),
            rel_tol=1e-12,
        )
        assert results[1].metrics["mean"] * 2 == pytest.approx(
            expected_second + float(rngs[3].random(4).mean()), rel=1e-12
        )

    def test_invalid_arguments(self):
        sweep = Sweep(axes={"n": [1]})
        with pytest.raises(ValueError):
            run_sweep(sweep, _metric_cell, workers=0)
        with pytest.raises(TypeError):  # one engine: no executor selector
            run_sweep(sweep, _metric_cell, executor="serial")


# ---------------------------------------------------------------------------
# feasibility cache
# ---------------------------------------------------------------------------


class TestFeasibilityCache:
    def test_cached_agrees_with_reference(self):
        from repro.instances.random_jobs import random_jobs
        from repro.scheduling.edf import edf_feasible, edf_feasible_cached

        edf_feasible_cached.cache_clear()
        for seed in range(8):
            jobs = random_jobs(
                10, horizon=9.0, length_range=(1.0, 4.0), laxity_range=(1.0, 2.0),
                seed=seed,
            )
            assert edf_feasible_cached(jobs) == edf_feasible(jobs)
            # Second query must hit the cache, same answer.
            assert edf_feasible_cached(jobs) == edf_feasible(jobs)
        assert edf_feasible_cached.cache_info().hits >= 8

    def test_key_ignores_ids_and_values(self):
        from repro.scheduling.edf import edf_feasible_cached
        from repro.scheduling.job import Job, JobSet

        edf_feasible_cached.cache_clear()
        a = JobSet([Job(0, 0, 4, 2, 1.0), Job(1, 1, 6, 3, 1.0)])
        b = JobSet([Job(7, 1, 6, 3, 9.0), Job(3, 0, 4, 2, 2.5)])
        assert edf_feasible_cached(a) == edf_feasible_cached(b)
        assert edf_feasible_cached.cache_info().misses == 1
        assert edf_feasible_cached.cache_info().hits == 1

    def test_opt_infty_exact_unchanged_by_cache(self):
        from repro.instances.random_jobs import random_jobs
        from repro.scheduling.edf import edf_feasible_cached
        from repro.scheduling.exact import opt_infty_exact

        for seed in (1, 4):
            jobs = random_jobs(
                12, horizon=10.0, length_range=(1.0, 5.0), laxity_range=(1.0, 2.5),
                seed=seed,
            )
            edf_feasible_cached.cache_clear()
            cold = opt_infty_exact(jobs)
            warm = opt_infty_exact(jobs)  # fully cached second run
            assert warm.value == cold.value
            assert sorted(warm.scheduled_ids) == sorted(cold.scheduled_ids)


# ---------------------------------------------------------------------------
# CSR / level layout
# ---------------------------------------------------------------------------


class TestCsrLayout:
    @pytest.mark.parametrize(
        "f",
        [
            Forest.star(30),
            Forest.path(30),
            Forest.complete(3, 3),
            Forest([-1, -1, 0, 0, 1, 2, 2, 5], [1] * 8),
            random_forest(500, trees=3, seed=2),
        ],
    )
    def test_csr_mirrors_children_lists(self, f):
        topo = f.topo_array
        start = f.children_start
        kids = f.children_index
        assert len(kids) == f.n - len(f.roots)
        for i, v in enumerate(topo.tolist()):
            segment = kids[start[i] : start[i + 1]].tolist()
            assert segment == list(f.children(v))

    def test_levels_partition_matches_depths(self):
        f = random_forest(300, trees=2, seed=8)
        depths = f.depths()
        levels = f.levels()
        assert sorted(v for level in levels for v in level) == list(range(f.n))
        for d, level in enumerate(levels):
            assert all(depths[v] == d for v in level)
        ptr = f.level_ptr
        topo = f.topo_array
        for d, level in enumerate(levels):
            assert topo[ptr[d] : ptr[d + 1]].tolist() == list(level)

    def test_traversal_caches_do_not_alias(self):
        f = Forest.complete(2, 3)
        first = f.postorder()
        first.reverse()  # mutate the returned copy
        assert f.postorder() == list(reversed(f.topological_order()))
        d = f.depths()
        d[0] = 99
        assert f.depths()[0] == 0
