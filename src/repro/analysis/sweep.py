"""Parameter-sweep harness.

A :class:`Sweep` is a grid over named parameters plus a cell function; the
runner derives an independent RNG stream per cell (so adding cells never
perturbs existing ones), executes every cell, and aggregates repeated
seeds.  All experiment tables that report means over random instances are
produced through this harness.

Execution is serial by default and parallel on request: ``workers=N``
maps whole cells (one parameter assignment with all its repeats) over a
persistent :class:`~concurrent.futures.ProcessPoolExecutor` — one per
worker count, started on first use and reused by every later sweep (and by
:func:`repro.analysis.experiments.run_experiments`) for the life of the
process.  A task is a small tuple: the cell function, its parameters, the
seed and the index of its first RNG stream, and the faults armed in the
parent.  The worker re-derives the cell's streams with
:func:`repro.utils.rng.spawn_rng_block`, and the parent aggregates in cell
order, so parallel results are bit-identical to serial ones.
"""

from __future__ import annotations

import itertools
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.obs import tracer as tracer_mod
from repro.obs.tracer import Tracer, current_tracer
from repro.utils import faults
from repro.utils.rng import spawn_rng_block, spawn_rngs


@dataclass(frozen=True)
class SweepResult:
    """One cell's outcome: the parameter assignment and measured values.

    ``trace`` is ``None`` unless the sweep ran under an active tracer, in
    which case it carries the cell's observability block: the cell's wall
    time and the counters its repeats accumulated (worker-side counters for
    process execution — merged into the parent trace as well).  Keeping it
    out of ``metrics`` preserves the bit-identical serial/parallel
    equality contract for untraced runs.
    """

    params: Dict[str, Any]
    metrics: Dict[str, float]
    trace: Optional[Dict[str, Any]] = None


@dataclass
class Sweep:
    """A named grid: ``axes`` maps parameter name → list of values."""

    axes: Dict[str, Sequence[Any]]
    repeats: int = 1

    def cells(self) -> List[Dict[str, Any]]:
        names = list(self.axes)
        combos = itertools.product(*(self.axes[n] for n in names))
        return [dict(zip(names, combo)) for combo in combos]


# ---------------------------------------------------------------------------
# the persistent process executors
# ---------------------------------------------------------------------------

_EXECUTORS: Dict[int, ProcessPoolExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()

#: True in executor worker processes: a cell that itself calls
#: ``run_sweep`` then runs its sweep serially instead of forking again.
_IN_WORKER = False


def _init_worker() -> None:
    """Executor initializer: mark the process and drop inherited state.

    A forked worker inherits the parent's active tracer and armed faults;
    cell traces must start fresh, and faults arrive with each task.
    """
    global _IN_WORKER
    _IN_WORKER = True
    tracer_mod._CURRENT.set(None)
    faults._active.clear()


def map_in_workers(fn: Callable, items: Iterable, workers: int, chunksize: int = 1) -> List:
    """``list(map(fn, items))`` on the persistent ``workers``-process executor.

    Results come back in input order.  If a worker process dies, the
    executor is dropped (the next call starts a fresh one) and
    :class:`~concurrent.futures.process.BrokenProcessPool` propagates.
    """
    with _EXECUTORS_LOCK:
        executor = _EXECUTORS.get(workers)
        if executor is None:
            executor = ProcessPoolExecutor(max_workers=workers, initializer=_init_worker)
            _EXECUTORS[workers] = executor
    try:
        return list(executor.map(fn, items, chunksize=chunksize))
    except BrokenProcessPool:
        with _EXECUTORS_LOCK:
            if _EXECUTORS.get(workers) is executor:
                del _EXECUTORS[workers]
        raise


# ---------------------------------------------------------------------------
# cell execution
# ---------------------------------------------------------------------------


def _execute_cell(
    cell_fn,
    params: Dict[str, Any],
    rngs: Sequence[Any],
    trace: bool,
) -> Tuple[List[Mapping[str, float]], Optional[Dict[str, Any]]]:
    """Execute one cell's repeats; the single cell protocol, serial or not.

    The cell is called once per repeat as ``cell_fn(rng=..., **params)``.

    When tracing, the cell runs under a fresh local tracer whose export
    rides back to the parent — that is how spans serialize across worker
    processes and merge into the parent trace.
    """

    def _call() -> List[Mapping[str, float]]:
        return [cell_fn(rng=rng, **params) for rng in rngs]

    if not trace:
        return _call(), None
    tracer = Tracer()
    with tracer.activate():
        with tracer.span("sweep.cell", **{"repeats": len(rngs), **params}):
            runs = _call()
    return runs, tracer.export()


def _execute_task(task) -> Tuple[List[Mapping[str, float]], Optional[Dict[str, Any]]]:
    """Worker side of one cell: rebuild its RNG streams, re-arm the faults."""
    cell_fn, params, seed, first_stream, repeats, trace, armed = task
    rngs = spawn_rng_block(seed, first_stream, repeats)
    # The worker may predate the parent arming a fault: arm exactly the
    # snapshot taken at submission, so serial and parallel runs agree.
    faults._active.clear()
    faults._active.update(armed)
    try:
        return _execute_cell(cell_fn, params, rngs, trace)
    finally:
        faults._active.clear()


def _aggregate(
    params: Dict[str, Any],
    runs: List[Mapping[str, float]],
    trace: Optional[Dict[str, Any]] = None,
) -> SweepResult:
    keys = sorted({k for run in runs for k in run})
    metrics: Dict[str, float] = {}
    for key in keys:
        vals = [float(run[key]) for run in runs if key in run]
        metrics[key] = float(np.mean(vals))
        metrics[f"{key}_max"] = float(np.max(vals))
    return SweepResult(params=dict(params), metrics=metrics, trace=trace)


def _cell_trace_block(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Condense a worker tracer export into the per-row ``trace`` block."""
    spans = payload.get("spans", ())
    wall_ms = None
    for s in spans:
        if s.get("name") == "sweep.cell":
            wall_ms = s.get("ms")
            break
    return {"cell_wall_ms": wall_ms, "counters": dict(payload.get("counters", {}))}


def run_sweep(
    sweep: Sweep,
    cell_fn: Callable[..., Mapping[str, float]],
    *,
    seed: int = 0,
    workers: int = 1,
) -> List[SweepResult]:
    """Execute every cell ``repeats`` times and average the metrics.

    ``cell_fn(rng=..., **params)`` must return a mapping of metric name to
    float.  Metrics are averaged across repeats; a ``*_max`` variant of
    every metric records the worst repeat, since price statements are
    worst-case claims.

    With ``workers > 1`` the cells run on the persistent ``workers``-process
    executor (:func:`map_in_workers`), about four cells per task message
    per worker; ``cell_fn`` must then be picklable (a module-level function
    — every registered config cell qualifies).  Either way every cell gets
    the same spawned RNG streams from ``seed`` and aggregation happens in
    cell order, so the results are bit-identical regardless of worker
    count.  A sweep issued from inside a worker (a cell that itself sweeps)
    runs serially.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    tracer = current_tracer()
    trace = tracer is not None
    cells = sweep.cells()
    repeats = sweep.repeats
    with (
        tracer.span(
            "sweep.run", cells=len(cells), repeats=repeats, workers=workers, seed=seed
        )
        if trace
        else nullcontext()
    ):
        if workers > 1 and len(cells) > 1 and not _IN_WORKER:
            armed = faults.active_faults()
            tasks = [
                (cell_fn, params, seed, i * repeats, repeats, trace, armed)
                for i, params in enumerate(cells)
            ]
            outcomes = map_in_workers(
                _execute_task, tasks, workers,
                chunksize=max(1, len(cells) // (4 * workers)),
            )
        else:
            rngs = spawn_rngs(seed, len(cells) * repeats)
            outcomes = [
                _execute_cell(cell_fn, params, rngs[i * repeats : (i + 1) * repeats], trace)
                for i, params in enumerate(cells)
            ]
        results: List[SweepResult] = []
        for params, (runs, payload) in zip(cells, outcomes):
            block = None
            if payload is not None:
                # Worker-side spans and counters graft into the parent trace
                # in deterministic cell order, regardless of worker count.
                tracer.merge(payload)
                tracer.count("sweep.cells_run")
                block = _cell_trace_block(payload)
            results.append(_aggregate(params, runs, block))
    return results
