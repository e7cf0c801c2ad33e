"""Per-layer spans for the traced run, recorded from outside the program.

:func:`install` wraps the public entry point of each layer with a span
recorder.  The gateway server calls it before ``Gateway.start()``, so the
wrappers carry into the forked shard workers.  Each target is resolved at
run time; a missing one is reported as absent, never raised.

Spans live in memory, one list per thread, and the current span is a
context variable, so nesting holds per thread and per asyncio task.  A
shard writes its spans out when ``SolverService.shutdown`` runs; the
gateway process writes out at stop.  :func:`layer_metrics` reads the
files back and reduces them to ``<span>.count``, ``<span>.p50_ms`` and
``<span>.busy_ms`` (summed inclusive time) plus a few ratios.
"""

from __future__ import annotations

import contextvars
import functools
import glob
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One recorded span: (id, parent id, name, start, end, extra).
Span = Tuple[int, int, str, float, float, Optional[float]]

_CURRENT: "contextvars.ContextVar[int]" = contextvars.ContextVar("bench_span", default=0)


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, out_dir: Optional[str] = None):
        self.out_dir = out_dir
        self._local = threading.local()
        self._lists: List[List[Span]] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def reset(self) -> None:
        """Forget everything (a forked child starts from nothing)."""
        self._local = threading.local()
        self._lists = []
        self._lock = threading.Lock()

    def _spans(self) -> List[Span]:
        spans = getattr(self._local, "spans", None)
        if spans is None:
            spans = self._local.spans = []
            with self._lock:
                self._lists.append(spans)
        return spans

    def open(self) -> Tuple[int, int, "contextvars.Token", float]:
        """Start a span under the current one; it becomes current."""
        span_id = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        return span_id, parent, token, time.perf_counter()

    def close(self, name: str, opened, extra: Optional[float] = None) -> None:
        span_id, parent, token, start = opened
        end = time.perf_counter()
        _CURRENT.reset(token)
        self._spans().append((span_id, parent, name, start, end, extra))

    def record(self, name: str, span_id: int, parent: int, start: float, extra=None) -> None:
        """Record a span that ended elsewhere (a future resolving)."""
        self._spans().append((span_id, parent, name, start, time.perf_counter(), extra))

    def spans(self) -> List[Span]:
        with self._lock:
            return [span for spans in self._lists for span in list(spans)]

    def dump(self) -> None:
        """Write this process's spans to ``out_dir``."""
        if self.out_dir is None:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(self.spans(), fh)
        os.replace(path + ".tmp", path)


# -- wrappers -----------------------------------------------------------------


def _timed(rec: Recorder, name: str, fn: Callable, extra: Optional[Callable] = None) -> Callable:
    """Time each call of ``fn`` as a ``name`` span.

    ``extra(result, args, kwargs)`` gives the span's extra value, or
    ``False`` to leave the call unrecorded.
    """

    def finish(opened, result, args, kwargs) -> None:
        value = extra(result, args, kwargs) if extra else None
        if value is False:
            _CURRENT.reset(opened[2])
        else:
            rec.close(name, opened, value)

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def awrapper(*args, **kwargs):
            opened, result = rec.open(), None
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                finish(opened, result, args, kwargs)

        return awrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        opened, result = rec.open(), None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            finish(opened, result, args, kwargs)

    return wrapper


def _until_resolved(rec: Recorder, name: str, fn: Callable) -> Callable:
    """Time a call returning a future, or a list of them, until all resolve."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id, parent, token, start = rec.open()
        try:
            result = fn(*args, **kwargs)
        finally:
            _CURRENT.reset(token)
        futures = result if isinstance(result, list) else [result]
        remaining = [len(futures)]
        lock = threading.Lock()

        def done(_fut) -> None:
            with lock:
                remaining[0] -= 1
                last = remaining[0] == 0
            if last:
                rec.record(name, span_id, parent, start, float(len(futures)))

        for fut in futures:
            fut.add_done_callback(done)
        return result

    return wrapper


def _rpc_batch_size(result, args, kwargs):
    """Requests carried by one shard call; other ops (ping, stats) are dropped."""
    op = args[1] if len(args) > 1 else kwargs.get("op")
    if op == "solve":
        return 1.0
    if op == "batch":
        return float(len(kwargs.get("requests", ())))
    return False


def _dump_after(rec: Recorder, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            rec.dump()

    return wrapper


#: Lookups record 1.0 for a hit and 0.0 for a miss; LRU puts record evictions.
_hit = functools.partial(_timed, extra=lambda result, args, kwargs: float(result is not None))
_evictions = functools.partial(_timed, extra=lambda result, args, kwargs: float(result or 0))

#: (span, module, attribute path, wrapper).  Solver functions are patched
#: in the module whose caller looks them up.
TARGETS: Tuple[Tuple[str, str, str, Callable], ...] = (
    ("gateway.handle_solve", "repro.gateway.core", "Gateway.handle_solve", _timed),
    ("gateway.quota", "repro.gateway.routing", "QuotaManager.check", _timed),
    ("gateway.route", "repro.gateway.core", "Gateway.shard_for", _timed),
    ("gateway.batcher", "repro.gateway.core", "_ShardBatcher.submit", _timed),
    ("gateway.rpc", "repro.gateway.shard", "ShardLink.call",
     functools.partial(_timed, extra=_rpc_batch_size)),
    ("wire.request_decode", "repro.api", "SolveRequest.from_wire", _timed),
    ("wire.result_encode", "repro.api", "SolveResult.to_wire", _timed),
    ("wire.canonical_key", "repro.scheduling.job", "JobSet.canonical_key", _timed),
    ("serve.submit", "repro.serve.service", "SolverService.submit", _until_resolved),
    ("serve.submit_batch", "repro.serve.service", "SolverService.submit_batch", _until_resolved),
    ("serve.lru.get", "repro.serve.cache", "LruCache.get", _hit),
    ("serve.lru.put", "repro.serve.cache", "LruCache.put", _evictions),
    ("store.get", "repro.store.store", "ResultStore.get", _hit),
    ("store.put", "repro.store.store", "ResultStore.put", _timed),
    ("store.open", "repro.store.store", "ResultStore.__init__", _timed),
    ("store.prewarm", "repro.store.store", "ResultStore.prewarm_into", _timed),
    ("solver.solve", "repro.serve.service", "solve_k_bounded", _timed),
    ("solver.solve_batch", "repro.serve.service", "solve_k_bounded_batch", _timed),
    ("solver.opt_infty", "repro.core.combined", "opt_infty_exact", _timed),
    ("solver.reduction", "repro.core.combined", "reduce_schedule_to_k_preemptive", _timed),
    ("solver.lsa", "repro.core.combined", "lsa_cs", _timed),
    ("solver.tm_batched", "repro.core.bas.tm", "tm_optimal_bas_batched", _timed),
)

#: A shard writes its spans out once its service has drained.
DUMP_HOOK = ("repro.serve.service", "SolverService.shutdown")

#: Span names reported as ``<span>.count/.p50_ms/.busy_ms``, in table order.
SPAN_NAMES: Tuple[str, ...] = ("client.conn_wait",) + tuple(t[0] for t in TARGETS)


def _patch(module_name: str, path: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace ``module.path`` with ``make(original)``; False if it is gone."""
    try:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attr)
    except (ImportError, AttributeError):
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        setattr(owner, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))
    return True


def install(rec: Recorder) -> List[str]:
    """Wrap every layer entry point that exists; returns the absent span names."""
    absent = [
        name
        for name, module_name, path, wrap in TARGETS
        if not _patch(module_name, path, functools.partial(wrap, rec, name))
    ]
    _patch(*DUMP_HOOK, functools.partial(_dump_after, rec))
    os.register_at_fork(after_in_child=rec.reset)
    return absent


# -- analysis -------------------------------------------------------------------


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span], name: str) -> List[float]:
    """Each ``name`` span's duration minus the part its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, start, end, _extra in spans:
        children[parent].append((start, end))
    return [
        (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _parent, span_name, start, end, _extra in spans
        if span_name == name
    ]


def has_ancestor(spans_by_id: Dict[int, Span], span: Span, name: str) -> bool:
    """Whether ``span`` nests, at any depth, inside a span called ``name``."""
    parent = span[1]
    while parent:
        above = spans_by_id.get(parent)
        if above is None:
            return False
        if above[2] == name:
            return True
        parent = above[1]
    return False


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: Spans recorded at launch; every other span counts only inside the
#: measured window, so warm-up solves do not show on the hit mixes.
SETUP_SPANS = ("store.open", "store.prewarm")


def load_process_spans(out_dir: str, window: Tuple[float, float]) -> List[List[Span]]:
    """Each process's spans from the dumps in ``out_dir``, cut to ``window``."""
    lo, hi = window
    per_process: List[List[Span]] = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.json"))):
        with open(path) as fh:
            spans = [tuple(span) for span in json.load(fh)]
        by_id = {span[0]: span for span in spans}
        per_process.append([
            span for span in spans
            if (span[2] in SETUP_SPANS or lo <= span[3] <= hi)
            # A store read made while prewarming belongs to store.prewarm.
            and not (span[2] == "store.get" and has_ancestor(by_id, span, "store.prewarm"))
        ])
    return per_process


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    per_process: Sequence[Sequence[Span]],
    client_waits_s: Sequence[float],
    client_p50_ms: float,
) -> Dict[str, float]:
    """``<span>.count``, ``<span>.p50_ms``, ``<span>.busy_ms`` for every
    span in :data:`SPAN_NAMES`, plus the derived ratios."""
    durations: Dict[str, List[float]] = defaultdict(list)
    extras: Dict[str, List[float]] = defaultdict(list)
    solve_self: List[float] = []
    for spans in per_process:
        for _sid, _parent, name, start, end, extra in spans:
            durations[name].append(end - start)
            if extra is not None:
                extras[name].append(extra)
        solve_self.extend(self_times(spans, "solver.solve"))
    durations["client.conn_wait"] = list(client_waits_s)
    metrics: Dict[str, float] = {}
    for name in SPAN_NAMES:
        values = durations.get(name, [])
        metrics[f"{name}.count"] = float(len(values))
        metrics[f"{name}.p50_ms"] = percentile(values, 0.5) * 1e3
        metrics[f"{name}.busy_ms"] = sum(values) * 1e3
    metrics["gateway.rpc.batch_size_mean"] = _mean(extras["gateway.rpc"])
    metrics["gateway.http_self.p50_ms"] = (
        client_p50_ms - metrics["client.conn_wait.p50_ms"] - metrics["gateway.handle_solve.p50_ms"]
    )
    metrics["serve.lru.hit_ratio"] = _mean(extras["serve.lru.get"])
    metrics["serve.lru.evictions"] = sum(extras["serve.lru.put"])
    metrics["store.get.hit_ratio"] = _mean(extras["store.get"])
    metrics["solver.solve.self_ms"] = sum(solve_self) * 1e3
    return metrics
