"""The solver service: one request per submit, cached, coalesced, answered fast.

:class:`SolverService` fronts :func:`repro.api.solve_k_bounded` with the
three amortisations a real workload needs (the same adversarial families,
sweep cells and paper instances get re-requested constantly):

* **canonical-instance caching** — results are cached under
  :func:`repro.api.request_key`, so permuted or re-typed copies of an
  instance hit the same entry (``JobSet.canonical_key`` is order- and
  representation-independent);
* **request coalescing** — concurrent submissions of the same key share
  one in-flight solve: followers get the leader's future instead of a
  duplicate worker.  Coalescing is deadline-compatible: a request without
  a deadline never attaches to a deadline-bound leader (whose answer may
  be degraded) — it starts its own full solve and becomes the key's new
  leader;
* **deadline-driven degradation** — a request with a ``deadline_ms``
  budget that the full pipeline exceeds falls back to the LSA pipeline
  (fast, value-safe, still certificate-valid) and the result is flagged
  with ``metrics["served.degraded"]``.  Degraded results are never
  cached: the cache key promises the full-pipeline artifact;
* **durable second tier** — a service constructed with ``store=`` or
  ``store_path=`` mounts a :class:`repro.store.ResultStore` between the
  memory LRU and the cold solve (lookup order: LRU → store → solve).
  Store hits are stamped ``metrics["served.store_hit"]`` and promoted
  into the LRU; cold non-degraded results are persisted (the poisoning
  rule extends to disk); the LRU is prewarmed from the store at
  construction.  Store I/O failures are swallowed and counted — a broken
  disk degrades the service to memory-only, never to erroring requests.

The API is synchronous-friendly and takes one value object per request:
:meth:`SolverService.submit` accepts a single
:class:`repro.api.SolveRequest` and returns a
:class:`concurrent.futures.Future` resolving to a
:class:`~repro.api.SolveResult`; :meth:`SolverService.solve` blocks.
Execution is concurrent on a bounded worker pool.  Failed solves
are retried once before the failure (or the degraded fallback, when a
deadline is set) is surfaced.

Observability: every request runs under a private tracer whose spans
(``serve.request`` wrapping the usual ``api.solve`` tree) and counters
merge into the service's tracer — the one active when the service was
constructed, or one passed explicitly.  Service counters are
``serve.requests/hits/misses/coalesced/degraded/evictions/retries/
timeouts/errors`` plus the store tier's
``store.hits/misses/writes/prewarmed``; :meth:`SolverService.stats`
exposes the same numbers without any tracer.  See ``docs/SERVING.md`` for
the architecture and the degradation contract, and ``docs/STORE.md`` for
the durable tier.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.api import SolveRequest, SolveResult, solve_k_bounded
from repro.obs.tracer import Tracer, current_tracer
from repro.scheduling.job import JobSet
from repro.serve.cache import LruCache

__all__ = ["ServiceStats", "SolverService", "ServiceClosed"]

@dataclass(frozen=True)
class ServiceStats:
    """One service's counter snapshot, as a typed value object.

    The field names are exactly the keys the old plain-dict ``stats()``
    used, so nothing downstream has to re-learn names — and the gateway
    can aggregate a whole fleet's stats without string-key drift:
    :meth:`aggregate` sums snapshots field by field.  ``cache_size`` and
    ``inflight`` are occupancy gauges, everything else is monotonic.
    """

    requests: int = 0
    hits: int = 0
    misses: int = 0
    coalesced: int = 0
    degraded: int = 0
    evictions: int = 0
    retries: int = 0
    timeouts: int = 0
    errors: int = 0
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_prewarmed: int = 0
    cache_size: int = 0
    inflight: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The plain-dict form (JSON payloads)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def aggregate(cls, snapshots: Iterable["ServiceStats"]) -> "ServiceStats":
        """Field-wise sum over a fleet (occupancy gauges sum too: the
        aggregate's ``cache_size``/``inflight`` are fleet totals)."""
        totals = {f.name: 0 for f in fields(cls)}
        for snap in snapshots:
            for name in totals:
                totals[name] += getattr(snap, name)
        return cls(**totals)


#: Stat fields reported by :meth:`SolverService.stats`, all monotonic: every
#: :class:`ServiceStats` field except the two occupancy gauges.
_STAT_NAMES = tuple(
    f.name for f in fields(ServiceStats) if f.name not in ("cache_size", "inflight")
)


class ServiceClosed(RuntimeError):
    """Raised by :meth:`SolverService.submit` after :meth:`shutdown`."""


class SolverService:
    """Concurrently-executing, caching, coalescing facade over the solvers.

    ``workers`` bounds the solve concurrency; ``cache_size`` bounds the LRU
    result cache; ``deadline_ms`` is a default per-request budget (a
    request's own ``deadline_ms`` overrides it).  ``tracer`` defaults to
    the tracer active at construction time — pass one explicitly to
    collect service spans without activating a context tracer.  ``solve_fn`` exists for
    tests (fault windows, slow solves); production callers never set it.

    ``store`` mounts an existing :class:`repro.store.ResultStore` as the
    durable second cache tier; ``store_path`` (mutually exclusive) opens
    one at that directory and the service owns it (closing it at
    :meth:`shutdown`) — being a plain string, ``store_path`` also travels
    through the gateway's ``service_kwargs`` into forked shard processes.
    ``prewarm`` (default on) loads the store's most recently written
    results into the memory LRU at construction, counted in
    ``store_prewarmed``.

    A timed-out pipeline attempt is *abandoned*, not interrupted — the
    worker thread finishes in the background while the degraded answer is
    served (solves are pure, so this wastes CPU but corrupts nothing).

    Usable as a context manager; :meth:`shutdown` drains the pool.
    """

    def __init__(
        self,
        *,
        workers: int = 4,
        cache_size: int = 256,
        deadline_ms: Optional[float] = None,
        tracer: Optional[Tracer] = None,
        solve_fn: Optional[Callable[..., SolveResult]] = None,
        store=None,
        store_path: Optional[str] = None,
        prewarm: bool = True,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if store is not None and store_path is not None:
            raise TypeError("pass either store= or store_path=, not both")
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve"
        )
        self._cache = LruCache(cache_size)
        # key -> (leader future, leader deadline_ms); the deadline is kept so
        # coalescing can refuse to hand a possibly-degraded answer to a
        # request that did not opt into one.
        self._inflight: Dict[str, Tuple[Future, Optional[float]]] = {}
        self._lock = threading.Lock()
        self._stats: Dict[str, int] = {name: 0 for name in _STAT_NAMES}
        self._tracer = tracer if tracer is not None else current_tracer()
        self._solve = solve_fn if solve_fn is not None else solve_k_bounded
        self._default_deadline_ms = deadline_ms
        self._closed = False
        self._owns_store = False
        if store is None and store_path is not None:
            from repro.store import ResultStore

            store = ResultStore(store_path)
            self._owns_store = True
        self._store = store
        if self._store is not None and prewarm:
            loaded = self._store.prewarm_into(self._cache, limit=cache_size)
            if loaded:
                with self._lock:
                    self._stats["store_prewarmed"] += loaded
                    self._count_tracer("store.prewarmed", loaded)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (by default) drain in-flight solves.

        A store opened via ``store_path`` is closed after the pool drains;
        a caller-provided ``store`` object is left open (it may be shared).
        """
        with self._lock:
            self._closed = True
        self._pool.shutdown(wait=wait)
        if self._owns_store and self._store is not None:
            self._store.close()

    # -- the public surface ---------------------------------------------------

    def submit(self, request: SolveRequest) -> "Future[SolveResult]":
        """Enqueue one :class:`SolveRequest`; returns a future of its result.

        Cache hits resolve immediately (the result carries
        ``metrics["served.hit"]``); a duplicate of an in-flight request
        shares the leader's future when their deadlines are compatible (a
        no-deadline request never rides a deadline-bound leader, whose
        answer may be degraded — it replaces it as the key's leader);
        everything else dispatches to the worker pool.  Argument
        validation errors raise here, in the caller's thread — only solver
        failures travel through the future.
        """
        if not isinstance(request, SolveRequest):
            raise TypeError(
                "SolverService.submit() expects a repro.api.SolveRequest, "
                f"got {type(request).__name__}"
            )
        key = request.key()
        deadline_ms = request.deadline_ms
        if deadline_ms is None:
            deadline_ms = self._default_deadline_ms
        with self._lock:
            if self._closed:
                raise ServiceClosed("submit on a shut-down SolverService")
            self._stats["requests"] += 1
            self._count_tracer("serve.requests")
            cached = self._cache.get(key)
            if cached is not None:
                self._stats["hits"] += 1
                self._count_tracer("serve.hits")
                done: "Future[SolveResult]" = Future()
                done.set_result(cached.with_metrics({"served.hit": 1.0}))
                return done
            entry = self._inflight.get(key)
            if entry is not None:
                lead_fut, lead_deadline = entry
                if deadline_ms is not None or lead_deadline is None:
                    self._stats["coalesced"] += 1
                    self._count_tracer("serve.coalesced")
                    return lead_fut
                # A no-deadline request must get the full-pipeline answer;
                # fall through to dispatch a fresh solve that replaces the
                # deadline-bound leader (later followers share the better
                # future; the old leader resolves its own waiters).
            fut: "Future[SolveResult]" = Future()
            self._inflight[key] = (fut, deadline_ms)
            self._stats["misses"] += 1
            self._count_tracer("serve.misses")
        try:
            self._pool.submit(
                self._run, key, fut, request.jobs, request.k, request.machines,
                request.method, deadline_ms,
            )
        except RuntimeError:
            # shutdown() won the race between our _closed check and the pool
            # dispatch; resolve the future so waiters (including any follower
            # that coalesced in the meantime) are not stranded in result().
            with self._lock:
                self._drop_inflight(key, fut)
            fut.set_exception(
                ServiceClosed("service shut down while dispatching the request")
            )
        return fut

    def solve(
        self, request: SolveRequest, *, timeout: Optional[float] = None
    ) -> SolveResult:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(request).result(timeout=timeout)

    def stats(self) -> ServiceStats:
        """Snapshot of the service counters plus cache/in-flight occupancy.

        Returns a frozen :class:`ServiceStats`; :meth:`ServiceStats.as_dict`
        gives the plain-dict form for JSON payloads.
        """
        with self._lock:
            return ServiceStats(
                cache_size=len(self._cache),
                inflight=len(self._inflight),
                **self._stats,
            )

    def clear_cache(self) -> None:
        """Drop every cached result (benchmarks use this for cold timings)."""
        with self._lock:
            self._cache.clear()

    # -- worker side ----------------------------------------------------------

    def _count_tracer(self, name: str, delta: float = 1) -> None:
        # Caller must hold self._lock; the tracer's counter dict is shared.
        if self._tracer is not None:
            self._tracer.count(name, delta)

    def _drop_inflight(self, key: str, fut: "Future[SolveResult]") -> None:
        # Caller must hold self._lock.  Pop only our own entry: a no-deadline
        # request may have replaced us as the key's leader.
        entry = self._inflight.get(key)
        if entry is not None and entry[0] is fut:
            del self._inflight[key]

    def _store_get(self, key: str) -> Optional[SolveResult]:
        # Store I/O must never fail a request: any store-side exception is
        # treated as a miss (the cold solve is always a safe fallback).
        if self._store is None:
            return None
        try:
            return self._store.get(key)
        except Exception:
            return None

    def _store_put(self, key: str, result: SolveResult) -> int:
        # Returns 1 on a new durable write, 0 otherwise; never raises.
        if self._store is None:
            return 0
        try:
            return int(self._store.put(key, result))
        except Exception:
            return 0

    def _run(
        self,
        key: str,
        fut: "Future[SolveResult]",
        jobs: JobSet,
        k: int,
        machines: int,
        method: str,
        deadline_ms: Optional[float],
    ) -> None:
        if self._store is not None:
            stored = self._store_get(key)
            if stored is not None:
                # The durable tier only holds full-pipeline artifacts, so a
                # store hit satisfies deadline-bound and unbound requests
                # alike — and is always faster than degrading.  It is
                # promoted into the LRU.
                with self._lock:
                    evicted = self._cache.put(key, stored)
                    self._drop_inflight(key, fut)
                    self._stats["store_hits"] += 1
                    self._stats["evictions"] += evicted
                    self._count_tracer("store.hits")
                    if evicted:
                        self._count_tracer("serve.evictions", evicted)
                fut.set_result(stored.with_metrics({"served.store_hit": 1.0}))
                return
            with self._lock:
                self._stats["store_misses"] += 1
                self._count_tracer("store.misses")
        tracer = Tracer()
        try:
            with tracer.activate():
                with tracer.span(
                    "serve.request",
                    n=jobs.n,
                    k=k,
                    machines=machines,
                    method=method,
                    deadline_ms=deadline_ms,
                ) as root:
                    result, served = self._solve_with_deadline(
                        jobs, k, machines, method, deadline_ms
                    )
                    root.attrs["degraded"] = bool(served["served.degraded"])
                wall_ms = root.duration_ms
        except BaseException as exc:
            with self._lock:
                self._drop_inflight(key, fut)
                self._stats["errors"] += 1
                self._count_tracer("serve.errors")
                if self._tracer is not None:
                    self._tracer.merge(tracer.export())
            fut.set_exception(exc)
            return
        served["served.wall_ms"] = float(wall_ms)
        result = result.with_metrics(served)
        # Persist outside the service lock: store I/O serialises on the
        # store's own lock and must not stall cache lookups.  The poisoning
        # rule extends to disk — degraded results are never persisted.
        wrote = 0
        if not served["served.degraded"]:
            wrote = self._store_put(key, result)
        with self._lock:
            if served["served.degraded"]:
                # Never cache a degraded answer: the cache key promises the
                # full-pipeline artifact, and a poisoned entry would be
                # served to later no-deadline requests with no recovery
                # short of clear_cache().
                evicted = 0
            else:
                evicted = self._cache.put(key, result)
            self._drop_inflight(key, fut)
            self._stats["evictions"] += evicted
            self._stats["degraded"] += int(served["served.degraded"])
            self._stats["retries"] += int(served["served.retries"])
            self._stats["timeouts"] += int(served["served.timeouts"])
            self._stats["errors"] += int(served["served.errors"])
            self._stats["store_writes"] += wrote
            if self._tracer is not None:
                if evicted:
                    self._count_tracer("serve.evictions", evicted)
                if served["served.degraded"]:
                    self._count_tracer("serve.degraded")
                if served["served.retries"]:
                    self._count_tracer("serve.retries", served["served.retries"])
                if served["served.timeouts"]:
                    self._count_tracer("serve.timeouts", served["served.timeouts"])
                if served["served.errors"]:
                    self._count_tracer("serve.errors", served["served.errors"])
                if wrote:
                    self._count_tracer("store.writes", wrote)
                self._tracer.merge(tracer.export())
        fut.set_result(result)

    def _solve_with_deadline(
        self,
        jobs: JobSet,
        k: int,
        machines: int,
        method: str,
        deadline_ms: Optional[float],
    ):
        """One solve under the request's budget; returns (result, served block).

        No deadline: solve inline, one retry on failure.  With a deadline:
        run the attempt in a side thread and wait out the remaining budget;
        a timeout (or a retry that would start with no budget left) degrades
        to the single-machine LSA pipeline, which is the cheap end of the
        Algorithm 3 spectrum and still certificate-valid.  The degraded
        result is flagged in ``served.degraded``; a multi-machine request
        degrades to the one-machine LSA value (a feasible lower bound).
        """
        served: Dict[str, float] = {
            "served.degraded": 0.0,
            "served.retries": 0.0,
            "served.timeouts": 0.0,
            "served.errors": 0.0,
        }
        attempt = lambda: self._solve(jobs, k, machines=machines, method=method)
        if deadline_ms is None:
            try:
                return attempt(), served
            except Exception:
                served["served.retries"] = 1.0
                return attempt(), served

        t0 = time.perf_counter()
        budget_s = max(0.0, float(deadline_ms) / 1e3)
        status, payload = _attempt_with_timeout(attempt, budget_s)
        if status == "error":
            remaining = budget_s - (time.perf_counter() - t0)
            if remaining > 0:
                served["served.retries"] = 1.0
                status, payload = _attempt_with_timeout(attempt, remaining)
            else:
                # No budget left for a retry: degrade without counting a
                # retry that never ran.  The attempt *errored* — it did not
                # time out — so this counts as an error, not a timeout.
                served["served.errors"] = 1.0
                status, payload = "degrade", None
        if status == "ok":
            return payload, served
        if status == "error":
            raise payload
        if status == "timeout":
            served["served.timeouts"] = 1.0
        served["served.degraded"] = 1.0
        # enforce_laxity=False keeps the fallback total: feasibility never
        # needed the laxity bound, only the value guarantee does.
        result = self._solve(
            jobs, k, machines=1, method="lsa", enforce_laxity=False
        )
        return result, served


def _attempt_with_timeout(fn: Callable[[], Any], timeout_s: float):
    """Run ``fn`` in a daemon thread, waiting at most ``timeout_s``.

    Returns ``("ok", result)``, ``("error", exception)`` or
    ``("timeout", None)``.  On timeout the thread is left to finish in the
    background (Python offers no safe preemption; solves are pure).

    An exhausted budget short-circuits *before* any thread is spawned:
    ``done.wait(0)`` would return immediately while the daemon thread ran
    a full cold solve nobody consumes — one leaked background solve per
    already-expired request.
    """
    if timeout_s <= 0:
        return "timeout", None
    box: Dict[str, Any] = {}
    done = threading.Event()

    def run() -> None:
        try:
            box["result"] = fn()
        except BaseException as exc:  # surfaced to the caller, never lost
            box["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(target=run, daemon=True, name="repro-serve-attempt")
    worker.start()
    if not done.wait(timeout_s):
        return "timeout", None
    if "error" in box:
        return "error", box["error"]
    return "ok", box["result"]
