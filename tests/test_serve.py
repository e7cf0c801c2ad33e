"""The solver service (repro.serve), end to end.

The tentpole proof is the stress test: 16 client threads fire 200 requests
each over a 20-instance corpus through one shared service, and afterwards
the test asserts the service's whole contract at once — no deadlock, a
cache-hit ratio above 0.8, at least one coalesced request, every distinct
answer certificate-verified, and agreement with the direct facade solve.
The rest of the file pins the pieces the stress test composes: canonical
keys, the LRU cache, coalescing determinism (gated solve), retry and
deadline-degradation semantics.
"""

import threading
import time
from concurrent.futures import wait
from fractions import Fraction
from random import Random

import pytest

from repro.api import SolveRequest, request_key, solve_k_bounded
from repro.instances import random_integral_jobs, random_jobs
from repro.scheduling.job import Job, JobSet
from repro.scheduling.verify import verify_schedule
from repro.serve import LruCache, ServiceClosed, SolverService
from repro.serve.service import cacheable, hit_metrics


# ---------------------------------------------------------------------------
# canonical keys
# ---------------------------------------------------------------------------


class TestCanonicalKey:
    def test_order_independent(self):
        a = JobSet([Job(0, 0, 10, 3), Job(1, 1, 6, 2), Job(2, 2, 9, 4)])
        b = JobSet([Job(2, 2, 9, 4), Job(0, 0, 10, 3), Job(1, 1, 6, 2)])
        assert a.canonical_key() == b.canonical_key()

    def test_numeric_type_normalized(self):
        a = JobSet([Job(0, 0, 10, 3), Job(1, 1, 6, 2)])
        b = JobSet([Job(0, 0.0, Fraction(10), 3.0), Job(1, Fraction(1), 6, 2.0)])
        assert a.canonical_key() == b.canonical_key()

    def test_exact_fractions_distinguished(self):
        # 1/3 is not representable as a float; the exact instance must not
        # collide with its float approximation.
        a = JobSet([Job(0, 0, 10, Fraction(10, 3))])
        b = JobSet([Job(0, 0, 10, 10 / 3)])
        assert a.canonical_key() != b.canonical_key()

    def test_ids_participate(self):
        a = JobSet([Job(0, 0, 10, 3)])
        b = JobSet([Job(7, 0, 10, 3)])
        assert a.canonical_key() != b.canonical_key()

    @pytest.mark.parametrize("field", ["release", "deadline", "length", "value"])
    def test_every_coordinate_matters(self, field):
        base = dict(id=0, release=2, deadline=20, length=4, value=5)
        a = JobSet([Job(**base)])
        bumped = dict(base)
        bumped[field] += 1
        b = JobSet([Job(**bumped)])
        assert a.canonical_key() != b.canonical_key()

    def test_no_collisions_over_seeded_corpus(self):
        """A few hundred structurally nearby instances must all hash apart."""
        rng = Random(2018)
        keys = {}
        for i in range(300):
            n = rng.randint(1, 8)
            jobs = []
            for j in range(n):
                r = rng.randint(0, 12)
                p = rng.randint(1, 6)
                slack = rng.randint(0, 6)
                v = rng.choice([1, 2, 3, Fraction(1, 2), 1.5])
                jobs.append(Job(j, r, r + p + slack, p, v))
            js = JobSet(jobs)
            key = js.canonical_key()
            if key in keys:
                assert keys[key].canonical_key() == js.canonical_key()
                # Same key must mean the same canonical multiset: re-check
                # via the sorted exact serialisation both sides hash.
                same = sorted(
                    (Fraction(a.release), Fraction(a.deadline), Fraction(a.length), Fraction(a.value), a.id)
                    for a in keys[key]
                ) == sorted(
                    (Fraction(a.release), Fraction(a.deadline), Fraction(a.length), Fraction(a.value), a.id)
                    for a in js
                )
                assert same, f"collision between distinct instances at case {i}"
            keys[key] = js

    #: Keys are persisted in result stores, so their bytes are frozen: a
    #: tokenizer change that moved any of these digests would orphan every
    #: stored answer.  The digests were taken before the int/Fraction fast
    #: paths in ``_canonical_number`` existed.
    @pytest.mark.parametrize(
        "rows, digest",
        [
            (
                [(0, 0, 5, 2, 3), (1, 1, 7, 3, 1), (2, 2, 4, 1, 2), (3, 0, 9, 4, 5)],
                "b92474371864be97443e2e72e1a9ca3886d90f26af5695ba3737e1b9299720cd",
            ),
            (
                [
                    (0, Fraction(1, 3), Fraction(7, 2), Fraction(5, 4), Fraction(3, 2)),
                    (1, Fraction(0), Fraction(9, 4), Fraction(1, 2), Fraction(7)),
                    (2, Fraction(2, 3), Fraction(11, 3), Fraction(3, 1), Fraction(1, 5)),
                ],
                "5a47788ca1150df27021885544d33ccc4edc0c4c628378e5f8734e1b4b3cbc35",
            ),
            (
                [(0, 0.1, 2.5, 1.2, 4), (1, 0.25, 3.75, 0.5, 2), (2, 1.0, 2.3, 1.3, 7)],
                "8c953db6e0d8c32e842ef727138a38c42f222cf1807302f0c5532fb1f30a189b",
            ),
            (
                [(0, 0, 6, 2, 0.1), (1, 1, 4, 3, 2.5), (2, 2, 9, 1, 1e-3)],
                "33fd6b3aac8685687685e66b3f136a1ef1880e6943d9536465efd038eb520dd7",
            ),
        ],
        ids=["int", "fraction", "decimal-float", "float-value"],
    )
    def test_digests_are_pinned(self, rows, digest):
        assert JobSet(Job(*row) for row in rows).canonical_key() == digest
        assert JobSet(Job(*row) for row in reversed(rows)).canonical_key() == digest

    def test_request_key_separates_parameters(self):
        jobs = JobSet([Job(0, 0, 10, 3)])
        keys = {
            request_key(jobs, 1),
            request_key(jobs, 2),
            request_key(jobs, 1, machines=2),
            request_key(jobs, 1, method="lsa"),
        }
        assert len(keys) == 4

    def test_request_key_rejects_unknown_method(self):
        jobs = JobSet([Job(0, 0, 10, 3)])
        with pytest.raises(ValueError):
            request_key(jobs, 1, method="nope")


# ---------------------------------------------------------------------------
# the LRU cache
# ---------------------------------------------------------------------------


class TestLruCache:
    def test_capacity_enforced_lru_order(self):
        cache = LruCache(2)
        assert cache.put("a", 1) == 0
        assert cache.put("b", 2) == 0
        assert cache.get("a") == 1  # refreshes a; b is now the LRU entry
        assert cache.put("c", 3) == 1
        assert "b" not in cache
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_overwrite_does_not_evict(self):
        cache = LruCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.put("a", 10) == 0
        assert cache.get("a") == 10 and cache.get("b") == 2

    def test_miss_is_none(self):
        assert LruCache(1).get("missing") is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            LruCache(0)


class TestCachingRules:
    def test_degraded_answers_are_not_cacheable(self):
        assert cacheable({"served.degraded": 0.0, "served.wall_ms": 3.0})
        assert cacheable({})  # a direct solve carries no served block
        assert not cacheable({"served.degraded": 1.0})

    def test_hit_metrics_stamp_the_hit_and_drop_store_provenance(self):
        served = {"served.wall_ms": 3.0, "served.store_hit": 1.0}
        assert hit_metrics(served) == {"served.wall_ms": 3.0, "served.hit": 1.0}
        assert served == {"served.wall_ms": 3.0, "served.store_hit": 1.0}

    def test_service_hit_reads_as_hit_metrics_say(self):
        jobs = random_jobs(8, seed=3)
        with SolverService(workers=1) as svc:
            first = svc.solve(SolveRequest(jobs=jobs, k=1))
            hit = svc.solve(SolveRequest(jobs=jobs, k=1))
        assert hit.metrics == hit_metrics(first.metrics)


# ---------------------------------------------------------------------------
# service semantics (deterministic, single-threaded where possible)
# ---------------------------------------------------------------------------


def _corpus(count: int, n: int = 10, seed: int = 7):
    return [(random_jobs(n, seed=seed + i), 1 + i % 2) for i in range(count)]


class TestServiceSemantics:
    def test_hit_equals_direct_solve(self):
        jobs, k = _corpus(1)[0]
        direct = solve_k_bounded(jobs, k)
        with SolverService(workers=2) as svc:
            cold = svc.solve(SolveRequest(jobs, k))
            hit = svc.solve(SolveRequest(jobs, k))
        assert cold.value == hit.value == direct.value
        assert cold.preemptions_used == direct.preemptions_used
        assert not cold.degraded and not hit.degraded
        assert hit.metrics["served.hit"] == 1.0
        assert "served.hit" not in cold.metrics

    def test_permuted_instance_hits_cache(self):
        jobs, k = _corpus(1)[0]
        permuted = JobSet(reversed(list(jobs)))
        with SolverService(workers=1) as svc:
            svc.solve(SolveRequest(jobs, k))
            again = svc.solve(SolveRequest(permuted, k))
            stats = svc.stats()
        assert again.metrics["served.hit"] == 1.0
        assert stats.hits == 1 and stats.misses == 1

    def test_frontier_size_reduction_request_is_cacheable(self):
        """An n = 28 ``method="reduction"`` request is served cold by the
        bitset ``OPT_∞`` core and then answered from cache, identically.

        Before the bitset rewrite n = 28 sat beyond every exact guard, so
        requests this size silently reduced from a *greedy* ∞-preemptive
        schedule; now the cold solve's metrics carry the exact solver's
        node counter, proving the branch-and-bound ran inside the worker.
        """
        from repro.scheduling.exact import clear_exact_caches

        clear_exact_caches()
        jobs = random_integral_jobs(28, seed=828)
        req = SolveRequest(jobs=jobs, k=2, method="reduction")
        with SolverService(workers=1) as svc:
            cold = svc.solve(req)
            hit = svc.solve(req)
            stats = svc.stats()
        assert cold.method == hit.method == "reduction"
        assert cold.value == hit.value > 0
        assert hit.metrics["served.hit"] == 1.0
        assert stats.hits == 1 and stats.misses == 1
        assert cold.metrics.get("exact.nodes", 0) > 0, (
            "the exact bitset core never ran — the n = 28 request fell "
            "back to greedy admission"
        )
        verify_schedule(cold.schedule).assert_ok()

    def test_coalescing_shares_one_inflight_solve(self):
        """Duplicates submitted while the leader is gated all share its future
        and the underlying solver runs exactly once."""
        jobs, k = _corpus(1)[0]
        gate = threading.Event()
        calls = []

        def gated(jobs_, k_, *, machines=1, method="auto", **kw):
            calls.append(method)
            assert gate.wait(timeout=30), "gate never opened"
            return solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)

        with SolverService(workers=2, solve_fn=gated) as svc:
            futs = [svc.submit(SolveRequest(jobs, k)) for _ in range(6)]
            assert len({id(f) for f in futs}) == 1
            assert svc.stats().coalesced == 5
            gate.set()
            done, not_done = wait(futs, timeout=30)
            assert not not_done
        assert len(calls) == 1
        values = {f.result().value for f in futs}
        assert values == {solve_k_bounded(jobs, k).value}

    def test_submission_after_completion_is_a_hit_not_coalesced(self):
        jobs, k = _corpus(1)[0]
        with SolverService(workers=1) as svc:
            svc.solve(SolveRequest(jobs, k))
            svc.solve(SolveRequest(jobs, k))
            stats = svc.stats()
        assert stats.coalesced == 0 and stats.hits == 1

    def test_retry_once_on_failure(self):
        jobs, k = _corpus(1)[0]
        attempts = []

        def flaky(jobs_, k_, *, machines=1, method="auto", **kw):
            attempts.append(1)
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)

        with SolverService(workers=1, solve_fn=flaky) as svc:
            result = svc.solve(SolveRequest(jobs, k))
            stats = svc.stats()
        assert len(attempts) == 2
        assert result.value == solve_k_bounded(jobs, k).value
        assert result.metrics["served.retries"] == 1.0
        assert stats.retries == 1 and stats.errors == 0

    def test_persistent_failure_surfaces_after_one_retry(self):
        jobs, k = _corpus(1)[0]
        attempts = []

        def broken(jobs_, k_, *, machines=1, method="auto", **kw):
            attempts.append(1)
            raise RuntimeError("permanent")

        with SolverService(workers=1, solve_fn=broken) as svc:
            fut = svc.submit(SolveRequest(jobs, k))
            with pytest.raises(RuntimeError, match="permanent"):
                fut.result(timeout=30)
            stats = svc.stats()
        assert len(attempts) == 2
        assert stats.errors == 1
        # A failed request must not poison the cache or the in-flight table.
        assert stats.cache_size == 0 and stats.inflight == 0

    def test_deadline_degrades_to_lsa(self):
        jobs, k = _corpus(1)[0]

        def slow_full(jobs_, k_, *, machines=1, method="auto", **kw):
            if method != "lsa":
                time.sleep(2.0)
            return solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)

        with SolverService(workers=1, solve_fn=slow_full) as svc:
            result = svc.solve(SolveRequest(jobs, k, deadline_ms=50))
            stats = svc.stats()
        assert result.degraded
        assert result.metrics["served.degraded"] == 1.0
        assert result.metrics["served.timeouts"] == 1.0
        assert stats.degraded == 1 and stats.timeouts == 1
        # Degraded is still a real, feasible, k-bounded answer.
        verify_schedule(result.schedule, k=k).assert_ok()
        assert result.value <= solve_k_bounded(jobs, k).value

    def test_degraded_result_is_not_cached(self):
        """A deadline-degraded answer must never poison the cache: a later
        no-deadline request for the same key gets a fresh full solve, and
        only that full result is cached."""
        jobs, k = _corpus(1)[0]
        slowed_once = threading.Event()

        def slow_once(jobs_, k_, *, machines=1, method="auto", **kw):
            if method != "lsa" and not slowed_once.is_set():
                slowed_once.set()
                time.sleep(0.5)
            return solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)

        direct = solve_k_bounded(jobs, k)
        with SolverService(workers=1, solve_fn=slow_once) as svc:
            degraded = svc.solve(SolveRequest(jobs, k, deadline_ms=50))
            full = svc.solve(SolveRequest(jobs, k))  # must NOT be served the degraded entry
            hit = svc.solve(SolveRequest(jobs, k))
            stats = svc.stats()
        assert degraded.degraded
        assert not full.degraded and "served.hit" not in full.metrics
        assert full.value == direct.value
        assert full.preemptions_used == direct.preemptions_used
        assert hit.metrics["served.hit"] == 1.0 and not hit.degraded
        assert stats.misses == 2 and stats.hits == 1

    def test_no_deadline_request_does_not_coalesce_onto_deadline_leader(self):
        """A request without a deadline must not ride a deadline-bound
        in-flight solve (it could be handed a degraded answer); it starts
        its own full solve and becomes the key's new leader."""
        jobs, k = _corpus(1)[0]
        gate = threading.Event()

        def gated(jobs_, k_, *, machines=1, method="auto", **kw):
            assert gate.wait(timeout=30), "gate never opened"
            return solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)

        with SolverService(workers=2, solve_fn=gated) as svc:
            leader = svc.submit(SolveRequest(jobs, k, deadline_ms=60_000))
            follower = svc.submit(SolveRequest(jobs, k))
            bounded = svc.submit(SolveRequest(jobs, k, deadline_ms=60_000))
            assert follower is not leader
            assert bounded is follower  # new leader, deadline-bound rides it
            assert svc.stats().misses == 2
            assert svc.stats().coalesced == 1
            gate.set()
            done, not_done = wait([leader, follower], timeout=30)
            assert not not_done
            stats = svc.stats()
        direct = solve_k_bounded(jobs, k)
        assert not follower.result().degraded
        assert follower.result().value == direct.value
        assert leader.result().value == direct.value
        assert stats.inflight == 0

    def test_shutdown_race_resolves_future_with_service_closed(self):
        """If shutdown() wins the race between submit's closed-check and the
        pool dispatch, the future must resolve with ServiceClosed instead of
        stranding waiters forever."""
        jobs, k = _corpus(1)[0]
        svc = SolverService(workers=1)
        # Close the pool out from under the service while _closed is still
        # False — exactly the window a concurrent shutdown() can hit.
        svc._pool.shutdown(wait=True)
        fut = svc.submit(SolveRequest(jobs, k))
        with pytest.raises(ServiceClosed):
            fut.result(timeout=10)
        assert svc.stats().inflight == 0
        svc.shutdown()

    def test_no_retry_counted_when_budget_already_spent(self, monkeypatch):
        """An attempt that errors with no budget left degrades immediately;
        served.retries must stay 0 for the retry that never ran."""
        from repro.serve import service as service_mod

        jobs, k = _corpus(1)[0]
        clock = iter([0.0, 10.0])  # t0, then a reading far past the budget

        class FakeTime:
            perf_counter = staticmethod(lambda: next(clock))

        attempts = []

        def failing(jobs_, k_, *, machines=1, method="auto", **kw):
            if method == "lsa":
                return solve_k_bounded(
                    jobs_, k_, machines=machines, method=method, **kw
                )
            attempts.append(1)
            raise RuntimeError("boom")

        monkeypatch.setattr(service_mod, "time", FakeTime)
        with SolverService(workers=1, solve_fn=failing) as svc:
            result = svc.solve(SolveRequest(jobs, k, deadline_ms=100))
            stats = svc.stats()
        assert len(attempts) == 1  # no second attempt without budget
        assert result.degraded
        assert result.metrics["served.retries"] == 0.0
        assert stats.retries == 0 and stats.degraded == 1

    def test_error_with_exhausted_budget_counts_error_not_timeout(
        self, monkeypatch
    ):
        """An attempt that *errors* after the budget ran out is an error,
        not a timeout.  (Regression: the no-budget-left error path reused
        the timeout degrade branch and stamped ``served.timeouts = 1``,
        so solver crashes near the deadline were invisible in the error
        column and inflated the timeout one.)"""
        from repro.serve import service as service_mod

        jobs, k = _corpus(1)[0]
        clock = iter([0.0, 10.0])  # t0, then a reading far past the budget

        class FakeTime:
            perf_counter = staticmethod(lambda: next(clock))

        def failing(jobs_, k_, *, machines=1, method="auto", **kw):
            if method == "lsa":
                return solve_k_bounded(
                    jobs_, k_, machines=machines, method=method, **kw
                )
            raise RuntimeError("boom")

        monkeypatch.setattr(service_mod, "time", FakeTime)
        with SolverService(workers=1, solve_fn=failing) as svc:
            result = svc.solve(SolveRequest(jobs, k, deadline_ms=100))
            stats = svc.stats()
        assert result.degraded
        assert result.metrics["served.errors"] == 1.0
        assert result.metrics["served.timeouts"] == 0.0
        assert stats.errors == 1 and stats.timeouts == 0

    def test_exhausted_budget_spawns_no_attempt_thread(self):
        """``_attempt_with_timeout`` with no budget must not start a solve
        thread.  (Regression: it spawned the daemon thread and then waited
        0 s for it — reporting a timeout while a full cold solve nobody
        would consume kept burning a core in the background.)"""
        from repro.serve.service import _attempt_with_timeout

        started = threading.Event()

        def leaked_solve():
            started.set()
            return "never consumed"

        before = [
            t for t in threading.enumerate() if t.name == "repro-serve-attempt"
        ]
        status, payload = _attempt_with_timeout(leaked_solve, 0.0)
        assert (status, payload) == ("timeout", None)
        assert not started.wait(0.2), "zero-budget attempt ran the solve"
        after = [
            t for t in threading.enumerate() if t.name == "repro-serve-attempt"
        ]
        assert len(after) == len(before)

    def test_generous_deadline_not_degraded(self):
        jobs, k = _corpus(1)[0]
        with SolverService(workers=1) as svc:
            result = svc.solve(SolveRequest(jobs, k, deadline_ms=60_000))
        assert not result.degraded
        assert result.value == solve_k_bounded(jobs, k).value

    def test_eviction_counted(self):
        corpus = _corpus(4)
        with SolverService(workers=1, cache_size=2) as svc:
            for jobs, k in corpus:
                svc.solve(SolveRequest(jobs, k))
            stats = svc.stats()
        assert stats.evictions == 2 and stats.cache_size == 2

    def test_submit_validates_in_caller_thread(self):
        jobs, _ = _corpus(1)[0]
        with SolverService(workers=1) as svc:
            with pytest.raises(ValueError):
                svc.submit(SolveRequest(jobs, -1))
            with pytest.raises(ValueError):
                svc.submit(SolveRequest(jobs, 1, machines=0))
            with pytest.raises(ValueError):
                svc.submit(SolveRequest(jobs, 1, method="nope"))
            assert svc.stats().requests == 0

    def test_closed_service_rejects_submissions(self):
        jobs, k = _corpus(1)[0]
        svc = SolverService(workers=1)
        svc.shutdown()
        with pytest.raises(ServiceClosed):
            svc.submit(SolveRequest(jobs, k))

    def test_tracer_collects_serve_counters_and_spans(self):
        from repro.obs.tracer import Tracer

        jobs, k = _corpus(1)[0]
        tracer = Tracer()
        with SolverService(workers=1, tracer=tracer) as svc:
            svc.solve(SolveRequest(jobs, k))
            svc.solve(SolveRequest(jobs, k))
        assert tracer.counters["serve.requests"] == 2
        assert tracer.counters["serve.misses"] == 1
        assert tracer.counters["serve.hits"] == 1
        roots = [s.name for s in tracer.roots]
        assert "serve.request" in roots


# ---------------------------------------------------------------------------
# the stress test (the tentpole's acceptance proof)
# ---------------------------------------------------------------------------

STRESS_THREADS = 16
STRESS_REQUESTS_PER_THREAD = 200
STRESS_CORPUS = 20


def test_stress_concurrent_clients():
    """16 threads x 200 requests over a 20-instance corpus: no deadlock,
    hit ratio > 0.8, coalescing observed, every certificate re-verifies."""
    corpus = _corpus(STRESS_CORPUS)
    direct = {
        request_key(jobs, k): solve_k_bounded(jobs, k) for jobs, k in corpus
    }

    warm = threading.Event()

    def first_solve_slowly(jobs_, k_, *, machines=1, method="auto", **kw):
        # Hold the very first cold solve open long enough for the barrier'd
        # clients to pile onto its key, making coalescing deterministic.
        result = solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)
        if not warm.is_set():
            time.sleep(0.2)
            warm.set()
        return result

    barrier = threading.Barrier(STRESS_THREADS)
    results = [None] * STRESS_THREADS
    errors = []

    with SolverService(workers=8, cache_size=64, solve_fn=first_solve_slowly) as svc:

        def client(tid: int) -> None:
            rng = Random(1000 + tid)
            mine = []
            try:
                barrier.wait(timeout=30)
                # Every client opens on corpus[0]: one leader, the rest
                # coalesce onto its in-flight future.
                jobs, k = corpus[0]
                mine.append((request_key(jobs, k), svc.solve(SolveRequest(jobs, k), timeout=60)))
                for _ in range(STRESS_REQUESTS_PER_THREAD - 1):
                    jobs, k = corpus[rng.randrange(len(corpus))]
                    mine.append((request_key(jobs, k), svc.solve(SolveRequest(jobs, k), timeout=60)))
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append((tid, exc))
            results[tid] = mine

        threads = [
            threading.Thread(target=client, args=(tid,), name=f"client-{tid}")
            for tid in range(STRESS_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        stuck = [t.name for t in threads if t.is_alive()]
        assert not stuck, f"deadlocked clients: {stuck}"
        assert not errors, f"client failures: {errors[:3]}"
        stats = svc.stats()

    total = STRESS_THREADS * STRESS_REQUESTS_PER_THREAD
    assert stats.requests == total
    assert stats.inflight == 0
    assert stats.errors == 0 and stats.degraded == 0

    # Cache effectiveness: with 20 unique keys over 3200 requests almost
    # everything must be served from cache.
    hit_ratio = stats.hits / stats.requests
    assert hit_ratio > 0.8, f"hit ratio {hit_ratio:.3f} (stats: {stats})"

    # Coalescing must actually have happened (the opening pile-up guarantees
    # concurrent duplicates while corpus[0]'s leader is still in flight).
    assert stats.coalesced > 0, f"no coalesced requests (stats: {stats})"
    assert stats.hits + stats.misses + stats.coalesced == total

    # Every answer matches the direct solve and re-verifies its certificate.
    seen_keys = set()
    for mine in results:
        assert mine is not None
        for key, result in mine:
            assert result.value == direct[key].value, key
            assert not result.degraded
            if key not in seen_keys:
                seen_keys.add(key)
                k = next(kk for jobs, kk in corpus if request_key(jobs, kk) == key)
                verify_schedule(result.schedule, k=k).assert_ok()
    assert seen_keys == set(direct)


# ---------------------------------------------------------------------------
# the SolveRequest surface (PR 7 redesign)
# ---------------------------------------------------------------------------


class TestSolveRequestSurface:
    """The single-value-object API: every entry point takes SolveRequests."""

    @pytest.fixture
    def jobs(self):
        return JobSet([Job(0, 0, 10, 3), Job(1, 1, 6, 2), Job(2, 2, 9, 4)])

    def test_solve_request_form_is_silent_and_agrees_with_direct(self, jobs):
        import warnings

        req = SolveRequest(jobs=jobs, k=1)
        with SolverService(workers=1) as svc:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = svc.solve(req)
            assert [w for w in caught if issubclass(w.category, DeprecationWarning)] == []
        assert result.value == solve_k_bounded(jobs, 1).value

    def test_non_request_argument_raises(self, jobs):
        with SolverService(workers=1) as svc:
            with pytest.raises(TypeError):
                svc.submit(jobs)
            with pytest.raises(TypeError):
                svc.solve(jobs)
            assert svc.stats().requests == 0

    def test_extra_args_alongside_request_raise(self, jobs):
        req = SolveRequest(jobs=jobs, k=1)
        with SolverService(workers=1) as svc:
            with pytest.raises(TypeError):
                svc.submit(req, 2)
            with pytest.raises(TypeError):
                svc.solve(req, deadline_ms=50.0)

    def test_validation_happens_in_request_construction(self, jobs):
        with pytest.raises(ValueError):
            SolveRequest(jobs=jobs, k=-1)
        with pytest.raises(ValueError):
            SolveRequest(jobs=jobs, k=1, machines=0)

    def test_service_signature_snapshot(self):
        import inspect

        def names(fn):
            return list(inspect.signature(fn).parameters)

        assert names(SolverService.submit) == ["self", "request"]
        assert names(SolverService.solve) == ["self", "request", "timeout"]
        timeout = inspect.signature(SolverService.solve).parameters["timeout"]
        assert timeout.kind is inspect.Parameter.KEYWORD_ONLY
        assert timeout.default is None


class TestServiceStats:
    def test_stats_is_a_frozen_dataclass(self):
        from dataclasses import FrozenInstanceError

        from repro.serve import ServiceStats

        jobs = JobSet([Job(0, 0, 10, 3)])
        with SolverService(workers=1) as svc:
            svc.solve(SolveRequest(jobs=jobs, k=1))
            stats = svc.stats()
        assert isinstance(stats, ServiceStats)
        assert stats.requests == 1
        with pytest.raises(TypeError):
            stats["requests"]
        with pytest.raises(FrozenInstanceError):
            stats.requests = 5
        as_dict = stats.as_dict()
        assert as_dict["requests"] == 1
        assert set(as_dict) == set(ServiceStats().as_dict())

    def test_aggregate_sums_fieldwise(self):
        from repro.serve import ServiceStats

        a = ServiceStats(requests=3, hits=1, cache_size=2)
        b = ServiceStats(requests=5, misses=4, cache_size=7, inflight=1)
        total = ServiceStats.aggregate([a, b])
        assert total.requests == 8
        assert total.hits == 1
        assert total.misses == 4
        assert total.cache_size == 9
        assert total.inflight == 1
        assert ServiceStats.aggregate([]) == ServiceStats()
