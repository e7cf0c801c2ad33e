"""Chaos test: SIGKILL a real shard worker under concurrent load.

This is the end-to-end resilience proof the inline supervisor tests in
``tests/test_gateway.py`` cannot give: a genuine forked worker process is
killed via the ``gateway.kill_shard`` fault while clients keep arriving
over real sockets.  The supervisor must detect the death, restart the
shard, and — the only invariant that matters — **no client may receive a
wrong answer**: every 200 is re-checked against a direct solve, every
non-200 must be a clean 503, and the store-backed replacement must serve
a held-out repeat from its re-warmed ``shard-NN`` store.
"""

import asyncio
import itertools
import tempfile

import pytest

from repro.api import SolveRequest, SolveResult, solve_k_bounded
from repro.gateway import Gateway
from repro.gateway.bench import _http_json
from repro.instances import random_jobs
from repro.scheduling.io import schedule_to_dict
from repro.utils import faults


def _requests(count, n=8, seed=900, k=1):
    return [
        SolveRequest(jobs=random_jobs(n, seed=seed + i), k=k) for i in range(count)
    ]


#: The supervisor always kills the highest-index healthy shard.
_VICTIM = 1


class TestGatewayChaos:
    def test_sigkill_under_load_recovers_without_wrong_answers(self):
        reqs = _requests(10)
        expected = {
            req.canonical_key(): solve_k_bounded(req.jobs, k=req.k).value
            for req in reqs
        }

        async def scenario(store_dir):
            gateway = Gateway(
                shards=2,
                store_dir=store_dir,
                # prewarm off so the post-restart hold-out provably comes
                # off the shard's disk store (served.store_hit), not a
                # prewarmed LRU.
                service_kwargs={"workers": 1, "prewarm": False},
                # The first restart attempt waits out a 0.1 s backoff, so the
                # outage lasts long enough that the load surely meets it.
                supervisor_kwargs=dict(
                    interval_s=0.05,
                    ping_timeout_s=0.5,
                    backoff_base_s=0.1,
                    backoff_max_s=0.1,
                ),
            )
            async with gateway:
                host, port = "127.0.0.1", gateway.port
                # Warm every instance: populates shard caches AND the
                # per-shard stores the restarted worker will recover from.
                for req in reqs:
                    status, payload = await _http_json(
                        host, port, "POST", "/v1/solve", req.to_wire()
                    )
                    assert status == 200
                # Hold out one key owned by the victim shard: it must not
                # be requested again until after the restart, so serving
                # it then proves store recovery rather than a re-solve.
                victims = [
                    r for r in reqs if gateway.shard_for(r) == _VICTIM
                ]
                assert victims, "corpus must cover the victim shard"
                hold_out = victims[0]
                load_reqs = [r for r in reqs if r is not hold_out]

                # The gateway answers warmed repeats itself, so three in
                # four load requests are instances never sent before: they
                # must reach their shard, and so meet the kill.
                fresh = (
                    SolveRequest(jobs=random_jobs(8, seed=5000 + i), k=1)
                    for i in itertools.count()
                )
                statuses = []
                answers = []
                stop = asyncio.Event()

                async def client(offset):
                    step = 0
                    while not stop.is_set():
                        if step % 4 == 3:
                            req = load_reqs[(offset + step) % len(load_reqs)]
                        else:
                            req = next(fresh)
                        step += 1
                        try:
                            status, payload = await _http_json(
                                host, port, "POST", "/v1/solve", req.to_wire()
                            )
                        except (ConnectionError, asyncio.IncompleteReadError):
                            status, payload = -1, {}
                        statuses.append(status)
                        if status == 200:
                            served = SolveResult.from_wire(payload["result"])
                            answers.append((req, served.value))
                        await asyncio.sleep(0.01)

                clients = [asyncio.ensure_future(client(i)) for i in range(4)]
                await asyncio.sleep(0.3)
                with faults.inject("gateway.kill_shard"):
                    # Held through several supervisor sweeps; the fault is
                    # one-shot per arming, so exactly one worker dies.
                    await asyncio.sleep(0.5)
                # Wait for the fleet to heal while load continues.
                # Generous: a replacement fork can wedge on an inherited
                # lock (the parent test process is multi-threaded), and one
                # bounded kill-and-refork cycle costs up to ~10s.
                deadline = asyncio.get_event_loop().time() + 30.0
                while asyncio.get_event_loop().time() < deadline:
                    stats = await gateway.fleet_stats()
                    if (
                        gateway.counters["shard_restarts"] >= 1
                        and not any(stats["down"])
                    ):
                        break
                    await asyncio.sleep(0.05)
                stop.set()
                await asyncio.gather(*clients)

                # The held-out repeat is served by the restarted worker
                # from its re-warmed store — same value, no re-solve.  The
                # gateway keeps the warm-up answer too, so the probe takes
                # the shard hop itself to reach the worker.
                owner = gateway.shard_for(hold_out)
                assert owner == _VICTIM
                probed = SolveResult.from_wire(
                    await gateway._dispatch(owner, hold_out.to_wire())
                )
                assert probed.value == expected[hold_out.canonical_key()]
                assert probed.metrics.get("served.store_hit")
                # Over HTTP the same key gets the same answer, on the same
                # route.
                status, payload = await _http_json(
                    host, port, "POST", "/v1/solve", hold_out.to_wire()
                )
                assert status == 200
                assert payload["shard"] == owner
                served = SolveResult.from_wire(payload["result"])
                assert served.value == probed.value
                assert served.preemptions_used == probed.preemptions_used
                assert schedule_to_dict(served.schedule) == schedule_to_dict(
                    probed.schedule
                )

                stats = await gateway.fleet_stats()
            return statuses, answers, stats

        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as store_dir:
            statuses, answers, stats = asyncio.run(scenario(store_dir))

        for req, value in answers:
            key = req.canonical_key()
            if key not in expected:
                expected[key] = solve_k_bounded(req.jobs, k=req.k).value
        wrong = [
            req.canonical_key()
            for req, value in answers
            if value != expected[req.canonical_key()]
        ]
        assert wrong == []  # zero wrong answers, the chaos contract
        assert statuses, "load generator never ran"
        # The kill met requests: some reached the dead or restarting shard
        # and took the in-gateway failover path.
        assert stats["gateway"]["failovers"] >= 1
        # During the outage the only acceptable degradation is a clean
        # 503 from the failover path — never a raw transport error.
        assert set(statuses) <= {200, 503}
        assert statuses.count(200) > 0
        assert stats["gateway"]["shard_restarts"] == 1
        incidents = stats["supervisor"]["incidents"]
        assert len(incidents) == 1
        assert incidents[0]["shard"] == _VICTIM
        assert incidents[0]["recovered"] is True
        assert incidents[0]["recovery_ms"] > 0
        assert stats["down"] == [False, False]
        kills = stats["supervisor"]["chaos_actions"]
        assert kills == [{"fault": "gateway.kill_shard", "shard": _VICTIM}]

    def test_drop_link_is_detected_and_healed(self):
        req = _requests(1, seed=950)[0]

        async def scenario():
            gateway = Gateway(
                shards=2,
                service_kwargs={"workers": 1},
                supervisor_kwargs=dict(
                    interval_s=0.05,
                    ping_timeout_s=0.5,
                    backoff_base_s=0.02,
                    backoff_max_s=0.1,
                ),
            )
            async with gateway:
                host, port = "127.0.0.1", gateway.port
                status, first = await _http_json(
                    host, port, "POST", "/v1/solve", req.to_wire()
                )
                assert status == 200
                with faults.inject("gateway.drop_link"):
                    await asyncio.sleep(0.3)
                # Generous: a replacement fork can wedge on an inherited
                # lock (the parent test process is multi-threaded), and one
                # bounded kill-and-refork cycle costs up to ~10s.
                deadline = asyncio.get_event_loop().time() + 30.0
                while asyncio.get_event_loop().time() < deadline:
                    stats = await gateway.fleet_stats()
                    if (
                        gateway.counters["shard_restarts"] >= 1
                        and not any(stats["down"])
                    ):
                        break
                    await asyncio.sleep(0.05)
                # The gateway keeps the first answer, so the probe takes the
                # hop to the dropped shard itself to prove its link healed.
                probe = await gateway._dispatch(_VICTIM, req.to_wire())
                status, second = await _http_json(
                    host, port, "POST", "/v1/solve", req.to_wire()
                )
                stats = await gateway.fleet_stats()
            return first, probe, (status, second), stats

        first, probe, (status, second), stats = asyncio.run(scenario())
        value = SolveResult.from_wire(first["result"]).value
        assert SolveResult.from_wire(probe).value == value
        assert status == 200
        assert SolveResult.from_wire(second["result"]).value == value
        assert stats["gateway"]["shard_restarts"] >= 1
        assert stats["supervisor"]["incidents"]
        assert stats["down"] == [False, False]

    def test_slow_ping_declares_wedged_shard_down(self):
        async def scenario():
            gateway = Gateway(
                shards=1,
                service_kwargs={"workers": 1},
                supervisor_kwargs=dict(
                    interval_s=0.05,
                    ping_timeout_s=0.1,
                    max_ping_failures=2,
                    backoff_base_s=0.02,
                    backoff_max_s=0.1,
                ),
            )
            async with gateway:
                with faults.inject("gateway.slow_ping"):
                    deadline = asyncio.get_event_loop().time() + 10.0
                    while asyncio.get_event_loop().time() < deadline:
                        if gateway.supervisor.incidents:
                            break
                        await asyncio.sleep(0.05)
                # Fault disarmed: probes answer promptly again, so the
                # restart (or the next one) completes and the fleet heals.
                # Generous: a replacement fork can wedge on an inherited
                # lock (the parent test process is multi-threaded), and one
                # bounded kill-and-refork cycle costs up to ~10s.
                deadline = asyncio.get_event_loop().time() + 30.0
                while asyncio.get_event_loop().time() < deadline:
                    stats = await gateway.fleet_stats()
                    if gateway.counters["shard_restarts"] >= 1 and not any(
                        stats["down"]
                    ):
                        break
                    await asyncio.sleep(0.05)
                stats = await gateway.fleet_stats()
            return stats

        stats = asyncio.run(scenario())
        incidents = stats["supervisor"]["incidents"]
        assert incidents
        assert "ping timeouts" in incidents[0]["reason"]
        assert stats["gateway"]["shard_restarts"] >= 1
        assert stats["down"] == [False]
