"""Tests for the sharded asyncio gateway (`repro.gateway`).

Most tests drive :meth:`Gateway.handle_solve` directly or the real HTTP
server over inline (in-process) shards — the full wire codec, routing,
admission and quota paths without forking.  One end-to-end
test runs a real two-process shard fleet.
"""

import asyncio
import json
import threading
import warnings

import pytest

from repro.api import SolveRequest, SolveResult, solve_k_bounded
from repro.gateway import (
    Gateway,
    HashRing,
    InlineShard,
    QuotaManager,
    ShardError,
    ShardLink,
    TokenBucket,
    ring_shard_for_key,
)
from repro.gateway.bench import (
    ConnectionPool,
    _http_json,
    _http_json_full,
    run_gateway_bench,
)
from repro.gateway.core import MAX_BODY_BYTES, MAX_HEADER_LINES, AnswerCache
from repro.instances import random_jobs


def _requests(count, n=8, seed=100, k=1):
    return [
        SolveRequest(jobs=random_jobs(n, seed=seed + i), k=k) for i in range(count)
    ]


def _run(coro):
    return asyncio.run(coro)


def _inline_factory(**service_kwargs):
    service_kwargs.setdefault("workers", 1)
    return lambda index: InlineShard(**service_kwargs)


# ---------------------------------------------------------------------------
# routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_deterministic_and_in_range(self):
        for req in _requests(20):
            key = req.canonical_key()
            for shards in (1, 2, 3, 8):
                first = ring_shard_for_key(key, shards)
                assert 0 <= first < shards
                assert HashRing(shards).shard_for(key) == first

    def test_permuted_instance_same_shard(self):
        req = _requests(1)[0]
        from repro.scheduling.job import JobSet

        twin = SolveRequest(jobs=JobSet(tuple(reversed(req.jobs.jobs))), k=req.k)
        assert ring_shard_for_key(twin.canonical_key(), 4) == ring_shard_for_key(
            req.canonical_key(), 4
        )

    def test_spreads_over_shards(self):
        # 40 random keys over 2 shards: both sides must be populated.
        ring = HashRing(2)
        assignments = {ring.shard_for(r.canonical_key()) for r in _requests(40)}
        assert assignments == {0, 1}

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            ring_shard_for_key("short", 2)


# ---------------------------------------------------------------------------
# quotas
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_deny_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: now[0])
        assert bucket.try_acquire() == (True, 0.0)
        assert bucket.try_acquire() == (True, 0.0)
        ok, retry_after = bucket.try_acquire()
        assert not ok and retry_after == pytest.approx(1.0)
        now[0] += 1.0
        assert bucket.try_acquire()[0]

    def test_refill_caps_at_burst(self):
        now = [0.0]
        bucket = TokenBucket(rate=100.0, burst=3, clock=lambda: now[0])
        now[0] += 60.0
        for _ in range(3):
            assert bucket.try_acquire()[0]
        assert not bucket.try_acquire()[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)

    def test_manager_isolates_tenants_and_disables(self):
        now = [0.0]
        quota = QuotaManager(1.0, 1, clock=lambda: now[0])
        assert quota.check("a")[0]
        assert not quota.check("a")[0]
        assert quota.check("b")[0]  # fresh tenant, fresh bucket
        unlimited = QuotaManager(None)
        assert all(unlimited.check("a")[0] for _ in range(100))


# ---------------------------------------------------------------------------
# gateway over inline shards
# ---------------------------------------------------------------------------


class TestGatewayInline:
    def test_solve_routes_to_hashed_shard_and_hits_cache(self):
        async def scenario():
            gateway = Gateway(shards=2, shard_factory=_inline_factory())
            async with gateway:
                outcomes = []
                for req in _requests(6):
                    status, payload, _ = await gateway.handle_solve(req.to_wire())
                    repeat_status, repeat_payload, _ = await gateway.handle_solve(
                        req.to_wire()
                    )
                    outcomes.append(
                        (req, status, payload, repeat_status, repeat_payload)
                    )
                stats = await gateway.fleet_stats()
            return outcomes, stats

        outcomes, stats = _run(scenario())
        for req, status, payload, repeat_status, repeat_payload in outcomes:
            assert status == 200 and repeat_status == 200
            expected = HashRing(2).shard_for(req.canonical_key())
            assert payload["shard"] == expected
            assert repeat_payload["shard"] == expected
            served = SolveResult.from_wire(payload["result"])
            direct = solve_k_bounded(req.jobs, k=req.k)
            assert served.value == direct.value
            assert SolveResult.from_wire(repeat_payload["result"]).metrics.get(
                "served.hit"
            )
        # Every repeat hit a cache: the gateway's answer cache or, failing
        # that, the owning shard's LRU.
        assert stats["fleet"]["hits"] + stats["gateway"]["answer_hits"] >= 6
        assert stats["gateway"]["admitted"] == 12
        assert stats["gateway"]["sharded"] == 12

    def test_admitted_requests_reach_the_shard_at_once_as_solve_ops(self):
        """Each admitted request is its own ``solve`` op, sent the moment it
        is admitted: four concurrent requests to one shard are all in
        flight after a single event-loop turn, with no timer in between."""

        class GatedShard(InlineShard):
            def __init__(self):
                super().__init__(workers=1)
                self.ops = []
                self.gate = asyncio.Event()

            async def call(self, op, **payload):
                self.ops.append(op)
                await self.gate.wait()
                return await super().call(op, **payload)

        async def scenario():
            shard = GatedShard()
            gateway = Gateway(shards=1, shard_factory=lambda index: shard, supervise=False)
            async with gateway:
                reqs = _requests(4, seed=300)
                pending = [
                    asyncio.ensure_future(gateway.handle_solve(r.to_wire()))
                    for r in reqs
                ]
                await asyncio.sleep(0)
                in_flight = list(shard.ops)
                shard.gate.set()
                results = await asyncio.gather(*pending)
            return reqs, in_flight, results

        reqs, in_flight, results = _run(scenario())
        assert in_flight == ["solve"] * 4
        for req, (status, payload, _) in zip(reqs, results):
            assert status == 200
            served = SolveResult.from_wire(payload["result"])
            assert served.value == solve_k_bounded(req.jobs, k=req.k).value

    def test_quota_denial_is_429_with_retry_after(self):
        async def scenario():
            now = [0.0]
            gateway = Gateway(
                shards=2,
                shard_factory=_inline_factory(),
                quota_rate=1.0,
                quota_burst=2,
                clock=lambda: now[0],
            )
            async with gateway:
                req = _requests(1)[0]
                statuses = []
                headers_seen = []
                for _ in range(3):
                    status, _payload, headers = await gateway.handle_solve(
                        req.to_wire(), tenant="team-a"
                    )
                    statuses.append(status)
                    headers_seen.append(headers)
                # A different tenant has its own untouched bucket.
                other_status, _, _ = await gateway.handle_solve(
                    req.to_wire(), tenant="team-b"
                )
                counters = dict(gateway.counters)
            return statuses, headers_seen, other_status, counters

        statuses, headers_seen, other_status, counters = _run(scenario())
        assert statuses == [200, 200, 429]
        assert int(headers_seen[2]["Retry-After"]) >= 1
        assert other_status == 200
        assert counters["quota_denied"] == 1
        # Quota rejections happen before routing: only admitted requests shard.
        assert counters["sharded"] == 3
        assert counters["admitted"] == 3
        # ... and before the answer cache: the denied third request's
        # answer was cached, yet it got a 429.
        assert counters["answer_hits"] == 2

    def test_saturated_shard_backpressures_with_429(self):
        class StuckShard:
            """A shard whose solves block until released."""

            def __init__(self):
                self.release = asyncio.Event()

            async def start(self):
                pass

            async def call(self, op, **payload):
                if op == "solve":
                    await self.release.wait()
                return {"ok": True, "result": None}

            async def stop(self):
                self.release.set()

        async def scenario():
            stuck = StuckShard()
            gateway = Gateway(
                shards=1,
                shard_factory=lambda index: stuck,
                max_inflight_per_shard=1,
            )
            async with gateway:
                req = _requests(1)[0]
                first = asyncio.ensure_future(gateway.handle_solve(req.to_wire()))
                await asyncio.sleep(0.05)  # let it occupy the shard
                status, payload, headers = await gateway.handle_solve(req.to_wire())
                stuck.release.set()
                await first
                counters = dict(gateway.counters)
            return status, payload, headers, counters

        status, payload, headers, counters = _run(scenario())
        assert status == 429
        assert payload["error"] == "shard saturated"
        assert headers["Retry-After"] == "1"
        assert counters["rejected"] == 1

    def test_saturation_retry_after_is_configurable_and_aligned(self):
        """Both 429 paths share one Retry-After convention; the saturation
        hint is configurable instead of a hardcoded "1".  (Regression: the
        two rejection paths used to format their headers independently —
        the quota path computed delta-seconds while saturation pinned a
        literal, and no knob could tell clients how long a saturated shard
        expects to stay busy.)"""

        class StuckShard:
            def __init__(self):
                self.release = asyncio.Event()

            async def start(self):
                pass

            async def call(self, op, **payload):
                if op == "solve":
                    await self.release.wait()
                return {"ok": True, "result": None}

            async def stop(self):
                self.release.set()

        async def scenario():
            stuck = StuckShard()
            gateway = Gateway(
                shards=1,
                shard_factory=lambda index: stuck,
                max_inflight_per_shard=1,
                saturation_retry_after_s=3.2,
            )
            async with gateway:
                req = _requests(1)[0]
                first = asyncio.ensure_future(gateway.handle_solve(req.to_wire()))
                await asyncio.sleep(0.05)
                status, _payload, headers = await gateway.handle_solve(req.to_wire())
                stuck.release.set()
                await first
            return status, headers

        status, headers = _run(scenario())
        assert status == 429
        # One convention for both paths: ceil to whole delta-seconds.
        assert headers["Retry-After"] == "4"

    def test_saturation_retry_after_validation(self):
        with pytest.raises(ValueError, match="saturation_retry_after_s"):
            Gateway(shards=1, saturation_retry_after_s=0)

    def test_http_429s_carry_retry_after_on_both_paths(self):
        """Over real sockets, quota and saturation rejections both emit the
        Retry-After header (the in-process handle_solve tests can't prove
        the HTTP layer actually writes the extra headers out)."""

        class StuckShard:
            def __init__(self):
                self.release = asyncio.Event()

            async def start(self):
                pass

            async def call(self, op, **payload):
                if op == "solve":
                    await self.release.wait()
                return {"ok": True, "result": None}

            async def stop(self):
                self.release.set()

        async def scenario():
            req = _requests(1)[0]
            # Quota path: burst of 1, second request from the tenant denied.
            now = [0.0]
            quota_gw = Gateway(
                shards=1,
                shard_factory=_inline_factory(),
                quota_rate=0.5,
                quota_burst=1,
                clock=lambda: now[0],
            )
            async with quota_gw:
                host, port = "127.0.0.1", quota_gw.port
                await _http_json_full(host, port, "POST", "/v1/solve", req.to_wire())
                quota = await _http_json_full(
                    host, port, "POST", "/v1/solve", req.to_wire()
                )
            # Saturation path: one stuck shard, inflight bound of 1.
            stuck = StuckShard()
            sat_gw = Gateway(
                shards=1,
                shard_factory=lambda index: stuck,
                max_inflight_per_shard=1,
                saturation_retry_after_s=2.5,
            )
            async with sat_gw:
                host, port = "127.0.0.1", sat_gw.port
                blocked = asyncio.ensure_future(
                    _http_json_full(host, port, "POST", "/v1/solve", req.to_wire())
                )
                await asyncio.sleep(0.05)
                saturated = await _http_json_full(
                    host, port, "POST", "/v1/solve", req.to_wire()
                )
                stuck.release.set()
                await blocked
            return quota, saturated

        quota, saturated = _run(scenario())
        q_status, q_payload, q_headers = quota
        s_status, s_payload, s_headers = saturated
        assert q_status == 429 and q_payload["error"] == "tenant quota exhausted"
        assert int(q_headers["retry-after"]) >= 1
        assert s_status == 429 and s_payload["error"] == "shard saturated"
        assert s_headers["retry-after"] == "3"  # ceil(2.5), the shared rule

    def test_bad_wire_document_is_400(self):
        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                return [
                    await gateway.handle_solve({"format": "nope"}),
                    await gateway.handle_solve({"format": "repro-wire/1", "kind": "solve_request"}),
                ]

        for status, payload, _ in _run(scenario()):
            assert status == 400
            assert "error" in payload

    def test_shard_side_validation_error_maps_to_400(self):
        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                doc = _requests(1)[0].to_wire()
                doc["k"] = 10**6  # passes SolveRequest, fails solver-side cap
                return await gateway.handle_solve(doc)

        status, payload, _ = _run(scenario())
        assert status in (200, 400)  # large k may be legal; must not be a 502

    def test_http_surface_end_to_end(self):
        async def scenario():
            gateway = Gateway(shards=2, shard_factory=_inline_factory())
            async with gateway:
                host, port = "127.0.0.1", gateway.port
                req = _requests(1)[0]
                solve = await _http_json(host, port, "POST", "/v1/solve", req.to_wire())
                tenant = await _http_json(
                    host, port, "POST", "/v1/solve", req.to_wire(),
                    headers={"X-Tenant": "team-a"},
                )
                stats = await _http_json(host, port, "GET", "/v1/stats")
                health = await _http_json(host, port, "GET", "/v1/healthz")
                missing = await _http_json(host, port, "GET", "/nope")
                bad_json = await _http_json(host, port, "POST", "/v1/solve", None)
                return req, solve, tenant, stats, health, missing, bad_json

        req, solve, tenant, stats, health, missing, bad_json = _run(scenario())
        status, payload = solve
        assert status == 200
        assert payload["format"] == "repro-wire/1"
        assert payload["kind"] == "solve_response"
        assert payload["shard"] == HashRing(2).shard_for(req.canonical_key())
        assert tenant[0] == 200
        # The repeat is answered by the gateway, never reaching a shard.
        assert stats[0] == 200
        assert stats[1]["fleet"]["requests"] + stats[1]["gateway"]["answer_hits"] == 2
        for counter in ("shard_restarts", "failovers", "ring_moves"):
            assert stats[1]["gateway"][counter] == 0  # present from day one
        assert stats[1]["supervisor"]["running"] is True
        assert health == (200, {"status": "ok", "shards": 2})
        assert missing[0] == 404
        assert bad_json[0] == 400

    def test_inline_shard_surfaces_service_errors(self):
        async def scenario():
            shard = InlineShard(workers=1)
            try:
                with pytest.raises(ShardError) as excinfo:
                    await shard.call("solve", request={"format": "nope"})
                assert excinfo.value.is_client_error
                with pytest.raises(ShardError):
                    await shard.call("frobnicate")
            finally:
                await shard.stop()

        _run(scenario())


# ---------------------------------------------------------------------------
# malformed Content-Length over raw sockets (regression)
# ---------------------------------------------------------------------------


async def _raw_exchange(port, head):
    """Send raw request bytes; read the reply until the gateway closes."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(head)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), 5.0)
    finally:
        writer.close()


class TestContentLength:
    """Regression: ``Content-Length: abc`` and ``-5`` crashed the connection
    handler with an unhandled ``ValueError``, and ``99999999999`` with no
    body held the connection open with no reply.  Each now gets a typed
    JSON error and a closed connection, and the gateway keeps serving."""

    @pytest.mark.parametrize(
        "length, status",
        [
            ("abc", 400),
            ("-5", 400),
            ("1.5", 400),
            ("99999999999", 413),
            (str(MAX_BODY_BYTES + 1), 413),
            ("9" * 5000, 413),
        ],
        ids=["letters", "negative", "fraction", "huge", "cap-plus-one", "5000-digits"],
    )
    def test_bad_length_gets_typed_reply_and_close(self, length, status):
        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                head = (
                    f"POST /v1/solve HTTP/1.1\r\nContent-Length: {length}\r\n\r\n"
                ).encode()
                raw = await _raw_exchange(gateway.port, head)
                after = await _http_json(
                    "127.0.0.1", gateway.port, "POST", "/v1/solve",
                    _requests(1)[0].to_wire(),
                )
            return raw, after

        raw, after = _run(scenario())
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        assert lines[0].split(" ")[1] == str(status)
        assert "Connection: close" in lines
        assert "error" in json.loads(body)
        assert after[0] == 200


class TestLongLines:
    """Regression: a request line or header line past asyncio's 64 KiB
    ``readline`` limit raised ``ValueError`` out of the connection handler
    ("Unhandled exception in client_connected_cb") and the socket closed
    with no reply.  Each now gets a 431 and a closed connection."""

    @pytest.mark.parametrize(
        "head",
        [
            b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        ],
        ids=["header-line", "request-line"],
    )
    def test_long_line_gets_431_and_close(self, head, caplog):
        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                raw = await _raw_exchange(gateway.port, head)
                after = await _http_json(
                    "127.0.0.1", gateway.port, "POST", "/v1/solve",
                    _requests(1)[0].to_wire(),
                )
            return raw, after

        with caplog.at_level("ERROR", logger="asyncio"):
            raw, after = _run(scenario())
        head_part, _, body = raw.partition(b"\r\n\r\n")
        lines = head_part.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 431 Request Header Fields Too Large"
        assert "Connection: close" in lines
        assert "error" in json.loads(body)
        assert after[0] == 200
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestHeaderCount:
    """Regression: the header loop had no cap, so a client could stream
    header lines without end and hold the handler.  The first line past
    ``MAX_HEADER_LINES`` now gets a 431 and a closed connection."""

    def test_header_line_past_cap_gets_431_and_close(self):
        head = b"GET /v1/healthz HTTP/1.1\r\n" + b"X-Pad: a\r\n" * (MAX_HEADER_LINES + 1)

        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                # No blank line follows: the reply must not wait for one.
                raw = await _raw_exchange(gateway.port, head)
                after = await _http_json("127.0.0.1", gateway.port, "GET", "/v1/healthz")
            return raw, after

        raw, after = _run(scenario())
        head_part, _, body = raw.partition(b"\r\n\r\n")
        lines = head_part.decode("latin-1").split("\r\n")
        assert lines[0] == "HTTP/1.1 431 Request Header Fields Too Large"
        assert "Connection: close" in lines
        assert str(MAX_HEADER_LINES) in json.loads(body)["error"]
        assert after[0] == 200

    def test_header_lines_at_cap_are_served(self):
        head = (
            b"GET /v1/healthz HTTP/1.1\r\n"
            + b"X-Pad: a\r\n" * (MAX_HEADER_LINES - 1)
            + b"Connection: close\r\n\r\n"
        )

        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                return await _raw_exchange(gateway.port, head)

        assert _run(scenario()).startswith(b"HTTP/1.1 200 ")


class TestNonFiniteNumbers:
    """Regression: a job coordinate or value of ``Infinity`` crashed the
    handler with an ``OverflowError`` (the client read ``b''``), and
    ``value: NaN`` raised ``ValueError`` while routing, outside the 400
    mapping.  ``Job`` now rejects non-finite numbers at construction, so
    every case is a typed 400."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("field", ["release", "deadline", "length", "value"])
    def test_non_finite_number_gets_400(self, field, token):
        doc = _requests(1)[0].to_wire()
        doc["jobs"]["jobs"][0][field] = float(token.replace("Infinity", "inf"))
        body = json.dumps(doc).encode()
        assert token.encode() in body
        head = (
            "POST /v1/solve HTTP/1.1\r\n"
            f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
        ).encode()

        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                return await _raw_exchange(gateway.port, head + body)

        raw = _run(scenario())
        head_part, _, reply = raw.partition(b"\r\n\r\n")
        assert head_part.startswith(b"HTTP/1.1 400 "), raw[:200]
        assert "error" in json.loads(reply)

    @pytest.mark.parametrize(
        "path, token",
        [(("k",), "Infinity"), (("machines",), "Infinity"),
         (("deadline_ms",), "NaN"), (("jobs", "jobs", 0, "id"), "Infinity")],
        ids=["k-inf", "machines-inf", "deadline_ms-nan", "id-inf"],
    )
    def test_non_finite_request_field_gets_400(self, path, token):
        """``int(inf)`` raised ``OverflowError``, which the 400 mapping
        missed; a NaN ``deadline_ms`` passed validation."""
        doc = _requests(1)[0].to_wire()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = float(token.replace("Infinity", "inf"))

        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                return await gateway.handle_solve(doc)

        status, payload, _ = _run(scenario())
        assert status == 400
        assert "error" in payload


def _post_raw(doc):
    """A close-after-reply ``POST /v1/solve`` carrying ``doc``."""
    body = json.dumps(doc).encode()
    return (
        "POST /v1/solve HTTP/1.1\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode() + body


class TestNonIntegralNumbers:
    """Regression: ``k``, ``machines`` and a job ``id`` went through
    ``int()``, so ``k: 1.7`` was served as k=1 — and, with the answer
    cache keyed on the decoded request, would have shared k=1's cached
    answer.  A non-integral number or a bool is now a 400; an integral
    float is its int."""

    @pytest.mark.parametrize(
        "path, value",
        [(("k",), 1.7), (("k",), True), (("machines",), 1.5), (("machines",), True),
         (("jobs", "jobs", 0, "id"), 0.5), (("jobs", "jobs", 0, "id"), False)],
        ids=["k-1.7", "k-true", "machines-1.5", "machines-true", "id-0.5", "id-false"],
    )
    def test_non_integral_field_gets_400(self, path, value):
        doc = _requests(1)[0].to_wire()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value

        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                # The integral neighbour is cached first, so a truncating
                # decode would answer 200 from the cache.
                truncated = dict(_requests(1)[0].to_wire(), k=1, machines=1)
                await gateway.handle_solve(truncated)
                return await _raw_exchange(gateway.port, _post_raw(doc))

        raw = _run(scenario())
        head_part, _, reply = raw.partition(b"\r\n\r\n")
        assert head_part.startswith(b"HTTP/1.1 400 "), raw[:200]
        assert "must be an integer" in json.loads(reply)["error"]

    def test_integral_float_is_served_as_its_int(self):
        req = _requests(1, seed=130, k=2)[0]

        async def scenario():
            gateway = Gateway(shards=2, shard_factory=_inline_factory())
            async with gateway:
                host, port = "127.0.0.1", gateway.port
                as_float = await _http_json(
                    host, port, "POST", "/v1/solve", dict(req.to_wire(), k=2.0)
                )
                as_int = await _http_json(host, port, "POST", "/v1/solve", req.to_wire())
                return as_float, as_int, dict(gateway.counters)

        (s1, p1), (s2, p2), counters = _run(scenario())
        assert s1 == s2 == 200
        direct = solve_k_bounded(req.jobs, k=2).value
        assert SolveResult.from_wire(p1["result"]).value == direct
        assert SolveResult.from_wire(p2["result"]).value == direct
        assert counters["answer_hits"] == 1  # k=2.0 and k=2 share one key

    @pytest.mark.parametrize(
        "field, value",
        [("release", False), ("deadline", True), ("length", True), ("value", True)],
    )
    def test_bool_job_coordinate_gets_400_before_routing(self, field, value):
        # Regression: `"release": false` and `"length": true` were read as 0
        # and 1 and served a 200; `"value": true` was routed and solved, and
        # only the shard's result encode turned it into a 400.
        doc = _requests(1)[0].to_wire()
        doc["jobs"]["jobs"][0][field] = value

        async def scenario():
            shard = _CountingShard()
            async with _one_shard_gateway(shard) as gateway:
                raw = await _raw_exchange(gateway.port, _post_raw(doc))
                return raw, shard.solves, dict(gateway.counters)

        raw, solves, counters = _run(scenario())
        head_part, _, reply = raw.partition(b"\r\n\r\n")
        assert head_part.startswith(b"HTTP/1.1 400 "), raw[:200]
        assert f"{field} must be a real number, got bool" in json.loads(reply)["error"]
        assert solves == 0 and counters["sharded"] == 0


# ---------------------------------------------------------------------------
# the gateway's answer cache
# ---------------------------------------------------------------------------


class _CountingShard(InlineShard):
    """Inline shard that counts solve ops and can hold them at a gate."""

    def __init__(self, **service_kwargs):
        service_kwargs.setdefault("workers", 1)
        super().__init__(**service_kwargs)
        self.solves = 0
        self.gate = asyncio.Event()
        self.gate.set()

    async def call(self, op, **payload):
        if op == "solve":
            self.solves += 1
            await self.gate.wait()
        return await super().call(op, **payload)


def _one_shard_gateway(shard, **kwargs):
    return Gateway(shards=1, shard_factory=lambda index: shard, supervise=False, **kwargs)


class TestAnswerCache:
    def test_repeat_is_answered_without_a_shard_hop(self):
        req = _requests(1, seed=140)[0]

        async def scenario():
            shard = _CountingShard()
            async with _one_shard_gateway(shard) as gateway:
                first = await gateway.handle_solve(req.to_wire())
                raw = await _raw_exchange(gateway.port, _post_raw(req.to_wire()))
                repeat = await gateway.handle_solve(req.to_wire())
                stats = await gateway.fleet_stats()
            return shard.solves, first, raw, repeat, stats

        solves, (s1, p1, _), raw, (s2, p2, _), stats = _run(scenario())
        assert s1 == s2 == 200
        assert solves == 1
        assert stats["gateway"]["answer_hits"] == 2
        assert stats["answer_hits"] == [2]
        assert stats["fleet"]["requests"] == 1
        assert stats["gateway"]["admitted"] == stats["gateway"]["sharded"] == 3
        # The spliced body is byte for byte what encoding the payload gives.
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert body == json.dumps(p2).encode()
        first, repeat = SolveResult.from_wire(p1["result"]), SolveResult.from_wire(p2["result"])
        assert repeat.value == first.value
        assert repeat.metrics["served.hit"] == 1.0
        assert {k: v for k, v in repeat.metrics.items() if k != "served.hit"} == first.metrics

    def test_key_covers_k_machines_and_method(self):
        req = _requests(1, seed=145, n=10)[0]
        variants = [
            dict(req.to_wire(), k=1),
            dict(req.to_wire(), k=2),
            dict(req.to_wire(), k=2, method="reduction"),
            dict(req.to_wire(), k=2, machines=2),
        ]

        async def scenario():
            shard = _CountingShard()
            async with _one_shard_gateway(shard) as gateway:
                answers = [await gateway.handle_solve(doc) for doc in variants]
                return answers, shard.solves, gateway.counters["answer_hits"]

        answers, solves, hits = _run(scenario())
        assert solves == len(variants) and hits == 0
        for doc, (status, payload, _) in zip(variants, answers):
            assert status == 200
            direct = solve_k_bounded(
                req.jobs, doc["k"], machines=doc["machines"], method=doc["method"]
            )
            assert SolveResult.from_wire(payload["result"]).value == direct.value

    def test_store_hit_is_kept_as_a_plain_hit(self, tmp_path):
        req = _requests(1, seed=150)[0]
        store = str(tmp_path / "shard-00")

        async def scenario():
            async with _one_shard_gateway(InlineShard(workers=1, store_path=store)) as gw:
                await gw.handle_solve(req.to_wire())
            cold = InlineShard(workers=1, store_path=store, prewarm=False)
            async with _one_shard_gateway(cold) as gw:
                stored = await gw.handle_solve(req.to_wire())
                repeat = await gw.handle_solve(req.to_wire())
            return stored, repeat

        (_, stored, _), (_, repeat, _) = _run(scenario())
        assert SolveResult.from_wire(stored["result"]).metrics.get("served.store_hit")
        metrics = SolveResult.from_wire(repeat["result"]).metrics
        assert "served.store_hit" not in metrics and metrics["served.hit"] == 1.0

    def test_degraded_answer_is_never_replayed(self):
        req = _requests(1, seed=160)[0]
        release = threading.Event()

        def slow_full_pipeline(jobs, k, *, machines=1, method="auto", **kw):
            if method != "lsa":
                release.wait(10.0)
            return solve_k_bounded(jobs, k, machines=machines, method=method, **kw)

        async def scenario():
            shard = _CountingShard(solve_fn=slow_full_pipeline)
            async with _one_shard_gateway(shard) as gateway:
                try:
                    degraded = await gateway.handle_solve(
                        dict(req.to_wire(), deadline_ms=1.0)
                    )
                finally:
                    release.set()
                full = await gateway.handle_solve(req.to_wire())
                hits = gateway.counters["answer_hits"]
            return degraded, full, hits, shard.solves

        (_, degraded, _), (_, full, _), hits, solves = _run(scenario())
        assert SolveResult.from_wire(degraded["result"]).degraded
        assert not SolveResult.from_wire(full["result"]).degraded
        assert hits == 0 and solves == 2

    def test_reshard_answers_name_the_new_owner(self):
        reqs = _requests(12, seed=170)
        ring3 = HashRing(3)
        moved = [r for r in reqs if ring3.shard_for(r.canonical_key()) == 2]
        assert moved, "some key must move to the new shard"

        async def scenario():
            gateway = Gateway(shards=2, shard_factory=_inline_factory(), supervise=False)
            async with gateway:
                for req in reqs:
                    await gateway.handle_solve(req.to_wire())
                await gateway.reshard(3)
                after = [await gateway.handle_solve(r.to_wire()) for r in reqs]
                stats = await gateway.fleet_stats()
            return after, stats

        after, stats = _run(scenario())
        assert stats["gateway"]["answer_hits"] == len(reqs)
        assert stats["fleet"]["requests"] == len(reqs)  # only the first pass
        for req, (status, payload, _) in zip(reqs, after):
            assert status == 200
            assert payload["shard"] == ring3.shard_for(req.canonical_key())
        assert stats["answer_hits"][2] == len(moved)

    def test_cache_evicts_past_its_byte_budget(self, monkeypatch):
        reqs = _requests(6, seed=180)

        async def fill():
            shard = _CountingShard()
            async with _one_shard_gateway(shard) as gateway:
                for req in reqs:
                    await gateway.handle_solve(req.to_wire())
                cache = (await gateway.fleet_stats())["answer_cache"]
                solves = shard.solves
                await gateway.handle_solve(reqs[0].to_wire())
                await gateway.handle_solve(reqs[-1].to_wire())
                return cache, solves, shard.solves, gateway.counters["answer_hits"]

        whole, _, _, _ = _run(fill())
        assert whole["entries"] == len(reqs)
        # Half the bytes all six answers take: the oldest must go.
        budget = whole["bytes"] // 2
        monkeypatch.setattr("repro.gateway.core.ANSWER_CACHE_BYTES", budget)
        cache, solves, after, hits = _run(fill())
        assert solves == len(reqs)
        assert cache["budget"] == budget
        assert 0 < cache["bytes"] <= budget
        assert 0 < cache["entries"] < len(reqs)
        # The first request was evicted (a shard hop), the last one kept.
        assert after == solves + 1 and hits == 1

    def test_answer_cache_lru_accounting(self):
        cache = AnswerCache(30)
        cache.put("a", b"x" * 9)  # costs 10
        cache.put("b", b"x" * 9)
        cache.put("c", b"x" * 9)
        assert cache.get("a") == b"x" * 9  # refreshes a
        cache.put("d", b"x" * 9)  # evicts b, the least recently used
        assert cache.get("b") is None and cache.get("a") is not None
        assert (len(cache), cache.size) == (3, 30)
        cache.put("a", b"x")  # replacing an entry re-costs it
        assert cache.size == 22
        cache.put("huge", b"x" * 40)  # larger than the budget: not kept
        assert cache.get("huge") is None and cache.size == 22

    def test_hit_takes_no_inflight_slot(self):
        cached, other = _requests(2, seed=190)

        async def scenario():
            shard = _CountingShard()
            async with _one_shard_gateway(shard, max_inflight_per_shard=1) as gateway:
                await gateway.handle_solve(cached.to_wire())
                shard.gate.clear()
                blocked = asyncio.ensure_future(gateway.handle_solve(other.to_wire()))
                await asyncio.sleep(0.05)  # ``other`` now holds the only slot
                saturated = await gateway.handle_solve(other.to_wire())
                hit = await gateway.handle_solve(cached.to_wire())
                shard.gate.set()
                await blocked
            return saturated, hit

        (s_status, _, _), (h_status, _, _) = _run(scenario())
        assert s_status == 429
        assert h_status == 200


class TestDownShardAvailability:
    def test_cached_key_answers_while_its_shard_is_down(self):
        reqs = _requests(12, seed=200)
        ring = HashRing(2)

        async def scenario():
            gateway = Gateway(
                shards=2, shard_factory=_inline_factory(), supervise=False,
                failover_retry_s=0.1, failover_retry_after_s=2.0,
            )
            async with gateway:
                cached = reqs[0]
                owner = ring.shard_for(cached.canonical_key())
                uncached = next(
                    r for r in reqs[1:] if ring.shard_for(r.canonical_key()) == owner
                )
                await gateway.handle_solve(cached.to_wire())
                gateway._mark_down(owner)
                hit = await gateway.handle_solve(cached.to_wire())
                miss = await gateway.handle_solve(uncached.to_wire())
                counters = dict(gateway.counters)
            return owner, hit, miss, counters

        owner, (h_status, h_payload, _), miss, counters = _run(scenario())
        assert h_status == 200 and h_payload["shard"] == owner
        m_status, m_payload, m_headers = miss
        assert m_status == 503 and m_payload["error"] == "shard restarting"
        assert m_headers["Retry-After"] == "2"
        assert counters["answer_hits"] == 1 and counters["failovers"] == 1

    def test_reply_without_a_result_document_is_not_cached(self):
        class NoResultShard:
            solves = 0

            async def start(self):
                pass

            async def call(self, op, **payload):
                if op == "solve":
                    self.solves += 1
                return {"ok": True, "result": None}

            async def stop(self):
                pass

        req = _requests(1, seed=210)[0]

        async def scenario():
            shard = NoResultShard()
            async with _one_shard_gateway(shard) as gateway:
                answers = [await gateway.handle_solve(req.to_wire()) for _ in range(2)]
                return answers, shard.solves, gateway.counters["answer_hits"]

        answers, solves, hits = _run(scenario())
        assert [status for status, _, _ in answers] == [200, 200]
        assert solves == 2 and hits == 0


# ---------------------------------------------------------------------------
# real process fleet
# ---------------------------------------------------------------------------


class TestGatewayProcessFleet:
    def test_two_process_shards_end_to_end(self):
        async def scenario():
            gateway = Gateway(shards=2, service_kwargs={"workers": 1})
            async with gateway:
                host, port = "127.0.0.1", gateway.port
                reqs = _requests(4, seed=500)
                answers = []
                for _pass in range(2):
                    for req in reqs:
                        status, payload = await _http_json(
                            host, port, "POST", "/v1/solve", req.to_wire()
                        )
                        answers.append((req, status, payload))
                stats = await _http_json(host, port, "GET", "/v1/stats")
            return answers, stats

        answers, (stats_status, stats_payload) = _run(scenario())
        for req, status, payload in answers:
            assert status == 200
            assert payload["shard"] == HashRing(2).shard_for(req.canonical_key())
            served = SolveResult.from_wire(payload["result"])
            assert served.value == solve_k_bounded(req.jobs, k=req.k).value
        assert stats_status == 200
        # The whole second pass hit a cache (the gateway's or a shard's).
        fleet_hits = stats_payload["fleet"]["hits"]
        assert fleet_hits + stats_payload["gateway"]["answer_hits"] >= 4
        assert stats_payload["fleet"]["misses"] == 4


# ---------------------------------------------------------------------------
# the bench harness (inline mode: fast, forkless)
# ---------------------------------------------------------------------------


class TestGatewayBench:
    def test_quick_inline_bench_payload(self):
        payload = run_gateway_bench(
            shards=2,
            rps=40.0,
            duration_s=1.0,
            corpus=6,
            n=6,
            seed=7,
            inline=True,
        )
        assert payload["format"] == "repro-gateway-bench/1"
        assert payload["disagreements"] == 0
        assert payload["route_mismatches"] == 0
        assert payload["errors"] == 0
        assert payload["completed"] == payload["sent"]
        assert payload["p99_ms"] >= payload["p50_ms"] > 0
        # Some timed requests were never sent before, so they reached a
        # shard: its misses outnumber the corpus' first pass.
        assert payload["fresh"] > 0
        assert payload["fleet"]["misses"] > payload["params"]["corpus"]
        assert len(payload["per_shard"]) == 2
        assert all(s["hits"] + s["answer_hits"] > 0 for s in payload["per_shard"])
        assert payload["gateway"]["admitted"] > 0
        assert payload["gateway"]["quota_denied"] == 0
        assert payload["client_pool"]["reused"] > 0


# ---------------------------------------------------------------------------
# closed shard links (regression)
# ---------------------------------------------------------------------------


class TestShardLinkClosed:
    def test_call_after_read_loop_exit_fails_fast(self):
        """Regression: a call into a link whose read loop had exited used
        to write into the dead socket and await a reply that could never
        arrive (hanging forever); it must fail fast with ShardError."""

        async def scenario():
            async def hang_up(reader, writer):
                writer.close()

            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            link = ShardLink("127.0.0.1", port)
            await link.connect()
            for _ in range(200):
                if link.closed:
                    break
                await asyncio.sleep(0.01)
            assert link.closed
            loop = asyncio.get_event_loop()
            t0 = loop.time()
            with pytest.raises(ShardError, match="shard connection closed"):
                await asyncio.wait_for(link.call("ping"), 2.0)
            assert loop.time() - t0 < 1.0  # fail-fast, not a timeout
            await link.close()
            server.close()
            await server.wait_closed()

        _run(scenario())

    def test_inflight_call_fails_when_connection_drops(self):
        async def scenario():
            async def read_then_abort(reader, writer):
                await reader.readline()
                writer.transport.abort()

            server = await asyncio.start_server(read_then_abort, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            link = ShardLink("127.0.0.1", port)
            await link.connect()
            with pytest.raises(ShardError, match="shard connection closed"):
                await asyncio.wait_for(link.call("ping"), 2.0)
            assert link.closed
            # every later call fails fast the same way
            with pytest.raises(ShardError, match="shard connection closed"):
                await link.call("ping")
            await link.close()
            server.close()
            await server.wait_closed()

        _run(scenario())


# ---------------------------------------------------------------------------
# consistent-hash ring routing + live resharding
# ---------------------------------------------------------------------------


class TestRingRouting:
    def test_ring_gateway_routes_per_hash_ring(self):
        ring = HashRing(3)

        async def scenario():
            gateway = Gateway(shards=3, shard_factory=_inline_factory())
            async with gateway:
                answers = []
                for req in _requests(6):
                    status, payload, _ = await gateway.handle_solve(req.to_wire())
                    answers.append((req, status, payload))
            return answers

        for req, status, payload in _run(scenario()):
            assert status == 200
            assert payload["shard"] == ring.shard_for(req.canonical_key())
            served = SolveResult.from_wire(payload["result"])
            assert served.value == solve_k_bounded(req.jobs, k=req.k).value

    def test_reshard_grow_moves_bounded_fraction_and_keeps_answers(self):
        reqs = _requests(8, seed=300)

        async def scenario():
            gateway = Gateway(shards=2, shard_factory=_inline_factory())
            async with gateway:
                before = [await gateway.handle_solve(r.to_wire()) for r in reqs]
                report = await gateway.reshard(3)
                after = [await gateway.handle_solve(r.to_wire()) for r in reqs]
                stats = await gateway.fleet_stats()
            return before, report, after, stats

        before, report, after, stats = _run(scenario())
        assert report["shards"] == 3
        # Consistent hashing: growing 2 -> 3 relocates about 1/3 of the
        # key space, not the ~2/3 a modulo hash would.
        assert 0.0 < report["moved_fraction"] <= 0.5
        assert report["moved_arcs"] > 0
        assert stats["gateway"]["ring_moves"] == report["moved_arcs"]
        assert len(stats["shards"]) == 3
        ring3 = HashRing(3)
        for req, (s1, p1, _), (s2, p2, _) in zip(reqs, before, after):
            assert s1 == 200 and s2 == 200
            assert p2["shard"] == ring3.shard_for(req.canonical_key())
            assert (
                SolveResult.from_wire(p2["result"]).value
                == SolveResult.from_wire(p1["result"]).value
            )

    def test_reshard_shrink_keeps_answers(self):
        reqs = _requests(6, seed=340)

        async def scenario():
            gateway = Gateway(shards=3, shard_factory=_inline_factory())
            async with gateway:
                report = await gateway.reshard(2)
                answers = [await gateway.handle_solve(r.to_wire()) for r in reqs]
            return report, answers

        report, answers = _run(scenario())
        assert report["shards"] == 2
        ring2 = HashRing(2)
        for req, (status, payload, _) in zip(reqs, answers):
            assert status == 200
            assert payload["shard"] == ring2.shard_for(req.canonical_key())
            served = SolveResult.from_wire(payload["result"])
            assert served.value == solve_k_bounded(req.jobs, k=req.k).value


# ---------------------------------------------------------------------------
# supervision (inline, deterministic)
# ---------------------------------------------------------------------------


class _MortalShard(InlineShard):
    """Inline shard with a kill switch, standing in for a dead process."""

    def __init__(self, **service_kwargs):
        super().__init__(**service_kwargs)
        self.dead = False

    def is_alive(self):
        return not self.dead

    async def call(self, op, **payload):
        if self.dead:
            raise ShardError("shard connection closed", "ConnectionError")
        return await super().call(op, **payload)


_FAST_SUPERVISOR = dict(
    interval_s=0.05, ping_timeout_s=0.5, backoff_base_s=0.01, backoff_max_s=0.05
)


class TestSupervisor:
    def test_dead_shard_is_detected_restarted_and_counted(self):
        req = _requests(1, seed=400)[0]

        async def scenario():
            gateway = Gateway(
                shards=2,
                shard_factory=lambda index: _MortalShard(workers=1),
                supervisor_kwargs=_FAST_SUPERVISOR,
            )
            async with gateway:
                owner = gateway.shard_for(req)
                first = await gateway.handle_solve(req.to_wire())
                victim = gateway._shards[owner]
                victim.dead = True
                for _ in range(200):
                    if gateway.counters["shard_restarts"] >= 1:
                        break
                    await asyncio.sleep(0.02)
                replaced = gateway._shards[owner] is not victim
                # The gateway keeps the first answer, so the probe takes the
                # shard hop itself to prove the replacement serves.
                probe = await gateway._dispatch(owner, req.to_wire())
                second = await gateway.handle_solve(req.to_wire())
                stats = await gateway.fleet_stats()
            return first, probe, second, stats, replaced

        (s1, p1, _), probe, (s2, p2, _), stats, replaced = _run(scenario())
        assert s1 == 200 and s2 == 200
        assert replaced
        value = SolveResult.from_wire(p1["result"]).value
        probed = SolveResult.from_wire(probe)
        assert probed.value == value
        assert not probed.metrics.get("served.hit")  # the replacement's own solve
        assert SolveResult.from_wire(p2["result"]).value == value
        assert stats["gateway"]["shard_restarts"] == 1
        incidents = stats["supervisor"]["incidents"]
        assert len(incidents) == 1
        assert incidents[0]["reason"] == "process died"
        assert incidents[0]["recovered"] is True
        assert incidents[0]["recovery_ms"] > 0
        assert stats["down"] == [False, False]

    def test_unrecoverable_shard_yields_503_with_retry_after(self):
        req = _requests(1, seed=420)[0]
        built = []

        async def scenario():
            def factory(index):
                shard = _MortalShard(workers=1)
                built.append(shard)
                if len(built) > 2:
                    shard.dead = True  # every replacement is stillborn
                return shard

            gateway = Gateway(
                shards=2,
                shard_factory=factory,
                supervisor_kwargs=dict(_FAST_SUPERVISOR, max_restart_attempts=2),
                failover_retry_s=0.2,
                failover_retry_after_s=2.5,
            )
            async with gateway:
                owner = gateway.shard_for(req)
                gateway._shards[owner].dead = True
                for _ in range(200):
                    if gateway._down[owner]:
                        break
                    await asyncio.sleep(0.02)
                status, payload, headers = await gateway.handle_solve(req.to_wire())
                failovers = gateway.counters["failovers"]
            return status, payload, headers, failovers

        status, payload, headers, failovers = _run(scenario())
        assert status == 503
        assert payload["error"] == "shard restarting"
        assert headers["Retry-After"] == "3"  # ceil(2.5), delta-seconds form
        assert failovers >= 1


# ---------------------------------------------------------------------------
# the keep-alive connection pool
# ---------------------------------------------------------------------------


class TestConnectionPool:
    def test_concurrent_pooled_requests_never_cross(self):
        reqs = _requests(8, seed=440, n=7)
        expected = {
            req.canonical_key(): solve_k_bounded(req.jobs, k=req.k).value
            for req in reqs
        }

        async def scenario():
            gateway = Gateway(shards=2, shard_factory=_inline_factory())
            async with gateway:
                pool = ConnectionPool("127.0.0.1", gateway.port, max_idle=4)

                async def client(offset):
                    for step in range(6):
                        req = reqs[(offset + step) % len(reqs)]
                        status, payload, _ = await pool.request(
                            "POST", "/v1/solve", req.to_wire()
                        )
                        assert status == 200
                        served = SolveResult.from_wire(payload["result"])
                        # The response on this socket must belong to this
                        # request — a crossed reply answers with another
                        # instance's value.
                        assert served.value == expected[req.canonical_key()]

                await asyncio.gather(*(client(i) for i in range(6)))
                counts = pool.created, pool.reused
                await pool.close()
            return counts

        created, reused = _run(scenario())
        assert reused > 0  # keep-alive actually reused sockets
        assert created <= 6  # never more connections than concurrent clients

    def test_pool_discards_closed_idle_sockets(self):
        req = _requests(1, seed=460)[0]

        async def scenario():
            gateway = Gateway(shards=1, shard_factory=_inline_factory())
            async with gateway:
                pool = ConnectionPool("127.0.0.1", gateway.port)
                first = await pool.request("POST", "/v1/solve", req.to_wire())
                assert len(pool._idle) == 1
                pool._idle[0][1].close()  # the socket dies while idle
                second = await pool.request("POST", "/v1/solve", req.to_wire())
                counts = pool.created, pool.reused
                await pool.close()
            return first[0], second[0], counts

        s1, s2, (created, reused) = _run(scenario())
        assert s1 == 200 and s2 == 200
        assert created == 2  # the dead idle socket was not reused
