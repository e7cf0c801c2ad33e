"""Open-loop load generation against a live gateway (``repro gateway-bench``).

The generator is *open loop*: arrivals follow a Poisson process at the
target RPS, fired on schedule whether or not earlier requests have come
back — so a slow gateway accumulates in-flight work and its latency tail
shows up honestly instead of being hidden by closed-loop self-throttling.

Phases:

1. **warmup** — every corpus instance is requested twice, sequentially:
   the first pass populates each owning shard's cache (misses), the
   second proves a hit on every shard that owns at least one key.  The
   warmup responses double as the oracle sample: each value is compared
   against a direct :func:`repro.api.solve_k_bounded` call
   (``disagreements`` must be 0) and each response's ``shard`` against
   an independently built :class:`~repro.gateway.routing.HashRing`
   (``route_mismatches`` must be 0).
2. **client comparison** — a short sequential cache-hit phase timed both
   over fresh connect-per-request sockets and over the keep-alive
   :class:`ConnectionPool`, so the payload records what pooling buys
   (``client_pool.p50_speedup``).
3. **timed open loop** — ``duration_s * rps`` Poisson arrivals sampling
   the corpus uniformly through the pool; p50/p99 latency, throughput
   and per-shard cache hit ratios are reported.

With ``chaos=True`` the run additionally arms the
``gateway.kill_shard`` fault (:mod:`repro.utils.faults`) partway through
the timed phase: the supervisor SIGKILLs one live shard worker, detects
the death, and restarts it while the load keeps arriving.  Every 200 in
the timed phase is then re-checked against a precomputed direct solve
(``chaos.wrong_answers`` must be 0), 503s are retried until they answer
(``chaos.unanswered`` must be 0), and the supervisor's incident log
yields the detection-to-recovery time the ``--max-recovery-ms`` CI gate
bounds.

The payload (schema ``repro-gateway-bench/1``) is what CI gates on.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Any, Dict, List, Optional, Tuple

from repro.api import SolveRequest, SolveResult, solve_k_bounded
from repro.gateway.core import Gateway
from repro.gateway.routing import HashRing
from repro.utils import faults

__all__ = ["ConnectionPool", "run_gateway_bench"]

BENCH_FORMAT = "repro-gateway-bench/1"


def _request_bytes(
    host: str,
    port: int,
    method: str,
    path: str,
    doc: Optional[Dict[str, Any]],
    headers: Optional[Dict[str, str]],
    *,
    keep_alive: bool,
) -> bytes:
    body = json.dumps(doc).encode() if doc is not None else b""
    lines = [
        f"{method} {path} HTTP/1.1",
        f"Host: {host}:{port}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
        f"Content-Length: {len(body)}",
        "Content-Type: application/json",
    ]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionResetError("connection closed before status line")
    status = int(status_line.split()[1])
    content_length = 0
    response_headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        response_headers[name.strip().lower()] = value.strip()
        if name.strip().lower() == "content-length":
            content_length = int(value.strip())
    payload = await reader.readexactly(content_length) if content_length else b"{}"
    return status, json.loads(payload), response_headers


async def _http_json_full(
    host: str,
    port: int,
    method: str,
    path: str,
    doc: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
    """One HTTP request over a fresh connection.

    Returns ``(status, body, response_headers)`` with header names
    lower-cased — the headers matter to the tests asserting the 429
    backpressure contract (``Retry-After``) over real sockets.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            _request_bytes(host, port, method, path, doc, headers, keep_alive=False)
        )
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


class ConnectionPool:
    """Keep-alive HTTP connections for the bench client.

    A connection is checked out for the full request/response exchange
    and only returned to the idle list after the response body has been
    read in full, so replies can never cross between concurrent
    requests — each simulated client reuses one socket *sequentially*,
    which is exactly what a production keep-alive client does.  A stale
    pooled socket (the server closed it between requests) is detected on
    first use and retried once over a fresh connection; fresh-connection
    failures propagate.
    """

    def __init__(self, host: str, port: int, *, max_idle: int = 64):
        self._host = host
        self._port = port
        self._max_idle = max_idle
        self._idle: List[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []
        self.created = 0
        self.reused = 0

    async def _checkout(
        self,
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter, bool]:
        while self._idle:
            reader, writer = self._idle.pop()
            if writer.is_closing():
                _close_quietly(writer)
                continue
            self.reused += 1
            return reader, writer, True
        reader, writer = await asyncio.open_connection(self._host, self._port)
        self.created += 1
        return reader, writer, False

    async def request(
        self,
        method: str,
        path: str,
        doc: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        """One request over a pooled connection; returns (status, body, headers)."""
        for attempt in (0, 1):
            reader, writer, was_pooled = await self._checkout()
            try:
                writer.write(
                    _request_bytes(
                        self._host, self._port, method, path, doc, headers,
                        keep_alive=True,
                    )
                )
                await writer.drain()
                status, payload, response_headers = await _read_response(reader)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                _close_quietly(writer)
                if was_pooled and attempt == 0:
                    continue  # stale keep-alive socket: one fresh retry
                raise
            if response_headers.get("connection", "keep-alive").lower() == "close":
                _close_quietly(writer)
            elif len(self._idle) < self._max_idle:
                self._idle.append((reader, writer))
            else:
                _close_quietly(writer)
            return status, payload, response_headers
        raise ConnectionError("unreachable")  # pragma: no cover

    async def close(self) -> None:
        while self._idle:
            _, writer = self._idle.pop()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def _close_quietly(writer: asyncio.StreamWriter) -> None:
    try:
        writer.close()
    except Exception:
        pass


async def _http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    doc: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
) -> Tuple[int, Dict[str, Any]]:
    """One HTTP request over a fresh connection; returns (status, body)."""
    status, payload, _headers = await _http_json_full(
        host, port, method, path, doc, headers
    )
    return status, payload


def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _build_corpus(corpus: int, n: int, seed: int, shards: int, route):
    """Seeded corpus of (SolveRequest, wire doc), covering every shard.

    ``route`` is the canonical-key -> shard function the coverage is
    checked against.
    """
    from repro.instances import random_jobs

    rng = random.Random(seed)
    requests: List[SolveRequest] = []
    covered = set()
    offset = 0
    # Top up past `corpus` only if some shard would otherwise own no key
    # (astronomically unlikely at corpus >= 2 * shards, but the per-shard
    # hit gate must never flake on a bad draw).
    while len(requests) < corpus or (len(covered) < shards and offset < corpus + 64):
        jobs = random_jobs(n, seed=seed + offset)
        offset += 1
        req = SolveRequest(jobs=jobs, k=rng.choice((1, 2)))
        requests.append(req)
        covered.add(route(req.canonical_key()))
    return [(req, req.to_wire()) for req in requests]


#: Sequential cache-hit requests per client flavour in the comparison phase.
_CLIENT_COMPARE_REQUESTS = 30

#: How long a 503 ("shard restarting") is retried before it counts as
#: unanswered, and how long the post-loop recovery wait may take.  Both
#: are deliberately far above any passing recovery time — the *gate* is
#: ``--max-recovery-ms``; these only keep a broken run from hanging.
_CHAOS_RETRY_BUDGET_S = 15.0


async def _run_bench(
    *,
    shards: int,
    rps: float,
    duration_s: float,
    corpus: int,
    n: int,
    seed: int,
    inline: bool,
    max_inflight_per_shard: int,
    workers: int,
    chaos: bool,
) -> Dict[str, Any]:
    if chaos and inline:
        raise ValueError("chaos mode needs process shards (inline=False)")
    if inline:
        from repro.gateway.shard import InlineShard

        factory = lambda index: InlineShard(workers=workers)
    else:
        factory = None
    supervisor_kwargs = None
    if chaos:
        # Tight supervision so detection + restart fit a short bench run.
        supervisor_kwargs = {
            "interval_s": 0.1,
            "ping_timeout_s": 0.5,
            "max_ping_failures": 3,
            "backoff_base_s": 0.05,
        }
    gateway = Gateway(
        shards=shards,
        max_inflight_per_shard=max_inflight_per_shard,
        service_kwargs={"workers": workers},
        shard_factory=factory,
        supervisor_kwargs=supervisor_kwargs,
    )
    route = HashRing(shards).shard_for
    await gateway.start()
    host, port = "127.0.0.1", gateway.port
    pool = ConnectionPool(host, port)
    try:
        pairs = _build_corpus(corpus, n, seed, shards, route)

        # -- warmup + oracle sample ------------------------------------------
        disagreements = 0
        route_mismatches = 0
        direct_values: Dict[str, int] = {}
        for _pass in range(2):
            for req, doc in pairs:
                status, payload = await _http_json(host, port, "POST", "/v1/solve", doc)
                if status != 200:
                    raise RuntimeError(
                        f"warmup request failed: HTTP {status} {payload}"
                    )
                if payload["shard"] != route(req.canonical_key()):
                    route_mismatches += 1
                if _pass == 0:
                    served = SolveResult.from_wire(payload["result"])
                    direct = solve_k_bounded(req.jobs, k=req.k)
                    direct_values[req.canonical_key()] = direct.value
                    if served.value != direct.value:
                        disagreements += 1

        loop = asyncio.get_event_loop()

        # -- client comparison: fresh connections vs keep-alive pool ---------
        # A warmed (pure cache hit) request, so the measurement isolates
        # transport overhead — the thing pooling actually removes.
        compare_doc = pairs[0][1]
        fresh_ms: List[float] = []
        pooled_ms: List[float] = []
        for _ in range(_CLIENT_COMPARE_REQUESTS):
            t0 = loop.time()
            await _http_json(host, port, "POST", "/v1/solve", compare_doc)
            fresh_ms.append((loop.time() - t0) * 1e3)
        for _ in range(_CLIENT_COMPARE_REQUESTS):
            t0 = loop.time()
            await pool.request("POST", "/v1/solve", compare_doc)
            pooled_ms.append((loop.time() - t0) * 1e3)
        fresh_ms.sort()
        pooled_ms.sort()
        fresh_p50 = _quantile(fresh_ms, 0.50)
        pooled_p50 = _quantile(pooled_ms, 0.50)

        # -- timed open loop (through the pool) ------------------------------
        arrival_rng = random.Random(seed + 1)
        pick_rng = random.Random(seed + 2)
        total = max(1, int(rps * duration_s))
        latencies_ms: List[float] = []
        status_counts: Dict[int, int] = {}
        wrong_answers = 0
        retried_503 = 0
        unanswered = 0

        async def one_request(req: SolveRequest, doc: Dict[str, Any]) -> None:
            nonlocal wrong_answers, retried_503, unanswered
            t0 = loop.time()
            deadline = t0 + _CHAOS_RETRY_BUDGET_S
            try:
                while True:
                    status, payload, headers = await pool.request(
                        "POST", "/v1/solve", doc
                    )
                    if status != 503 or loop.time() >= deadline:
                        break
                    # A restarting shard asked us to come back; obey.
                    retried_503 += 1
                    await asyncio.sleep(float(headers.get("retry-after", 0.2)))
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                status, payload = -1, {}
            elapsed_ms = (loop.time() - t0) * 1e3
            status_counts[status] = status_counts.get(status, 0) + 1
            if status == 200:
                latencies_ms.append(elapsed_ms)
                if chaos:
                    served = SolveResult.from_wire(payload["result"])
                    if served.value != direct_values[req.canonical_key()]:
                        wrong_answers += 1
            elif status != 429:
                unanswered += 1

        async def arm_kill(delay_s: float) -> None:
            await asyncio.sleep(delay_s)
            with faults.inject("gateway.kill_shard"):
                # Hold through several supervisor sweeps; the fault is
                # one-shot per arming, so exactly one worker dies.
                await asyncio.sleep(1.0)

        chaos_task = (
            asyncio.ensure_future(arm_kill(duration_s * 0.3)) if chaos else None
        )
        tasks = []
        bench_t0 = loop.time()
        next_arrival = 0.0
        for _ in range(total):
            next_arrival += arrival_rng.expovariate(rps)
            delay = bench_t0 + next_arrival - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            req, doc = pairs[pick_rng.randrange(len(pairs))]
            tasks.append(asyncio.ensure_future(one_request(req, doc)))
        await asyncio.gather(*tasks)
        if chaos_task is not None:
            await chaos_task
        elapsed_s = loop.time() - bench_t0

        # -- post-loop: wait out any in-flight recovery, then snapshot -------
        if chaos:
            recovery_deadline = loop.time() + _CHAOS_RETRY_BUDGET_S
            while loop.time() < recovery_deadline:
                _s, stats_payload = await _http_json(host, port, "GET", "/v1/stats")
                if not stats_payload.get("down"):
                    break
                await asyncio.sleep(0.1)
        _status, stats_payload = await _http_json(host, port, "GET", "/v1/stats")
    finally:
        await pool.close()
        await gateway.stop()

    latencies_ms.sort()
    completed = status_counts.get(200, 0)
    payload = {
        "format": BENCH_FORMAT,
        "params": {
            "shards": shards,
            "rps": rps,
            "duration_s": duration_s,
            "corpus": len(pairs),
            "n": n,
            "seed": seed,
            "inline": inline,
            "chaos": chaos,
        },
        "sent": total,
        "completed": completed,
        "rejected": status_counts.get(429, 0),
        "errors": total - completed - status_counts.get(429, 0),
        "achieved_rps": total / elapsed_s if elapsed_s > 0 else 0.0,
        "p50_ms": _quantile(latencies_ms, 0.50),
        "p99_ms": _quantile(latencies_ms, 0.99),
        "disagreements": disagreements,
        "route_mismatches": route_mismatches,
        "client_pool": {
            "requests_per_client": _CLIENT_COMPARE_REQUESTS,
            "fresh_p50_ms": fresh_p50,
            "pooled_p50_ms": pooled_p50,
            "p50_speedup": (fresh_p50 / pooled_p50) if pooled_p50 > 0 else None,
            "created": pool.created,
            "reused": pool.reused,
        },
        "per_shard": stats_payload["shards"],
        "fleet": stats_payload["fleet"],
        "gateway": stats_payload["gateway"],
        "supervisor": stats_payload.get("supervisor"),
    }
    if chaos:
        incidents = (stats_payload.get("supervisor") or {}).get("incidents", [])
        recoveries = [
            inc["recovery_ms"] for inc in incidents if inc.get("recovery_ms")
        ]
        payload["chaos"] = {
            "kills": len(
                (stats_payload.get("supervisor") or {}).get("chaos_actions", [])
            ),
            "incidents": incidents,
            "recovery_ms_max": max(recoveries) if recoveries else None,
            "recovered": bool(incidents)
            and all(inc.get("recovered") for inc in incidents),
            "retried_503": retried_503,
            "unanswered": unanswered,
            "wrong_answers": wrong_answers,
        }
    return payload


def run_gateway_bench(
    *,
    shards: int = 2,
    rps: float = 30.0,
    duration_s: float = 8.0,
    corpus: int = 12,
    n: int = 10,
    seed: int = 7,
    inline: bool = False,
    max_inflight_per_shard: int = 64,
    workers: int = 2,
    chaos: bool = False,
) -> Dict[str, Any]:
    """Start a gateway fleet, drive it open-loop, return the bench payload."""
    return asyncio.run(
        _run_bench(
            shards=shards,
            rps=rps,
            duration_s=duration_s,
            corpus=corpus,
            n=n,
            seed=seed,
            inline=inline,
            max_inflight_per_shard=max_inflight_per_shard,
            workers=workers,
            chaos=chaos,
        )
    )
