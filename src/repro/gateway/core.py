"""The asyncio HTTP front door over a fleet of solver shards.

:class:`Gateway` is a stdlib-only HTTP/1.1 server
(:func:`asyncio.start_server`, hand-rolled request parsing — no heavy
deps) that:

* **shards** every ``POST /v1/solve`` by the instance's canonical key on
  a consistent-hash ring (:class:`~repro.gateway.routing.HashRing`), so
  the same canonical instance always lands on the same
  :class:`~repro.serve.SolverService` and its cache;
* **admits** under a per-shard in-flight bound — saturation answers
  ``429`` with ``Retry-After`` instead of queueing unboundedly
  (backpressure, not buffering);
* **meters** tenants through token buckets (``X-Tenant`` header, default
  tenant otherwise); an empty bucket is also a ``429``, with the bucket's
  own refill time as ``Retry-After``;
* **answers repeats itself**: a served answer is a pure function of its
  request key (instance plus ``k``, ``machines``, ``method``), so every
  non-degraded shard answer is kept as encoded bytes in a gateway LRU
  bounded by :data:`ANSWER_CACHE_BYTES`.  A repeat is answered by splicing
  those bytes into the response envelope — no shard hop, no in-flight
  slot, no JSON re-encode — even while its shard is down.  A shard's
  answer is encoded once, for its reply and the cache entry alike;
* **dispatches** every other admitted request to its shard as one
  ``solve`` op the moment it is admitted.  The shard link is multiplexed
  by message id, so concurrent requests to one shard are in flight
  together.

Wire format is ``repro-wire/1`` end to end: the request body is
``SolveRequest.to_wire()``, the response wraps ``SolveResult.to_wire()``
together with the serving shard's index.  With ``store_dir`` set, each
shard mounts a durable :class:`repro.store.ResultStore` at
``<store_dir>/shard-NN`` so its cache survives restarts (see
``docs/STORE.md``).  Counters
``gateway.admitted/rejected/sharded/quota_denied/answer_hits`` flow into
the ambient :mod:`repro.obs` tracer.  See ``docs/GATEWAY.md``.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.api import WIRE_FORMAT, SolveRequest
from repro.gateway.routing import HashRing, QuotaManager, ring_movement
from repro.gateway.shard import ProcessShard, ShardError
from repro.gateway.supervisor import ShardSupervisor
from repro.obs.tracer import current_tracer
from repro.serve.service import ServiceStats, cacheable, hit_metrics

__all__ = ["Gateway"]

#: Largest request body the HTTP layer reads; a longer ``Content-Length``
#: is answered 413 without reading the body.  A ``repro-wire/1`` request at
#: the exact solver's n = 30 frontier is a few kilobytes.
MAX_BODY_BYTES = 1 << 20

#: Most bytes of encoded answers (keys plus ``solve_result`` documents) the
#: gateway keeps for repeat requests.  An n = 12 answer is about 1.5 to 4 KB,
#: so this holds a thousand or more: several times a default fleet's LRUs.
ANSWER_CACHE_BYTES = 4 << 20

#: Most header lines one request may carry; the first line past it is
#: answered 431 and the connection closed, so a client cannot stream
#: headers without end.
MAX_HEADER_LINES = 100

_COUNTERS = (
    "admitted",
    "rejected",
    "sharded",
    "quota_denied",
    "shard_restarts",
    "failovers",
    "ring_moves",
    "answer_hits",
)

#: ``(status, payload, extra headers)``; a payload is a JSON-able dict, or
#: (from ``handle_solve(..., encoded=True)``) an already-encoded body.
Reply = Tuple[int, Union[bytes, Dict[str, Any]], Dict[str, str]]


class AnswerCache:
    """An LRU of encoded answers, bounded in bytes rather than entries.

    An entry costs the length of its key plus its value.  A put past
    ``budget`` evicts least-recently-used entries until the rest fits; an
    entry larger than the whole budget is not kept.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.size = 0
        self._data: "OrderedDict[str, bytes]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: str) -> Optional[bytes]:
        value = self._data.get(key)
        if value is not None:
            self._data.move_to_end(key)
        return value

    def put(self, key: str, value: bytes) -> None:
        cost = len(key) + len(value)
        if cost > self.budget:
            return
        old = self._data.pop(key, None)
        if old is not None:
            self.size -= len(key) + len(old)
        self._data[key] = value
        self.size += cost
        while self.size > self.budget:
            old_key, old_value = self._data.popitem(last=False)
            self.size -= len(old_key) + len(old_value)


#: The ``solve_response`` envelope as ``json.dumps`` lays it out, with ``%d``
#: and ``%s`` slots for the shard index and an encoded result: every answer,
#: fresh or cached, is spliced in without decoding or re-encoding it.
_RESPONSE_TEMPLATE = (
    json.dumps({"format": WIRE_FORMAT, "kind": "solve_response", "shard": 0, "result": None})
    .replace('"shard": 0, "result": null}', '"shard": %d, "result": %s}')
    .encode()
)


def _retry_after_headers(seconds: float) -> Dict[str, str]:
    """The one formatting rule for every 429's ``Retry-After`` header.

    Both rejection paths — tenant quota and shard saturation — go through
    here, so clients see one consistent convention: a positive integer
    number of seconds, rounded up (HTTP's delta-seconds form).
    """
    return {"Retry-After": str(max(1, math.ceil(seconds)))}


class Gateway:
    """Sharded HTTP gateway over ``shards`` solver worker processes.

    ``shard_factory`` builds one shard per index (default
    :class:`~repro.gateway.shard.ProcessShard` with ``service_kwargs``);
    tests pass :class:`~repro.gateway.shard.InlineShard` to stay in one
    process.  ``quota_rate``/``quota_burst`` configure per-tenant token
    buckets (``None`` disables quotas); ``max_inflight_per_shard`` bounds
    admission, with ``saturation_retry_after_s`` as the backoff hint a
    saturated shard's 429 carries (the quota path computes its hint from
    the bucket's refill time; both format through one helper).

    ``store_dir`` mounts a durable result store under each shard: shard
    ``i`` opens a :class:`repro.store.ResultStore` at
    ``<store_dir>/shard-NN`` via the service's ``store_path`` kwarg, so
    every shard's cache survives restarts and prewarms its LRU on start.
    Hash routing makes the per-shard stores disjoint (the same canonical
    key always lands on the same shard).  Only the default factory
    consumes it — passing both ``store_dir`` and ``shard_factory`` is an
    error rather than a silently ignored config.

    Repeat requests are answered from an :class:`AnswerCache` of
    :data:`ANSWER_CACHE_BYTES`; it has no knob of its own.

    Endpoints: ``POST /v1/solve``, ``GET /v1/stats``, ``GET /v1/healthz``.
    """

    def __init__(
        self,
        *,
        shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight_per_shard: int = 64,
        quota_rate: Optional[float] = None,
        quota_burst: Optional[float] = None,
        saturation_retry_after_s: float = 1.0,
        supervise: bool = True,
        supervisor_kwargs: Optional[Dict[str, Any]] = None,
        failover_retry_s: float = 3.0,
        failover_retry_after_s: float = 1.0,
        store_dir: Optional[str] = None,
        service_kwargs: Optional[Dict[str, Any]] = None,
        shard_factory=None,
        tracer=None,
        clock=None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if max_inflight_per_shard < 1:
            raise ValueError(
                f"max_inflight_per_shard must be >= 1, got {max_inflight_per_shard}"
            )
        if saturation_retry_after_s <= 0:
            raise ValueError(
                f"saturation_retry_after_s must be > 0, got {saturation_retry_after_s}"
            )
        if failover_retry_s < 0:
            raise ValueError(
                f"failover_retry_s must be >= 0, got {failover_retry_s}"
            )
        if store_dir is not None and shard_factory is not None:
            raise TypeError(
                "store_dir only applies to the default shard factory — "
                "wire store_path into your own factory's service_kwargs instead"
            )
        self._n_shards = shards
        self._host = host
        self._port = port
        self._max_inflight = max_inflight_per_shard
        self._saturation_retry_after_s = saturation_retry_after_s
        self._ring = HashRing(shards)
        self._failover_retry_s = failover_retry_s
        self._failover_retry_after_s = failover_retry_after_s
        quota_kwargs = {} if clock is None else {"clock": clock}
        self._quota = QuotaManager(quota_rate, quota_burst, **quota_kwargs)
        if shard_factory is None:
            kwargs = dict(service_kwargs or {})

            def shard_factory(index: int, _kwargs=kwargs, _store_dir=store_dir):
                skw = dict(_kwargs)
                if _store_dir is not None:
                    skw["store_path"] = os.path.join(_store_dir, f"shard-{index:02d}")
                return ProcessShard(service_kwargs=skw)

        self._shard_factory = shard_factory
        self._tracer = tracer if tracer is not None else current_tracer()
        self._shards: List[Any] = []
        self._inflight: List[int] = []
        self._down: List[bool] = []
        self._recovered: List[asyncio.Event] = []
        self._generation: List[int] = []
        self._answer_hits: List[int] = []
        self._answers = AnswerCache(ANSWER_CACHE_BYTES)
        self._server: Optional[asyncio.AbstractServer] = None
        self.supervisor: Optional[ShardSupervisor] = (
            ShardSupervisor(self, **(supervisor_kwargs or {})) if supervise else None
        )
        self.counters: Dict[str, int] = {name: 0 for name in _COUNTERS}

    # -- lifecycle ------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (after :meth:`start`)."""
        return self._port

    @property
    def n_shards(self) -> int:
        return self._n_shards

    async def start(self) -> None:
        """Start the shard fleet, the supervisor, then the HTTP server."""
        for index in range(self._n_shards):
            await self._add_shard(index)
        if self.supervisor is not None:
            self.supervisor.start()
        self._server = await asyncio.start_server(
            self._handle_conn, self._host, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop supervision and connections, then stop every shard."""
        if self.supervisor is not None:
            await self.supervisor.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for shard in self._shards:
            await shard.stop()
        self._drop_shards(0)

    async def _add_shard(self, index: int) -> None:
        """Build and start shard ``index``, with its per-shard bookkeeping."""
        shard = self._shard_factory(index)
        await shard.start()
        self._shards.append(shard)
        self._inflight.append(0)
        self._down.append(False)
        self._generation.append(0)
        self._answer_hits.append(0)
        event = asyncio.Event()
        event.set()
        self._recovered.append(event)

    def _drop_shards(self, keep: int) -> List[Any]:
        """Forget every shard from index ``keep`` on; returns those shards."""
        dropped = self._shards[keep:]
        for per_shard in (
            self._shards, self._inflight, self._down, self._recovered,
            self._generation, self._answer_hits,
        ):
            del per_shard[keep:]
        return dropped

    async def __aenter__(self) -> "Gateway":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def _count(self, name: str, delta: int = 1) -> None:
        self.counters[name] += delta
        if self._tracer is not None:
            self._tracer.count(f"gateway.{name}", delta)

    # -- supervision hooks -----------------------------------------------------

    def _mark_down(self, index: int) -> None:
        """Supervisor callback: shard ``index`` failed; divert its requests."""
        if not self._down[index]:
            self._down[index] = True
            self._recovered[index].clear()

    def _mark_up(self, index: int, incident=None) -> None:
        """Supervisor callback: shard ``index`` restarted and answers pings."""
        self._count("shard_restarts")
        self._down[index] = False
        self._recovered[index].set()
        if self._tracer is not None and incident is not None:
            with self._tracer.span(
                "gateway.supervise",
                shard=index,
                reason=incident.reason,
                attempts=incident.attempts,
                recovery_ms=incident.recovery_ms,
            ):
                pass

    async def _restart_shard(self, index: int) -> None:
        """Tear down and rebuild one shard (supervisor restart path).

        The old shard is stopped best-effort (it may already be a
        corpse); the replacement comes from the same factory that built
        it — including its ``store_path``, so a store-backed shard
        prewarms from disk.
        """
        old = self._shards[index]
        try:
            await old.stop()
        except Exception:
            pass
        shard = self._shard_factory(index)
        await shard.start()
        self._shards[index] = shard
        self._generation[index] += 1

    async def _await_recovery(self, index: int, generation: Optional[int] = None) -> bool:
        """Bounded wait for a down shard; True once it is serving again.

        With ``generation`` given (the value of ``self._generation[index]``
        captured *before* the failed dispatch), waits until the shard has
        actually been replaced — a connection error can race ahead of the
        supervisor's detection sweep, so "not currently marked down" is
        not yet proof of recovery.
        """
        if self._failover_retry_s <= 0:
            return not self._down[index]
        loop = asyncio.get_event_loop()
        deadline = loop.time() + self._failover_retry_s
        while True:
            if not self._down[index] and (
                generation is None or self._generation[index] > generation
            ):
                return True
            remaining = deadline - loop.time()
            if remaining <= 0:
                return False
            if self._down[index]:
                try:
                    await asyncio.wait_for(
                        self._recovered[index].wait(), min(remaining, 0.05)
                    )
                except asyncio.TimeoutError:
                    pass
            else:
                # Failure seen but not yet detected by the supervisor:
                # poll until detection flips the flag or the window closes.
                await asyncio.sleep(min(remaining, 0.02))

    def _unavailable(self, shard_index: int) -> Tuple[int, Dict[str, Any], Dict[str, str]]:
        return (
            503,
            {"error": "shard restarting", "shard": shard_index},
            _retry_after_headers(self._failover_retry_after_s),
        )

    # -- request routing ------------------------------------------------------

    def shard_for(
        self, request: SolveRequest, canonical_key: Optional[str] = None
    ) -> int:
        """The shard index that will serve this request (deterministic).

        A caller already holding ``request.canonical_key()`` passes it in,
        so the instance is hashed once.
        """
        if canonical_key is None:
            canonical_key = request.canonical_key()
        return self._ring.shard_for(canonical_key)

    async def reshard(self, new_shards: int) -> Dict[str, Any]:
        """Grow or shrink the live fleet to ``new_shards`` shards.

        Only the key arcs captured (or released) by the changed shards
        move — ``gateway.ring_moves`` counts the relocated virtual-node
        arcs and the returned report carries the exact ``moved_fraction``
        of the key space.

        New shards come from the same factory (so ``store_dir`` fleets
        mount ``shard-NN`` stores for the new indices); removed shards
        are stopped after their index is routed away from.
        """
        if new_shards < 1:
            raise ValueError(f"shards must be >= 1, got {new_shards}")
        old_n = self._n_shards
        if new_shards == old_n:
            return {"shards": old_n, "moved_arcs": 0, "moved_fraction": 0.0}
        # Grow: start the new shards before routing to them.
        for index in range(old_n, new_shards):
            await self._add_shard(index)
        new_ring = HashRing(new_shards)
        moved_arcs, moved_fraction = ring_movement(self._ring, new_ring)
        self._ring = new_ring
        if moved_arcs:
            self._count("ring_moves", moved_arcs)
        self._n_shards = new_shards
        # Shrink: routing no longer reaches the dropped indices; stop them.
        if new_shards < old_n:
            for shard in self._drop_shards(new_shards):
                try:
                    await shard.stop()
                except Exception:
                    pass
        return {
            "shards": new_shards,
            "moved_arcs": moved_arcs,
            "moved_fraction": moved_fraction,
        }

    async def _dispatch(self, shard_index: int, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Ship one admitted request to its shard; resolves to the result doc."""
        reply = await self._shards[shard_index].call("solve", request=doc)
        return reply["result"]

    async def handle_solve(
        self, doc: Dict[str, Any], tenant: str = "default", *, encoded: bool = False
    ) -> Reply:
        """The full admission/routing/dispatch path for one wire request.

        Returns ``(http_status, payload, extra_headers)``.  Exposed
        separately from the HTTP layer so tests and oracles can drive the
        gateway without sockets.  An answer, from a shard or from the
        answer cache, is spliced into its response body; the HTTP layer
        asks for that body as is (``encoded=True``), other callers get it
        decoded, so they see exactly the bytes a client receives.
        """
        ok, retry_after = self._quota.check(tenant)
        if not ok:
            self._count("quota_denied")
            return (
                429,
                {"error": "tenant quota exhausted", "tenant": tenant},
                _retry_after_headers(retry_after),
            )
        try:
            request = SolveRequest.from_wire(doc)
        except (ValueError, TypeError, KeyError, OverflowError) as exc:
            return 400, {"error": str(exc)}, {}
        canonical_key = request.canonical_key()
        key = request.key(canonical_key)
        shard_index = self.shard_for(request, canonical_key)
        self._count("sharded")
        answer = self._answers.get(key)
        if answer is not None:
            # No shard hop, so no in-flight slot; the envelope carries the
            # shard the ring gives now, which a reshard may have changed.
            self._count("admitted")
            self._count("answer_hits")
            self._answer_hits[shard_index] += 1
            body = _RESPONSE_TEMPLATE % (shard_index, answer)
            return 200, (body if encoded else json.loads(body)), {}
        if self._inflight[shard_index] >= self._max_inflight:
            self._count("rejected")
            return (
                429,
                {"error": "shard saturated", "shard": shard_index},
                _retry_after_headers(self._saturation_retry_after_s),
            )
        self._count("admitted")
        self._inflight[shard_index] += 1
        try:
            if self._down[shard_index]:
                # The supervisor is restarting this shard: hold the request
                # for a bounded window instead of failing it outright.
                self._count("failovers")
                if not await self._await_recovery(shard_index):
                    return self._unavailable(shard_index)
            generation = self._generation[shard_index]
            try:
                result_doc = await self._dispatch(shard_index, doc)
            except ShardError as exc:
                if exc.is_client_error:
                    return 400, {"error": str(exc), "shard": shard_index}, {}
                if exc.etype != "ConnectionError":
                    return 502, {"error": str(exc), "shard": shard_index}, {}
                # The shard died mid-flight.  One bounded in-gateway retry
                # against the *restarted* worker (the generation guard keeps
                # the retry from racing ahead of the supervisor); a clean
                # 503 + Retry-After if recovery misses the window.
                self._count("failovers")
                if not await self._await_recovery(shard_index, generation):
                    return self._unavailable(shard_index)
                try:
                    result_doc = await self._dispatch(shard_index, doc)
                except ShardError as retry_exc:
                    if retry_exc.is_client_error:
                        return 400, {"error": str(retry_exc), "shard": shard_index}, {}
                    return self._unavailable(shard_index)
        finally:
            self._inflight[shard_index] -= 1
        body = _RESPONSE_TEMPLATE % (shard_index, self._remember(key, result_doc))
        return 200, (body if encoded else json.loads(body)), {}

    def _remember(self, key: str, result_doc: Any) -> bytes:
        """Encode a shard's answer once; keep it for repeats, as its own LRU
        hit would read.  Returns the answer's encoding for the reply.

        Everything but the metrics is encoded once and shared: the reply
        and the kept answer differ only in their metrics block, which goes
        last.  What may be kept and how a hit reads are the serve layer's
        rules (:func:`~repro.serve.service.cacheable`,
        :func:`~repro.serve.service.hit_metrics`).  A reply that is not a
        result document is not kept.
        """
        metrics = result_doc.get("metrics") if isinstance(result_doc, dict) else None
        if not isinstance(metrics, dict) or not cacheable(metrics):
            return json.dumps(result_doc).encode()
        # json.dumps ends a dict whose last value is None with "null}".
        doc = {name: value for name, value in result_doc.items() if name != "metrics"}
        doc["metrics"] = None
        head = json.dumps(doc)[: -len("null}")]
        self._answers.put(key, f"{head}{json.dumps(hit_metrics(metrics))}}}".encode())
        return f"{head}{json.dumps(metrics)}}}".encode()

    async def fleet_stats(self) -> Dict[str, Any]:
        """Aggregated fleet stats plus the gateway's own counters.

        A shard that is down (or dies under the stats probe) reports
        ``{"down": true}`` instead of failing the whole endpoint — the
        stats surface must stay readable exactly when the fleet is
        degraded and someone is looking at it.
        """
        per_shard: List[Dict[str, Any]] = []
        healthy: List[ServiceStats] = []
        for index, shard in enumerate(self._shards):
            if self._down[index]:
                per_shard.append({"down": True})
                continue
            try:
                # Bounded: a wedged worker that still accepts writes must
                # not hang the stats surface (the supervisor will declare
                # it down shortly; until then it just reads as down here).
                reply = await asyncio.wait_for(shard.call("stats"), 5.0)
            except (ShardError, asyncio.TimeoutError):
                per_shard.append({"down": True})
                continue
            per_shard.append(reply["stats"])
            healthy.append(ServiceStats(**reply["stats"]))
        total = ServiceStats.aggregate(healthy)
        payload = {
            "format": WIRE_FORMAT,
            "kind": "gateway_stats",
            "shards": per_shard,
            "fleet": total.as_dict(),
            "gateway": dict(self.counters),
            "inflight": list(self._inflight),
            "down": list(self._down),
            "answer_hits": list(self._answer_hits),
            "answer_cache": {
                "entries": len(self._answers),
                "bytes": self._answers.size,
                "budget": self._answers.budget,
            },
        }
        if self.supervisor is not None:
            payload["supervisor"] = self.supervisor.status()
        return payload

    # -- the HTTP layer -------------------------------------------------------

    async def _route(
        self, method: str, path: str, headers: Dict[str, str], body: bytes
    ) -> Reply:
        if method == "POST" and path == "/v1/solve":
            try:
                doc = json.loads(body)
            except json.JSONDecodeError as exc:
                return 400, {"error": f"bad JSON body: {exc}"}, {}
            tenant = headers.get("x-tenant", "default")
            return await self.handle_solve(doc, tenant, encoded=True)
        if method == "GET" and path == "/v1/stats":
            return 200, await self.fleet_stats(), {}
        if method == "GET" and path == "/v1/healthz":
            try:
                for shard in self._shards:
                    await shard.call("ping")
            except ShardError as exc:
                return 503, {"status": "degraded", "error": str(exc)}, {}
            return 200, {"status": "ok", "shards": self._n_shards}, {}
        return 404, {"error": f"no route for {method} {path}"}, {}

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request_line = await reader.readline()
                    if not request_line:
                        break
                    parts = request_line.decode("latin-1").strip().split()
                    if len(parts) != 3:
                        await _write_response(
                            writer, 400, {"error": "malformed request line"}, {}, False
                        )
                        break
                    method, path, _version = parts
                    headers: Dict[str, str] = {}
                    for _ in range(MAX_HEADER_LINES + 1):
                        line = await reader.readline()
                        if line in (b"\r\n", b"\n", b""):
                            break
                        name, _, value = line.decode("latin-1").partition(":")
                        headers[name.strip().lower()] = value.strip()
                    else:
                        # No blank line within the cap: refuse and close
                        # (this break leaves the keep-alive loop).
                        await _write_response(
                            writer, 431,
                            {"error": f"more than {MAX_HEADER_LINES} header lines"},
                            {}, False,
                        )
                        break
                except ValueError:
                    # StreamReader.readline raises ValueError for a line
                    # longer than the stream limit (asyncio's 64 KiB).
                    await _write_response(
                        writer, 431, {"error": "request line or header line too long"},
                        {}, False,
                    )
                    break
                length, rejection = _content_length(headers)
                if rejection is not None:
                    status, payload = rejection
                    await _write_response(writer, status, payload, {}, False)
                    break
                body = await reader.readexactly(length) if length else b""
                status, payload, extra = await self._route(method, path, headers, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                await _write_response(writer, status, payload, extra, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Shutdown with the connection parked between keep-alive
            # requests: close without awaiting (the loop may be tearing
            # down) and swallow the cancellation so asyncio's stream
            # callback doesn't log it as an unhandled error.
            writer.close()
            return
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


def _content_length(
    headers: Dict[str, str]
) -> Tuple[int, Optional[Tuple[int, Dict[str, Any]]]]:
    """The request body's length, or the ``(status, payload)`` rejecting it.

    HTTP allows only ASCII digits here; anything else is a 400, and a
    length above :data:`MAX_BODY_BYTES` is a 413.
    """
    raw = headers.get("content-length", "") or "0"
    if not (raw.isascii() and raw.isdigit()):
        return 0, (400, {"error": f"malformed Content-Length: {raw[:32]!r}"})
    # The digit-count test keeps int() away from arbitrarily long strings.
    if len(raw.lstrip("0")) > len(str(MAX_BODY_BYTES)) or int(raw) > MAX_BODY_BYTES:
        return 0, (413, {"error": f"request body exceeds {MAX_BODY_BYTES} bytes"})
    return int(raw), None


_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    413: "Content Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Union[bytes, Dict[str, Any]],
    extra_headers: Dict[str, str],
    keep_alive: bool,
) -> None:
    body = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}",
        "Content-Type: application/json",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
    writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
    try:
        await writer.drain()
    except ConnectionError:
        pass
