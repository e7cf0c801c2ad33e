"""Shard workers: one :class:`~repro.serve.SolverService` per process.

The gateway talks to each shard over a line-delimited JSON (NDJSON)
socket protocol, multiplexed by message id so many requests share one
connection:

    -> {"id": 7, "op": "solve", "request": {<repro-wire/1 solve_request>}}
    <- {"id": 7, "ok": true, "result": {<repro-wire/1 solve_result>}}

Ops: ``solve`` (one request through :meth:`SolverService.submit`),
``stats`` (a :meth:`ServiceStats.as_dict` snapshot), ``ping`` and
``shutdown``.
Failures travel as ``{"ok": false, "error": ..., "etype": ...}`` —
``etype`` preserves enough type information for the gateway to map
validation errors to HTTP 400 and everything else to 502.

Two shard flavours implement the same async ``start/call/stop`` surface:

* :class:`ProcessShard` — a forked worker process owning the service and
  an asyncio NDJSON server on a loopback port (handed back over a pipe),
  reached through a :class:`ShardLink`;
* :class:`InlineShard` — an in-process service behind the *same* op
  handler and wire codec, for tests and oracles that must not fork.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
from typing import Any, Dict, Optional

from repro.api import SolveRequest

__all__ = ["ShardError", "ShardLink", "InlineShard", "ProcessShard"]

#: Validation error types that the gateway maps to HTTP 400.
_CLIENT_ERROR_TYPES = ("ValueError", "TypeError", "KeyError")


class ShardError(RuntimeError):
    """A shard replied ``ok: false``; carries the remote error type."""

    def __init__(self, message: str, etype: str = "RuntimeError"):
        super().__init__(message)
        self.etype = etype

    @property
    def is_client_error(self) -> bool:
        return self.etype in _CLIENT_ERROR_TYPES


# ---------------------------------------------------------------------------
# op handling (shared by the worker process and InlineShard)
# ---------------------------------------------------------------------------


async def _handle_op(svc, msg: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one protocol op against a service; returns the reply body."""
    op = msg.get("op")
    if op == "ping":
        return {"ok": True, "pid": os.getpid()}
    if op == "stats":
        return {"ok": True, "stats": svc.stats().as_dict()}
    if op == "solve":
        req = SolveRequest.from_wire(msg["request"])
        result = await asyncio.wrap_future(svc.submit(req))
        return {"ok": True, "result": result.to_wire()}
    if op == "shutdown":
        return {"ok": True, "stop": True}
    raise ValueError(f"unknown shard op {op!r}")


async def _safe_handle_op(svc, msg: Dict[str, Any]) -> Dict[str, Any]:
    try:
        reply = await _handle_op(svc, msg)
    except Exception as exc:
        reply = {"ok": False, "error": str(exc), "etype": type(exc).__name__}
    if "id" in msg:
        reply["id"] = msg["id"]
    return reply


# ---------------------------------------------------------------------------
# the worker process
# ---------------------------------------------------------------------------


async def _shard_serve(conn, service_kwargs: Dict[str, Any]) -> None:
    from repro.serve import SolverService

    svc = SolverService(**service_kwargs)
    stop = asyncio.Event()

    async def handle_conn(reader, writer):
        write_lock = asyncio.Lock()

        async def serve_one(msg):
            reply = await _safe_handle_op(svc, msg)
            async with write_lock:
                writer.write(json.dumps(reply).encode() + b"\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    return
            if reply.get("stop"):
                stop.set()

        tasks = set()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    msg = json.loads(line)
                except json.JSONDecodeError:
                    break
                task = asyncio.ensure_future(serve_one(msg))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except asyncio.CancelledError:
            # asyncio.run teardown after a shutdown op cancels the pending
            # readline; finish quietly rather than logging a cancellation.
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle_conn, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    conn.send(port)
    conn.close()
    try:
        async with server:
            await stop.wait()
    finally:
        svc.shutdown()


def _shard_main(conn, service_kwargs: Dict[str, Any]) -> None:
    asyncio.run(_shard_serve(conn, service_kwargs))


# ---------------------------------------------------------------------------
# the gateway side
# ---------------------------------------------------------------------------


class ShardLink:
    """One NDJSON connection to a shard, multiplexed by message id.

    The link tracks its own liveness: when the read loop exits — the
    shard died, closed the socket, or sent garbage — the link flips to
    *closed* and every subsequent :meth:`call` fails fast with
    ``ShardError("shard connection closed")`` instead of writing into a
    dead socket (which used to hang forever on a reply that could never
    arrive, or leak a raw :class:`ConnectionResetError`).  The
    supervisor polls :attr:`closed` as a zero-cost health signal.
    """

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._next_id = 0
        self._reader_task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        """True once the read loop has exited (no reply can ever arrive)."""
        return self._closed

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port
        )
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                reply = json.loads(line)
                fut = self._pending.pop(reply.get("id"), None)
                if fut is not None and not fut.done():
                    fut.set_result(reply)
        except (ConnectionError, json.JSONDecodeError):
            pass
        finally:
            self._closed = True
            for fut in self._pending.values():
                if not fut.done():
                    fut.set_exception(
                        ShardError("shard connection closed", "ConnectionError")
                    )
            self._pending.clear()

    async def call(self, op: str, **payload) -> Dict[str, Any]:
        """Send one op; await and unwrap its reply (raises :class:`ShardError`)."""
        if self._writer is None:
            raise ShardError("shard link not connected", "ConnectionError")
        if self._closed:
            raise ShardError("shard connection closed", "ConnectionError")
        self._next_id += 1
        msg_id = self._next_id
        fut: "asyncio.Future[Dict[str, Any]]" = asyncio.get_event_loop().create_future()
        self._pending[msg_id] = fut
        msg = {"id": msg_id, "op": op, **payload}
        try:
            async with self._write_lock:
                self._writer.write(json.dumps(msg).encode() + b"\n")
                await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._pending.pop(msg_id, None)
            self._closed = True
            raise ShardError(
                f"shard connection closed ({exc})", "ConnectionError"
            ) from exc
        reply = await fut
        if not reply.get("ok"):
            raise ShardError(
                reply.get("error", "shard error"), reply.get("etype", "RuntimeError")
            )
        return reply

    def abort(self) -> None:
        """Drop the transport immediately (chaos: a snapped network link)."""
        if self._writer is not None:
            transport = self._writer.transport
            if transport is not None:
                transport.abort()
        self._closed = True

    async def close(self) -> None:
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass


class InlineShard:
    """An in-process shard: same ops and wire codec, no process, no socket.

    Tests and the differential oracle use it so shard behaviour (including
    every encode/decode) is exercised without multiprocessing or ports.
    """

    def __init__(self, **service_kwargs):
        from repro.serve import SolverService

        self._svc = SolverService(**service_kwargs)

    async def start(self) -> None:  # symmetry with ProcessShard
        return None

    def is_alive(self) -> bool:  # symmetry with ProcessShard
        return True

    async def call(self, op: str, **payload) -> Dict[str, Any]:
        reply = await _safe_handle_op(self._svc, {"op": op, **payload})
        if not reply.get("ok"):
            raise ShardError(
                reply.get("error", "shard error"), reply.get("etype", "RuntimeError")
            )
        return reply

    async def stop(self) -> None:
        self._svc.shutdown()


class ProcessShard:
    """A shard worker in its own process, reached over a :class:`ShardLink`.

    :meth:`start` is re-entrant after :meth:`stop`: every start forks a
    fresh worker and opens a fresh link, which is what the supervisor's
    restart path relies on.  A shard built with ``store_path`` in its
    ``service_kwargs`` re-warms its cache from that store on every
    start, so a supervised restart recovers its hot set from disk
    instead of recomputing it.
    """

    def __init__(self, service_kwargs: Optional[Dict[str, Any]] = None):
        self._service_kwargs = dict(service_kwargs or {})
        self._proc: Optional[multiprocessing.Process] = None
        self._link: Optional[ShardLink] = None
        self.port: Optional[int] = None

    @property
    def pid(self) -> Optional[int]:
        """The worker's OS pid (chaos harnesses SIGKILL it directly)."""
        return self._proc.pid if self._proc is not None else None

    @property
    def link(self) -> Optional[ShardLink]:
        return self._link

    def is_alive(self) -> bool:
        """Process-level liveness: the strongest (and cheapest) health signal."""
        return self._proc is not None and self._proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker process (fault injection only — no cleanup)."""
        if self._proc is not None and self._proc.is_alive():
            self._proc.kill()

    async def start(self) -> None:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = multiprocessing.get_context()
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self._proc = ctx.Process(
            target=_shard_main,
            args=(child_conn, self._service_kwargs),
            daemon=True,
            name="repro-gateway-shard",
        )
        self._proc.start()
        child_conn.close()
        # Poll without blocking: a supervised restart runs on the gateway's
        # own event loop, so a synchronous 30s pipe wait here would freeze
        # every in-flight request for the duration.
        deadline = asyncio.get_event_loop().time() + 30.0
        while not parent_conn.poll(0):
            if (
                asyncio.get_event_loop().time() >= deadline
                or not self._proc.is_alive()
            ):
                parent_conn.close()
                self._reap(self._proc)
                self._proc = None
                raise RuntimeError("shard worker did not report its port")
            await asyncio.sleep(0.01)
        self.port = parent_conn.recv()
        parent_conn.close()
        self._link = ShardLink("127.0.0.1", self.port)
        await self._link.connect()

    async def call(self, op: str, **payload) -> Dict[str, Any]:
        if self._link is None:
            raise ShardError("shard not started", "ConnectionError")
        return await self._link.call(op, **payload)

    async def stop(self) -> None:
        if self._link is not None:
            try:
                # Bounded: a wedged-but-connected worker (e.g. a fork that
                # deadlocked on an inherited lock) accepts the write but
                # never replies — an unbounded await here wedges the whole
                # gateway teardown with it.
                await asyncio.wait_for(self._link.call("shutdown"), 2.0)
            except (ShardError, asyncio.TimeoutError):
                pass
            await self._link.close()
            self._link = None
        if self._proc is not None:
            self._reap(self._proc)
            self._proc = None

    @staticmethod
    def _reap(proc: multiprocessing.Process) -> None:
        """Wait briefly for a clean exit, then escalate SIGTERM → SIGKILL."""
        proc.join(timeout=5)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2)
        if proc.is_alive():  # pragma: no cover - ignores SIGTERM
            proc.kill()
            proc.join(timeout=2)
