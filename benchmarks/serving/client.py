"""The load generator: one asyncio thread, at most two keep-alive sockets.

Both phases share :class:`Connection`, which sends pre-serialised request
bytes and keeps the raw response body; parsing and answer checks happen
after the phase, outside the timed path.  Every timestamp is
``time.perf_counter()``, the system-wide monotonic clock on Linux, so the
server's span timestamps can be compared with the client's.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

#: The most connections the generator opens at once.
CONNECTIONS = 2

#: A request unanswered after this long counts as failed.
CLIENT_TIMEOUT_S = 10.0


@dataclass
class Outcome:
    """One request as the client saw it (status -1: no HTTP answer)."""

    index: int
    due: float
    woke: float
    sent: float
    done: float
    status: int
    body: bytes


class Connection:
    """One keep-alive HTTP/1.1 connection, reopened after any failure."""

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def exchange(self, payload: bytes) -> Tuple[int, bytes]:
        """Send one request; returns ``(status, body)``, status -1 on failure."""
        try:
            return await asyncio.wait_for(self._exchange(payload), CLIENT_TIMEOUT_S)
        except (asyncio.TimeoutError, ConnectionError, OSError, asyncio.IncompleteReadError, ValueError):
            # The socket may still owe a late reply; never reuse it.
            await self.close()
            return -1, b""

    async def _exchange(self, payload: bytes) -> Tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(self._host, self._port)
        self._writer.write(payload)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionResetError("connection closed before the status line")
        status = int(status_line.split()[1])
        length = 0
        keep_alive = True
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                keep_alive = value.strip().lower() != "close"
        body = await self._reader.readexactly(length) if length else b""
        if not keep_alive:
            await self.close()
        return status, body

    async def close(self) -> None:
        writer, self._reader, self._writer = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def open_loop(
    connections: Sequence[Connection], due: Sequence[float], payloads: Sequence[bytes]
) -> List[Outcome]:
    """Send ``payloads[i]`` at ``due[i]`` seconds after the start, whether or
    not earlier requests have returned.

    A request waits in a queue when every connection is busy; its latency
    runs from when it was due, so that wait counts.  Returns the outcomes in
    completion order.
    """
    queue: "asyncio.Queue[Optional[Tuple[int, float, float]]]" = asyncio.Queue()
    outcomes: List[Outcome] = []

    async def worker(conn: Connection) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due_at, woke = item
            sent = time.perf_counter()
            status, body = await conn.exchange(payloads[index])
            outcomes.append(Outcome(index, due_at, woke, sent, time.perf_counter(), status, body))

    workers = [asyncio.ensure_future(worker(conn)) for conn in connections]
    start = time.perf_counter()
    try:
        for index, offset in enumerate(due):
            due_at = start + offset
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((index, due_at, time.perf_counter()))
    finally:
        for _ in workers:
            queue.put_nowait(None)
        await asyncio.gather(*workers)
    return outcomes


async def closed_loop(
    connections: Sequence[Connection], payloads: Sequence[bytes], seconds: float
) -> Tuple[List[Outcome], float]:
    """Every connection sends back to back until ``seconds`` have passed.

    Returns the outcomes and the elapsed time until the last reply; no new
    request starts after the deadline, and the plan ending early ends the
    phase early.
    """
    outcomes: List[Outcome] = []
    next_index = 0
    start = time.perf_counter()
    stop_at = start + seconds

    async def worker(conn: Connection) -> None:
        nonlocal next_index
        while next_index < len(payloads):
            sent = time.perf_counter()
            if sent >= stop_at:
                return
            index = next_index
            next_index += 1
            status, body = await conn.exchange(payloads[index])
            outcomes.append(Outcome(index, sent, sent, sent, time.perf_counter(), status, body))

    await asyncio.gather(*(worker(conn) for conn in connections))
    return outcomes, time.perf_counter() - start
