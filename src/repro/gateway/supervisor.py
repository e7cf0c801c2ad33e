"""Shard supervision: health checks, failure detection, restart with backoff.

The gateway's availability story used to end at the shard boundary — a
dead worker process simply failed every request hashed to it.  The
:class:`ShardSupervisor` closes that gap with a single asyncio task that
sweeps the fleet every ``interval_s``:

* **detection** — three escalating signals per shard, cheapest first:
  the worker process is no longer alive (``ProcessShard.is_alive()``),
  the NDJSON link's read loop has exited (``ShardLink.closed``), or
  ``max_ping_failures`` *consecutive* ``ping`` ops timed out after
  ``ping_timeout_s`` each (a wedged-but-alive worker);
* **restart** — the failed shard is rebuilt through the gateway's own
  shard factory with exponential backoff (``backoff_base_s`` doubling up
  to ``backoff_max_s``), so a crash-looping worker cannot spin the
  supervisor.  A store-backed shard re-warms its cache from its
  ``shard-NN`` store during start, making recovery a disk read rather
  than a recompute;
* **accounting** — every incident is recorded (shard, reason, detection
  and recovery timestamps, attempts) and closed under a
  ``gateway.supervise`` tracer span; successful restarts count
  ``gateway.shard_restarts``.

While a shard is down the gateway diverts its requests to the bounded
retry / ``503 Retry-After`` path (see ``core.py``) instead of throwing
``ShardError`` at clients.

The supervisor is also the actuation point for the chaos switchboard
(:mod:`repro.utils.faults`): arming ``gateway.kill_shard`` SIGKILLs one
live worker (once per arming), ``gateway.drop_link`` snaps one shard's
socket (once per arming), and ``gateway.slow_ping`` delays every health
probe past its timeout for as long as it stays armed.  Faults are
never consulted anywhere else on the request path, so the disarmed cost
is one set-emptiness check per sweep.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.gateway.shard import ShardError
from repro.utils import faults

__all__ = ["ShardIncident", "ShardSupervisor"]

#: One-shot chaos faults: acted on once per arming, re-armed by a fresh
#: ``faults.inject`` block.  ``gateway.slow_ping`` is level-triggered
#: instead (it degrades every probe while armed) so it is not listed.
_ONESHOT_FAULTS = ("gateway.kill_shard", "gateway.drop_link")


@dataclass
class ShardIncident:
    """One detected shard failure, from detection to recovery (or not yet)."""

    shard: int
    reason: str
    detected_at: float
    recovered_at: Optional[float] = None
    attempts: int = 0

    @property
    def recovery_ms(self) -> Optional[float]:
        if self.recovered_at is None:
            return None
        return (self.recovered_at - self.detected_at) * 1e3

    def as_dict(self) -> Dict[str, Any]:
        return {
            "shard": self.shard,
            "reason": self.reason,
            "attempts": self.attempts,
            "recovered": self.recovered_at is not None,
            "recovery_ms": self.recovery_ms,
        }


@dataclass
class _ShardHealth:
    ping_failures: int = 0
    restarting: bool = False
    restart_attempts: int = 0


class ShardSupervisor:
    """One background task watching (and healing) a gateway's shard fleet."""

    def __init__(
        self,
        gateway,
        *,
        interval_s: float = 0.25,
        ping_timeout_s: float = 1.0,
        max_ping_failures: int = 3,
        backoff_base_s: float = 0.1,
        backoff_max_s: float = 2.0,
        max_restart_attempts: int = 8,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        if ping_timeout_s <= 0:
            raise ValueError(f"ping_timeout_s must be > 0, got {ping_timeout_s}")
        if max_ping_failures < 1:
            raise ValueError(
                f"max_ping_failures must be >= 1, got {max_ping_failures}"
            )
        self._gateway = gateway
        self._interval_s = interval_s
        self._ping_timeout_s = ping_timeout_s
        self._max_ping_failures = max_ping_failures
        self._backoff_base_s = backoff_base_s
        self._backoff_max_s = backoff_max_s
        self._max_restart_attempts = max_restart_attempts
        self._task: Optional[asyncio.Task] = None
        self._restart_tasks: set = set()
        self._health: Dict[int, _ShardHealth] = {}
        self._chaos_acted: Dict[str, bool] = {name: False for name in _ONESHOT_FAULTS}
        self.incidents: List[ShardIncident] = []
        self.chaos_actions: List[Dict[str, Any]] = []

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        # In-flight restarts must not outlive the supervisor: left running
        # they would fork fresh workers into a gateway that is tearing its
        # shard list down.
        for task in list(self._restart_tasks):
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._restart_tasks.clear()

    def _h(self, index: int) -> _ShardHealth:
        return self._health.setdefault(index, _ShardHealth())

    def status(self) -> Dict[str, Any]:
        """The ``supervisor`` block of ``GET /v1/stats``."""
        return {
            "running": self._task is not None and not self._task.done(),
            "interval_s": self._interval_s,
            "incidents": [inc.as_dict() for inc in self.incidents],
            "chaos_actions": list(self.chaos_actions),
        }

    # -- the sweep ------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            await asyncio.sleep(self._interval_s)
            try:
                await self._tick()
            except asyncio.CancelledError:
                raise
            except Exception:
                # Supervision must outlive any single bad sweep; the next
                # tick re-examines the fleet from scratch.
                continue

    async def _tick(self) -> None:
        self._apply_chaos()
        for index in range(len(self._gateway._shards)):
            health = self._h(index)
            if health.restarting:
                continue
            reason = await self._probe(index)
            if reason is not None:
                self._declare_down(index, reason)

    async def _probe(self, index: int) -> Optional[str]:
        """Health-check one shard; returns a failure reason or None."""
        shard = self._gateway._shards[index]
        health = self._h(index)
        is_alive = getattr(shard, "is_alive", None)
        if callable(is_alive) and not is_alive():
            return "process died"
        link = getattr(shard, "link", None)
        if link is not None and link.closed:
            return "connection closed"
        try:
            await asyncio.wait_for(self._ping(shard), self._ping_timeout_s)
        except asyncio.TimeoutError:
            health.ping_failures += 1
            if health.ping_failures >= self._max_ping_failures:
                return f"{health.ping_failures} consecutive ping timeouts"
            return None
        except ShardError as exc:
            return f"ping failed: {exc}"
        health.ping_failures = 0
        return None

    async def _ping(self, shard) -> None:
        if faults.is_active("gateway.slow_ping"):
            # A slow shard answers, but past the supervisor's patience.
            await asyncio.sleep(self._ping_timeout_s * 2)
        await shard.call("ping")

    # -- failure handling -----------------------------------------------------

    def _declare_down(self, index: int, reason: str) -> None:
        health = self._h(index)
        health.restarting = True
        health.ping_failures = 0
        loop = asyncio.get_event_loop()
        incident = ShardIncident(shard=index, reason=reason, detected_at=loop.time())
        self.incidents.append(incident)
        self._gateway._mark_down(index)
        task = asyncio.ensure_future(self._restart(index, incident))
        self._restart_tasks.add(task)
        task.add_done_callback(self._restart_tasks.discard)

    async def _restart(self, index: int, incident: ShardIncident) -> None:
        health = self._h(index)
        loop = asyncio.get_event_loop()
        try:
            while incident.attempts < self._max_restart_attempts:
                backoff = min(
                    self._backoff_max_s,
                    self._backoff_base_s * (2 ** incident.attempts),
                )
                incident.attempts += 1
                await asyncio.sleep(backoff)
                try:
                    # The attempt as a whole is bounded: stop-old (itself
                    # deadline-guarded), fork, connect, first ping.  A
                    # replacement that wedges before answering costs one
                    # attempt, never the supervisor.
                    await asyncio.wait_for(
                        self._gateway._restart_shard(index), 60.0
                    )
                    await asyncio.wait_for(
                        self._gateway._shards[index].call("ping"),
                        self._ping_timeout_s,
                    )
                except asyncio.CancelledError:
                    raise
                except Exception:
                    continue
                incident.recovered_at = loop.time()
                self._gateway._mark_up(index, incident)
                return
            # Out of attempts: leave the shard down (requests keep getting
            # clean 503s); the next detected incident starts a fresh budget.
        finally:
            health.restarting = False

    # -- chaos actuation ------------------------------------------------------

    def _apply_chaos(self) -> None:
        for name in _ONESHOT_FAULTS:
            if not faults.is_active(name):
                self._chaos_acted[name] = False
                continue
            if self._chaos_acted[name]:
                continue
            self._chaos_acted[name] = True
            victim = self._pick_victim(name)
            if victim is None:
                continue
            index, shard = victim
            if name == "gateway.kill_shard":
                shard.kill()
            else:  # gateway.drop_link
                shard.link.abort()
            self.chaos_actions.append({"fault": name, "shard": index})

    def _pick_victim(self, name: str):
        """The highest-index healthy shard the fault can act on."""
        for index in range(len(self._gateway._shards) - 1, -1, -1):
            if self._h(index).restarting:
                continue
            shard = self._gateway._shards[index]
            if name == "gateway.kill_shard":
                if callable(getattr(shard, "kill", None)) and shard.is_alive():
                    return index, shard
            elif getattr(shard, "link", None) is not None and not shard.link.closed:
                return index, shard
        return None
