"""Shard routing and per-tenant admission primitives for the gateway.

Routing is pure hashing: a request lands on the shard owned by its
instance's :meth:`~repro.scheduling.job.JobSet.canonical_key` — the same
order- and representation-independent SHA-256 hex the
:class:`~repro.serve.SolverService` cache is keyed by.  Permuted or
re-typed copies of an instance therefore always hit the same shard, and
that shard's cache, so the fleet behaves like one big cache partitioned
by key space (no cross-shard duplication of hot entries).

The key space is partitioned by a consistent-hash ring of virtual nodes
(:class:`HashRing` / :func:`ring_shard_for_key`): each shard owns
``vnodes`` pseudo-random points on the 64-bit circle (SHA-256 of
``repro-ring/<shard>/<vnode>``, so placement is deterministic across
processes and runs), and a key belongs to the first point at or after
the first 64 bits of its hex digest.  Adding a shard moves only the arcs
the new shard's points capture — ~1/(N+1) of the key space — so a fleet
can grow without flushing every shard's cache.

Quotas are classic token buckets, one per tenant, with an injectable
clock so tests never sleep.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "ring_shard_for_key",
    "HashRing",
    "ring_movement",
    "TokenBucket",
    "QuotaManager",
]


_RING_SPACE = 1 << 64


def _key_point(canonical_key: str) -> int:
    """A key's position on the 64-bit ring: its digest's first 64 bits."""
    if len(canonical_key) < 16:
        raise ValueError(f"canonical key too short: {canonical_key!r}")
    return int(canonical_key[:16], 16)


def _vnode_point(shard: int, vnode: int) -> int:
    """A virtual node's ring position — SHA-256, never ``hash()``, so the
    ring is identical in every process regardless of PYTHONHASHSEED."""
    digest = hashlib.sha256(f"repro-ring/{shard}/{vnode}".encode()).hexdigest()
    return int(digest[:16], 16)


class HashRing:
    """A consistent-hash ring: ``shards`` owners × ``vnodes`` points each.

    Lookup is a bisect over the sorted point list (ties broken by shard
    index through tuple ordering, deterministically).  The ring for a
    given ``(shards, vnodes)`` pair is a pure function of those two
    integers — no state, no randomness — so every gateway, test and
    client-side router that builds one agrees on every assignment.
    """

    def __init__(self, shards: int, *, vnodes: int = 64):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.shards = shards
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = [
            (_vnode_point(s, v), s) for s in range(shards) for v in range(vnodes)
        ]
        points.sort()
        self._points = points
        self._positions = [p for p, _ in points]

    def shard_for(self, canonical_key: str) -> int:
        """The shard owning ``canonical_key``: first vnode at/after its point."""
        return self.owner_of_point(_key_point(canonical_key))

    def owner_of_point(self, point: int) -> int:
        index = bisect.bisect_left(self._positions, point % _RING_SPACE)
        if index == len(self._points):  # wrap past the last vnode
            index = 0
        return self._points[index][1]


def ring_shard_for_key(canonical_key: str, shards: int, *, vnodes: int = 64) -> int:
    """Consistent-hash routing for one key (builds a throwaway ring —
    callers on a hot path should hold a :class:`HashRing` instead)."""
    return HashRing(shards, vnodes=vnodes).shard_for(canonical_key)


def ring_movement(old: HashRing, new: HashRing) -> Tuple[int, float]:
    """How much of the key space changes owner between two rings.

    Returns ``(moved_arcs, moved_fraction)`` computed *exactly* by
    sweeping the merged elementary arcs of both rings — no key sampling,
    so reshard accounting is deterministic.  ``moved_fraction`` is the
    probability a uniformly random key relocates; for a grow from N to
    N+1 shards it concentrates near ``1/(N+1)``.
    """
    boundaries = sorted(
        {p % _RING_SPACE for p in old._positions} | {p % _RING_SPACE for p in new._positions}
    )
    if not boundaries:
        return 0, 0.0
    moved_arcs = 0
    moved_length = 0
    for i, start in enumerate(boundaries):
        end = boundaries[i + 1] if i + 1 < len(boundaries) else boundaries[0] + _RING_SPACE
        if end == start:
            continue
        # Owners are constant on (start, end): probe just past the arc start.
        probe = (start + 1) % _RING_SPACE
        if old.owner_of_point(probe) != new.owner_of_point(probe):
            moved_arcs += 1
            moved_length += end - start
    return moved_arcs, moved_length / _RING_SPACE


class TokenBucket:
    """A token bucket: sustained ``rate`` tokens/s, bursts up to ``burst``.

    Not thread-safe — the gateway drives it from one event loop.  The
    ``clock`` is injectable (monotonic seconds) so tests can step time.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self._rate = float(rate)
        self._burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def try_acquire(self, cost: float = 1.0) -> Tuple[bool, float]:
        """Take ``cost`` tokens if available.

        Returns ``(True, 0.0)`` on success, else ``(False, retry_after_s)``
        where ``retry_after_s`` is when the bucket will next hold ``cost``
        tokens at the sustained rate.
        """
        now = self._clock()
        self._tokens = min(self._burst, self._tokens + (now - self._last) * self._rate)
        self._last = now
        if self._tokens >= cost:
            self._tokens -= cost
            return True, 0.0
        return False, (cost - self._tokens) / self._rate


class QuotaManager:
    """Per-tenant token buckets, created lazily on first sight of a tenant.

    ``rate=None`` disables quotas entirely (every check admits).
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._rate = rate
        self._burst = float(burst) if burst is not None else (
            max(1.0, 2.0 * rate) if rate is not None else 1.0
        )
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}

    def check(self, tenant: str) -> Tuple[bool, float]:
        """Admit one request for ``tenant``; see :meth:`TokenBucket.try_acquire`."""
        if self._rate is None:
            return True, 0.0
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self._rate, self._burst, clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket.try_acquire()
