"""LRU result cache for the solver service.

A deliberately small, lock-free (the service serialises access under its
own lock) LRU keyed by the canonical request key of
:func:`repro.api.request_key`.  Entries are whole
:class:`~repro.api.SolveResult` objects — safe to share across requests
because a key equality guarantees the cached artifact is verbatim valid
for the requesting instance (see ``JobSet.canonical_key``).

The cache is a guarded consumer of the test-only fault switchboard:
arming ``serve.drop_cache_entry`` (:mod:`repro.utils.faults`) makes every
lookup drop its entry and report a miss, which must degrade the service
to cold-solve throughput without ever crashing it —
``tests/test_failure_injection.py`` proves exactly that.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, List, Optional

from repro.utils import faults

__all__ = ["LruCache"]


class LruCache:
    """Bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency; ``put`` returns the number of evictions it
    caused (0 or 1) so the owner can keep an eviction counter without
    reaching into cache internals.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[str, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def get(self, key: str) -> Optional[Any]:
        """The cached value, refreshed to most-recent — or ``None``.

        With the ``serve.drop_cache_entry`` fault armed the entry (if any)
        is discarded and the lookup reports a miss: the failure mode a
        production cache wipe would produce, which the service must absorb
        as extra cold solves rather than an error.
        """
        if faults.is_active("serve.drop_cache_entry"):
            self._data.pop(key, None)
            return None
        try:
            value = self._data[key]
        except KeyError:
            return None
        self._data.move_to_end(key)
        return value

    def put(self, key: str, value: Any) -> int:
        """Store ``value``; returns how many entries were evicted (0 or 1)."""
        if key in self._data:
            self._data[key] = value
            self._data.move_to_end(key)
            return 0
        self._data[key] = value
        evicted = 0
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            evicted += 1
        return evicted

    def clear(self) -> None:
        self._data.clear()

    def keys(self) -> List[str]:
        """Keys from least- to most-recently used (snapshot)."""
        return list(self._data.keys())
