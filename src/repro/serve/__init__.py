"""repro.serve — the solver service.

A synchronous-API, concurrently-executing front end over
:func:`repro.api.solve_k_bounded` with canonical-instance caching, request
coalescing and deadline-driven degradation.  See ``docs/SERVING.md``.
"""

from repro.serve.cache import LruCache
from repro.serve.service import ServiceClosed, ServiceStats, SolverService

__all__ = ["LruCache", "ServiceClosed", "ServiceStats", "SolverService"]
