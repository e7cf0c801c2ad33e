"""Shared low-level utilities: the exactness test, logarithm helpers,
deterministic RNG construction, and small functional helpers.

Time coordinates need no comparison helpers: :class:`repro.scheduling.job.Job`
makes every release, deadline and length an exact rational (``int`` or
:class:`fractions.Fraction`) at construction, so the whole library compares
them with plain operators.
"""

from repro.utils.numeric import (
    is_exact,
    log_base,
    ceil_log,
    floor_log,
)
from repro.utils.rng import make_rng, spawn_rngs

__all__ = [
    "is_exact",
    "log_base",
    "ceil_log",
    "floor_log",
    "make_rng",
    "spawn_rngs",
]
