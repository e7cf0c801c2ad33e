"""Exactness test and logarithm helpers.

Time coordinates need no helpers: :class:`repro.scheduling.job.Job` makes
them exact rationals.  :func:`is_exact` serves job *values*, which keep
their type; the bitset search arms its fractional bound only on exact ones.
"""

from __future__ import annotations

import math
from numbers import Rational


def is_exact(*values) -> bool:
    """Return ``True`` when every value is an exact rational (int/Fraction).

    Booleans are ints in Python and therefore count as exact; floats and
    numpy floats do not.
    """
    return all(isinstance(v, Rational) for v in values)


def log_base(x, base) -> float:
    """``log_base(x)`` with guards for the degenerate inputs the bounds use.

    The paper's bounds ``log_{k+1} n`` and ``log_{k+1} P`` are only
    meaningful for ``base > 1`` and ``x >= 1``; we clamp ``x`` below by 1
    (an empty or singleton instance loses nothing) and reject ``base <= 1``
    loudly, because calling this with ``k = 0`` is always a bug — the paper
    treats ``k = 0`` separately (Section 5).
    """
    if base <= 1:
        raise ValueError(f"log base must exceed 1, got {base} (use the k=0 analysis instead)")
    x = max(x, 1)
    return math.log(x) / math.log(base)


def floor_log(x, base) -> int:
    """Largest integer ``e`` with ``base**e <= x`` (exact for int inputs).

    Uses integer arithmetic to dodge float-boundary errors such as
    ``log(243, 3) = 4.999999…``.
    """
    if base <= 1:
        raise ValueError(f"log base must exceed 1, got {base}")
    if x < 1:
        raise ValueError(f"floor_log requires x >= 1, got {x}")
    e = 0
    power = base
    while power <= x:
        e += 1
        power *= base
    return e


def ceil_log(x, base) -> int:
    """Smallest integer ``e`` with ``base**e >= x``."""
    if base <= 1:
        raise ValueError(f"log base must exceed 1, got {base}")
    if x <= 0:
        raise ValueError(f"ceil_log requires x > 0, got {x}")
    if x <= 1:
        return 0
    e = floor_log(x, base)
    return e if base**e == x else e + 1

