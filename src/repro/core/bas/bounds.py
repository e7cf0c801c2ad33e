"""Closed-form bounds and Appendix-A analytic values for k-BAS.

These are the formulas the experiments compare measured quantities against:

* the loss-factor upper bound ``log_{k+1} n`` (Theorem 3.9);
* the per-level ``t``/``m`` aggregates of the Appendix-A instance
  (Lemma A.2), the total algorithm value ``< K/(K-k)`` (Corollary A.3),
  and the instance's total value ``L + 1`` (Observation A.1).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

def lc_layer_bound(n: int, k: int) -> int:
    """Lemma 3.18's layer count: ``⌊log_{k+1} n⌋ + 1``, computed exactly.

    LevelledContraction's layers shrink by a factor ``>= k + 1`` each
    iteration, so a forest of ``n`` nodes yields at most this many layers.
    Integer arithmetic (no float ``log``) so exact powers of ``k + 1`` never
    round to the wrong side.
    """
    if k < 1:
        raise ValueError(f"bound defined for k >= 1, got {k}")
    if n < 1:
        raise ValueError(f"bound defined for n >= 1, got {n}")
    layers = 1
    power = k + 1
    while power <= n:
        layers += 1
        power *= k + 1
    return layers


def bas_loss_bound(n: int, k: int) -> float:
    """Theorem 3.9's provable guarantee: the optimal k-BAS loses at most a
    ``⌊log_{k+1} n⌋ + 1`` factor (the Lemma 3.18 layer count — the best of
    ``L`` value-partitioning layers carries at least a ``1/L`` share).

    The paper's ``O(log_{k+1} n)`` headline hides this integer ceiling: the
    raw real ``log_{k+1} n`` is *not* a valid factor (a 4-node star with
    uniform values and ``k = 2`` already loses ``4/3 > log_3 4``), so the
    bound here is the exact layer count the contraction argument proves.
    """
    return float(lc_layer_bound(n, k))


def appendix_a_total_value(L: int) -> int:
    """Observation A.1: each of the ``L + 1`` levels carries total value 1."""
    return L + 1


def appendix_a_tm_values(k: int, K: int, L: int, level: int) -> Tuple[Fraction, Fraction]:
    """Lemma A.2's closed forms for a node at ``level`` of the instance:

    ``t(v) = K^{-level} * Σ_{j=0}^{L-level} (k/K)^j``
    ``m(v) = K^{-level} * Σ_{j=0}^{L-level-1} (k/K)^j``

    Returned as exact fractions so the golden tests compare exactly against
    the DP run on a value-scaled copy of the tree.
    """
    if not (0 <= level <= L):
        raise ValueError(f"level must be in [0, {L}], got {level}")
    ratio = Fraction(k, K)
    scale = Fraction(1, K**level)
    t = scale * sum(ratio**j for j in range(L - level + 1))
    m = scale * sum(ratio**j for j in range(L - level))
    return t, m


def appendix_a_alg_value(k: int, K: int, L: int) -> Fraction:
    """Corollary A.3: TM's value on the instance is ``t(root) = Σ (k/K)^j``,
    strictly below ``K / (K - k)``."""
    t_root, _ = appendix_a_tm_values(k, K, L, 0)
    return t_root


def appendix_a_loss_lower_bound(k: int, L: int) -> float:
    """The realised loss with ``K = 2k``: total value ``L + 1`` against an
    algorithm value below 2, i.e. loss ``> (L + 1)/2 = Ω(log_{k+1} n)``
    (proof of Theorem 3.20)."""
    K = 2 * k
    alg = appendix_a_alg_value(k, K, L)
    return float(Fraction(L + 1) / alg)


def appendix_a_size(K: int, L: int) -> int:
    """Number of nodes: ``Σ_{i=0}^{L} K^i = (K^{L+1} - 1)/(K - 1)``."""
    if K == 1:
        return L + 1
    return (K ** (L + 1) - 1) // (K - 1)
