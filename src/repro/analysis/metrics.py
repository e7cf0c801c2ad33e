"""Derived metrics: loss factors, realised prices and shape diagnostics.

``series_slope_vs_log`` is the experiments' main "shape" check: the
theorems predict quantities growing like ``log_{k+1} n`` or
``log_{k+1} P``, so a least-squares fit of the measured series against the
predicted logarithmic series should give a slope bounded away from zero
(lower bounds) or at most ~1 (upper bounds).
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np


def loss_factor(total_value, achieved_value) -> float:
    """``val(T) / val(ALG(T))`` (Definition 3.4)."""
    if achieved_value <= 0:
        return float("inf")
    return float(total_value / achieved_value)


def realized_price(opt_infty, alg_value) -> float:
    """``OPT_∞ / ALG_k`` for one instance.

    An upper bound on the instance's true price ``OPT_∞ / OPT_k`` (since
    ``ALG_k <= OPT_k``) only when ``opt_infty`` is the exact optimum.  With
    a heuristic numerator, such as the iterated greedy of
    :func:`repro.core.multimachine.multimachine_opt_infty`, it bounds the
    price from neither side."""
    if alg_value <= 0:
        return float("inf")
    return float(opt_infty / alg_value)


def series_slope_vs_log(xs: Sequence[float], ys: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``y ≈ slope * x + intercept``.

    Callers pass ``xs`` already in log space (e.g. ``log_{k+1} n``), so the
    slope measures the constant in front of the predicted logarithm.
    Returns ``(slope, intercept)``.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length series with >= 2 points")
    A = np.vstack([np.asarray(xs, dtype=float), np.ones(len(xs))]).T
    slope, intercept = np.linalg.lstsq(A, np.asarray(ys, dtype=float), rcond=None)[0]
    return float(slope), float(intercept)


def geometric_decay_rate(series: Sequence[float]) -> float:
    """Average per-step decay factor of a positive series.

    Lemma 3.18 predicts layer sizes decaying at least ``(k+1)``-fold per
    contraction iteration; this measures the realised geometric rate.
    """
    vals = [float(v) for v in series if v > 0]
    if len(vals) < 2:
        return float("nan")
    ratios = [vals[i] / vals[i + 1] for i in range(len(vals) - 1) if vals[i + 1] > 0]
    if not ratios:
        return float("nan")
    return float(np.exp(np.mean(np.log(ratios))))
