"""Price-of-bounded-preemption measurement and bound formulas.

``PoBP_k = sup_J OPT_∞(J) / OPT_k(J)`` is the paper's central quantity.
Experiments measure a *realised* price — the ratio of a known-or-computed
``OPT_∞`` to the value our k-bounded algorithms achieve — which upper-
bounds the ratio against the true (unknown, NP-hard) ``OPT_k`` from above
on the algorithm side and certifies the bounds: every measured ratio must
sit below the theorem's formula.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.utils.numeric import log_base


def price_bound_n(n: int, k: int) -> float:
    """Theorem 4.2: ``PoBP_k <= ⌊log_{k+1} n⌋ + 1``.

    The reduction inherits the k-BAS loss factor, and the provable factor is
    the integer Lemma 3.18 layer count, not the raw real log (see
    :func:`repro.core.bas.bounds.bas_loss_bound` for the 4-node
    counterexample to the unclamped form).
    """
    from repro.core.bas.bounds import lc_layer_bound

    return float(lc_layer_bound(n, k))


def price_bound_P(P, k: int, *, constant: float = 6.0) -> float:
    """Theorem 4.5 / Lemma 4.10: ``PoBP_k = O(log_{k+1} P)``.

    The constructive constant from the LSA_CS analysis is 6 (Lemma 4.10);
    pass ``constant=1`` for the bare asymptotic form.  The combined
    Algorithm 3 carries a further factor 2 from the strict/lax split, which
    callers add explicitly when they certify Algorithm 3's output.
    """
    if k < 1:
        raise ValueError(f"bound defined for k >= 1, got {k}")
    return constant * max(1.0, log_base(P, k + 1))


def price_bound_k0(n: int, P) -> float:
    """Section 5: ``PoBP_0 = Θ(min{n, log P})``; upper-bound form with the
    constructive constant 3 on the ``log P`` arm."""
    return min(float(n), 3.0 * max(1.0, log_base(P, 2)))


class PriceMeasurement(NamedTuple):
    """A realised price with the applicable theoretical ceiling."""

    opt_infty: float
    alg_value: float
    price: float
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.price <= self.bound * (1 + 1e-9)

    @property
    def tightness(self) -> float:
        """Fraction of the theoretical ceiling actually realised."""
        return self.price / self.bound if self.bound > 0 else float("inf")


def measured_price(
    opt_infty_value,
    alg_value,
    *,
    n: Optional[int] = None,
    P=None,
    k: Optional[int] = None,
    bound: Optional[float] = None,
) -> PriceMeasurement:
    """Package a realised price against its bound.

    Either supply ``bound`` directly, or supply ``k`` together with ``n``
    and/or ``P`` and the tighter applicable theorem bound is used
    (``min`` of Theorem 4.2's and Theorem 4.5's formulas).
    """
    if alg_value <= 0:
        raise ValueError("algorithm value must be positive to price against")
    price = opt_infty_value / alg_value
    if bound is None:
        if k is None:
            raise ValueError("supply either bound= or k= (with n and/or P)")
        candidates = []
        if k == 0:
            if n is None or P is None:
                raise ValueError("k = 0 bound needs both n and P")
            candidates.append(price_bound_k0(n, P))
        else:
            if n is not None:
                candidates.append(price_bound_n(n, k))
            if P is not None:
                candidates.append(2 * price_bound_P(P, k))
        if not candidates:
            raise ValueError("supply n and/or P to derive a bound")
        bound = min(candidates)
    return PriceMeasurement(
        opt_infty=float(opt_infty_value),
        alg_value=float(alg_value),
        price=float(price),
        bound=float(bound),
    )
