"""The `repro.api` facade: surface snapshot, behaviour, and the
keyword-only parameters on the signatures it standardises.

The signature snapshot is deliberately literal — the facade's stability is
the point, so any drift in exported names, parameter names, kinds or
defaults must fail a test rather than surprise a downstream user.
"""

import inspect

import pytest

import repro
import repro.api as api
from repro.api import METHODS, SolveResult, price_of_bounded_preemption, solve_k_bounded
from repro.core.pricing import PriceMeasurement
from repro.instances import random_jobs, random_lax_jobs
from repro.obs import MemorySink, Tracer
from repro.scheduling.job import JobSet


# ---------------------------------------------------------------------------
# surface snapshot
# ---------------------------------------------------------------------------


def test_api_all_snapshot():
    assert api.__all__ == [
        "WIRE_FORMAT",
        "SolveRequest",
        "SolveResult",
        "request_key",
        "solve_k_bounded",
        "price_of_bounded_preemption",
    ]


def test_solve_k_bounded_signature_snapshot():
    sig = inspect.signature(solve_k_bounded)
    assert str(sig) == (
        "(jobs: 'JobSet', k: 'int', *, machines: 'int' = 1, "
        "method: 'str' = 'auto', enforce_laxity: 'bool' = True) -> 'SolveResult'"
    )
    kinds = {name: p.kind for name, p in sig.parameters.items()}
    assert kinds["machines"] == inspect.Parameter.KEYWORD_ONLY
    assert kinds["method"] == inspect.Parameter.KEYWORD_ONLY
    assert kinds["enforce_laxity"] == inspect.Parameter.KEYWORD_ONLY


def test_price_signature_snapshot():
    sig = inspect.signature(price_of_bounded_preemption)
    assert str(sig) == "(jobs: 'JobSet', k: 'int', *, machines: 'int' = 1) -> 'PriceMeasurement'"


def test_request_key_signature_snapshot():
    sig = inspect.signature(api.request_key)
    assert str(sig) == (
        "(jobs: 'JobSet', k: 'int', *, machines: 'int' = 1, "
        "method: 'str' = 'auto') -> 'str'"
    )


def test_solve_result_fields():
    fields = [f.name for f in SolveResult.__dataclass_fields__.values()]
    assert fields == ["value", "schedule", "preemptions_used", "method", "metrics"]
    assert SolveResult.__dataclass_params__.frozen


def test_top_level_reexports():
    for name in ("solve_k_bounded", "price_of_bounded_preemption",
                 "SolveResult", "PriceMeasurement", "Tracer", "MemorySink"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None
    assert repro.solve_k_bounded is solve_k_bounded
    assert repro.PriceMeasurement is PriceMeasurement


# ---------------------------------------------------------------------------
# behaviour
# ---------------------------------------------------------------------------


def test_solve_every_method_agrees_on_feasibility():
    jobs = random_lax_jobs(12, k=2, seed=1)
    from repro.scheduling.verify import verify_schedule

    for method in METHODS:
        result = solve_k_bounded(jobs, 2, method=method)
        assert isinstance(result, SolveResult)
        verify_schedule(result.schedule, k=2).assert_ok()
        assert result.preemptions_used <= 2
        assert result.value == result.schedule.value
        assert result.accepted_ids == list(result.schedule.scheduled_ids)


def test_solve_k0_is_nonpreemptive():
    jobs = random_jobs(10, seed=4)
    result = solve_k_bounded(jobs, 0)
    assert result.preemptions_used == 0
    assert result.method == "combined"


def test_solve_multimachine():
    jobs = random_jobs(14, seed=3)
    single = solve_k_bounded(jobs, 2)
    double = solve_k_bounded(jobs, 2, machines=2)
    assert double.method == "multimachine"
    assert double.value >= single.value  # a second machine never hurts


def test_solve_rejects_bad_arguments():
    jobs = random_jobs(6, seed=0)
    with pytest.raises(ValueError):
        solve_k_bounded(jobs, -1)
    with pytest.raises(ValueError):
        solve_k_bounded(jobs, 1, machines=0)
    with pytest.raises(ValueError):
        solve_k_bounded(jobs, 1, method="nope")
    with pytest.raises(ValueError):
        solve_k_bounded(jobs, 1, machines=2, method="lsa")
    with pytest.raises(ValueError):
        solve_k_bounded(jobs, 0, method="reduction")
    with pytest.raises(TypeError):
        solve_k_bounded(jobs, 1, 2)  # machines is keyword-only


def test_lsa_method_enforces_laxity_by_default():
    """method='lsa' keeps its historical strict-input validation; the serve
    degradation path opts out explicitly with enforce_laxity=False."""
    strict = repro.make_jobs([(0, 10, 9, 5.0)])  # λ = 10/9 < k + 1
    with pytest.raises(ValueError, match="lax"):
        solve_k_bounded(strict, 1, method="lsa")
    relaxed = solve_k_bounded(strict, 1, method="lsa", enforce_laxity=False)
    assert relaxed.method == "lsa"
    assert relaxed.value >= 0


def test_metrics_round_trip_with_tracer_sink():
    """SolveResult.metrics must equal what an attached sink observed: the
    same counters (as deltas) the tracer accumulated during the solve."""
    jobs = random_jobs(14, seed=3)
    sink = MemorySink()
    tracer = Tracer(sinks=[sink])
    with tracer.activate():
        result = solve_k_bounded(jobs, 2)
        tracer.flush()

    # The solve joined the caller's trace: one api.solve root.
    api_roots = [s for s in tracer.roots if s.name == "api.solve"]
    assert len(api_roots) == 1
    assert api_roots[0].attrs["resolved_method"] == result.method

    # Counter round-trip: metrics (minus wall_ms) == the sink's snapshot,
    # because the caller's tracer did nothing else.  metrics elides
    # zero-valued counters; the snapshot keeps them.
    (snapshot,) = sink.counter_snapshots
    expected = {k: float(v) for k, v in snapshot["counters"].items() if v}
    observed = {k: v for k, v in result.metrics.items() if k != "wall_ms"}
    assert observed == expected
    assert result.metrics["wall_ms"] > 0
    assert result.metrics["wall_ms"] == pytest.approx(
        api_roots[0].duration_ms
    )


def test_private_tracer_when_none_active():
    from repro.obs import current_tracer

    jobs = random_jobs(10, seed=7)
    assert current_tracer() is None
    result = solve_k_bounded(jobs, 1)
    assert current_tracer() is None  # no leak
    assert "wall_ms" in result.metrics
    assert any(k != "wall_ms" for k in result.metrics), "solver counters missing"


def test_price_of_bounded_preemption():
    jobs = random_jobs(14, seed=3)
    p = price_of_bounded_preemption(jobs, 2)
    assert isinstance(p, PriceMeasurement)
    assert p.price == pytest.approx(p.opt_infty / p.alg_value)
    assert p.price <= p.bound + 1e-9
    with pytest.raises(ValueError):
        price_of_bounded_preemption(JobSet([]), 1)


def test_price_multimachine():
    jobs = random_jobs(12, seed=9)
    p = price_of_bounded_preemption(jobs, 1, machines=2)
    assert p.price >= 1.0 - 1e-9 or p.alg_value >= p.opt_infty


# ---------------------------------------------------------------------------
# the one-implementation opt_infty contract (the bug this PR fixes)
# ---------------------------------------------------------------------------


def test_opt_infty_value_matches_schedule():
    from repro.scheduling.exact import opt_infty_exact, opt_infty_value

    for seed in range(6):
        jobs = random_jobs(
            10, horizon=5.0, length_range=(1.0, 4.0), seed=seed
        )  # tight horizon → actually overloaded
        sched = opt_infty_exact(jobs)
        value = opt_infty_value(jobs)
        assert sched.value == pytest.approx(value), f"seed {seed}"


# ---------------------------------------------------------------------------
# keyword-only parameters on the standardised signatures
# ---------------------------------------------------------------------------


def test_positional_forms_are_rejected():
    from repro.core.lsa import lsa, lsa_cs
    from repro.core.multimachine import (
        multimachine_k_bounded,
        multimachine_nonpreemptive,
    )
    from repro.scheduling.exact import opt_k_exact_small

    lax = random_lax_jobs(10, k=2, seed=1)
    jobs = random_jobs(8, seed=2)
    for call in (
        lambda: lsa(lax, 2),
        lambda: lsa_cs(lax, 2),
        lambda: multimachine_k_bounded(jobs, 1, 2),
        lambda: multimachine_nonpreemptive(jobs, 2),
        lambda: opt_k_exact_small(jobs, 1),
    ):
        with pytest.raises(TypeError):
            call()


def test_keyword_forms_do_not_warn(recwarn):
    import warnings

    from repro.core.lsa import lsa_cs
    from repro.core.multimachine import multimachine_k_bounded

    lax = random_lax_jobs(10, k=2, seed=1)
    jobs = random_jobs(8, seed=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        lsa_cs(lax, k=2)
        multimachine_k_bounded(jobs, k=1, machines=2)
        solve_k_bounded(jobs, 1)
