"""Property tests on decimal-float job sets: every oracle, exact answers.

``Job`` reads a float as its shortest decimal text, so ``0.7`` is
``7/10`` and a zero-slack window written as literals (release ``0.7``,
length ``0.1``, deadline ``0.8``) fits its job exactly.  These properties
run :func:`tests.strategies.decimal_jobsets` — decimal coordinates,
zero-slack windows, 1-ulp neighbours — through the differential oracles
that guard the exact solvers and the service: bitset core vs the legacy
search, bitset core vs the Lawler DP, EDF feasibility vs the demand-bound
criterion, and served vs direct solves.  No comparison uses a tolerance.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings

from repro.check.cases import Case
from repro.check.oracles import ORACLES
from repro.scheduling.edf import edf_schedule
from repro.scheduling.job import Job, JobSet
from repro.scheduling.lawler_dp import demand_bound_feasible
from repro.scheduling.verify import verify_schedule
from tests.strategies import decimal_jobsets, small_ks

#: Zero slack from decimal literals, two jobs competing for one window.
_ZERO_SLACK = JobSet([Job(0, 0.7, 0.8, 0.1, 3), Job(1, 0.7, 0.8, 0.1, 2)])


def _check(oracle: str, jobs: JobSet, k: int = 1) -> None:
    detail = ORACLES[oracle].check(Case("jobs", jobs, {"k": k, "machines": 1}))
    assert detail is None, detail


def test_zero_slack_literals_are_exact():
    job = _ZERO_SLACK[0]
    assert (job.release, job.deadline, job.length) == (
        Fraction(7, 10), Fraction(4, 5), Fraction(1, 10)
    )
    assert job.window == job.length
    # One ulp below 0.8 is, read exactly, shorter than the job.
    with pytest.raises(ValueError, match="shorter"):
        Job(0, 0.7, 0.7999999999999999, 0.1)


@given(decimal_jobsets())
@example(_ZERO_SLACK)
def test_bitset_equals_legacy_search(jobs):
    _check("opt-bitset-vs-legacy", jobs)


@given(decimal_jobsets())
@example(_ZERO_SLACK)
def test_bitset_equals_lawler_dp(jobs):
    _check("opt-exact-vs-lawler-dp", jobs)


@given(decimal_jobsets())
@example(_ZERO_SLACK)
def test_edf_feasibility_equals_demand_bound(jobs):
    result = edf_schedule(jobs)
    assert result.feasible == demand_bound_feasible(jobs)
    if result.feasible:
        verify_schedule(result.schedule).assert_ok()


@given(decimal_jobsets(max_jobs=6), small_ks())
@example(_ZERO_SLACK, 1)
@settings(max_examples=25)
def test_served_equals_direct(jobs, k):
    _check("served-vs-direct", jobs, k)
