"""Property tests for the bitset ``OPT_∞`` core at frontier sizes (n 17–30).

The legacy branch-and-bound walled out around n = 16, so everything above
that ran only through the greedy/DP paths; the bitset core makes n = 30
routine and these properties pin its contracts there:

* the materialised schedule is a genuine certificate (re-verified, value
  equal to the reported optimum);
* the optimum is monotone under adding jobs (prefix instances never beat
  the full instance);
* on the unit-value derivation, the optimum counts scheduled jobs:
  ``opt_infty_value == len(schedule)``.

Examples here are 10–100× bigger than the rest of the property suite, so
``max_examples`` is deliberately small; the distributions live in
:func:`tests.strategies.large_jobsets`.
"""

from hypothesis import HealthCheck, given, settings

from repro.scheduling.exact import opt_infty_exact, opt_infty_value
from repro.scheduling.job import Job, JobSet
from repro.scheduling.verify import verify_schedule
from tests.strategies import large_jobsets

_FRONTIER = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(large_jobsets())
@_FRONTIER
def test_certificate_reverifies_at_frontier_sizes(jobs):
    sched = opt_infty_exact(jobs)
    verify_schedule(sched).assert_ok()
    assert sched.value == opt_infty_value(jobs)


@given(large_jobsets(max_jobs=26))
@_FRONTIER
def test_optimum_monotone_in_n(jobs):
    ordered = sorted(jobs, key=lambda j: j.id)
    prefix = JobSet(ordered[: len(ordered) - len(ordered) // 3])
    assert opt_infty_value(prefix) <= opt_infty_value(jobs)


@given(large_jobsets(max_jobs=26))
@_FRONTIER
def test_unit_value_optimum_counts_schedule(jobs):
    unit = JobSet(
        Job(j.id, j.release, j.deadline, j.length, 1) for j in jobs
    )
    sched = opt_infty_exact(unit)
    assert opt_infty_value(unit) == len(sched)
