"""Tests for the online baselines (§1.4 context)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.scheduling.edf import edf_feasible
from repro.scheduling.exact import opt_infty_value
from repro.scheduling.job import Job, JobSet, make_jobs
from repro.scheduling.online import (
    online_edf_admission,
    online_value_abort,
)
from repro.scheduling.verify import verify_schedule


class TestAdmissionPolicy:
    def test_feasible_set_fully_accepted(self, simple_jobs):
        s = online_edf_admission(simple_jobs)
        verify_schedule(s).assert_ok()
        assert s.value == pytest.approx(simple_jobs.total_value)

    def test_rejects_infeasible_arrivals(self, overloaded_jobs):
        s = online_edf_admission(overloaded_jobs)
        verify_schedule(s).assert_ok()
        # Arrival order = id order: job 0 admitted, job 1 rejected, job 2
        # admitted (fits after 0).
        assert s.scheduled_ids == [0, 2]

    def test_no_admitted_job_ever_missed(self):
        # Admission control means completions == admissions.
        jobs = make_jobs([(0, 6, 3, 1.0), (1, 5, 2, 1.0), (2, 9, 3, 1.0), (2, 7, 2, 1.0)])
        s = online_edf_admission(jobs)
        verify_schedule(s).assert_ok()

    def test_myopia_vs_offline(self):
        # A cheap early job blocks a valuable later one: online admission
        # commits, offline OPT would skip it.
        jobs = make_jobs([(0, 4, 4, 1.0), (1, 5, 4, 100.0)])
        s = online_edf_admission(jobs)
        assert s.scheduled_ids == [0]
        assert opt_infty_value(jobs) == pytest.approx(100.0)

    def test_empty(self):
        assert online_edf_admission(make_jobs([])).value == 0


class TestAbortPolicy:
    def test_feasible_set_untouched(self, simple_jobs):
        s = online_value_abort(simple_jobs)
        assert s.value == pytest.approx(simple_jobs.total_value)

    def test_aborts_low_value_for_high(self):
        # Unlike admission, the abort policy recovers the valuable job.
        jobs = make_jobs([(0, 4, 4, 1.0), (1, 5, 4, 100.0)])
        s = online_value_abort(jobs)
        verify_schedule(s).assert_ok()
        assert 1 in s
        assert s.value == pytest.approx(100.0)

    def test_burned_time_is_lost(self):
        # The aborted job's slice leaves a hole no one else uses online.
        jobs = make_jobs([(0, 4, 4, 1.0), (1, 5, 4, 100.0), (0, 9, 4, 2.0)])
        s = online_value_abort(jobs)
        verify_schedule(s).assert_ok()

    def test_empty(self):
        assert online_value_abort(make_jobs([])).value == 0


@st.composite
def jobsets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    jobs = []
    for i in range(n):
        r = draw(st.integers(min_value=0, max_value=20))
        p = draw(st.integers(min_value=1, max_value=6))
        slack = draw(st.integers(min_value=0, max_value=10))
        v = draw(st.integers(min_value=1, max_value=20))
        jobs.append(Job(i, r, r + p + slack, p, v))
    return JobSet(jobs)


@given(jobsets())
def test_admission_output_always_feasible(jobs):
    s = online_edf_admission(jobs)
    verify_schedule(s).assert_ok()


@given(jobsets())
def test_abort_output_always_feasible(jobs):
    s = online_value_abort(jobs)
    verify_schedule(s).assert_ok()


@given(jobsets())
def test_online_never_beats_offline_opt(jobs):
    opt = opt_infty_value(jobs)
    for policy in (online_edf_admission, online_value_abort):
        assert policy(jobs).value <= opt + 1e-9


@given(jobsets())
def test_policies_take_everything_when_feasible(jobs):
    if edf_feasible(jobs):
        assert online_edf_admission(jobs).value == pytest.approx(jobs.total_value)
        assert online_value_abort(jobs).value == pytest.approx(jobs.total_value)
