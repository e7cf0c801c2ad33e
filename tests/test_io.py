"""Unit tests for JSON serialisation round-trips."""

from fractions import Fraction

import pytest

from repro.core.bas.forest import Forest
from repro.instances.lower_bounds import appendix_b_jobs
from repro.scheduling.edf import edf_schedule
from repro.scheduling.io import (
    forest_from_dict,
    forest_to_dict,
    jobset_from_dict,
    jobset_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.scheduling.job import make_jobs


class TestJobSetRoundtrip:
    def test_float_jobs(self):
        jobs = make_jobs([(0.0, 10.5, 4.25, 2.0), (1.0, 7.0, 3.0, 5.5)])
        back = jobset_from_dict(jobset_to_dict(jobs))
        assert [(j.release, j.deadline, j.length, j.value) for j in back] == [
            (j.release, j.deadline, j.length, j.value) for j in jobs
        ]

    def test_fraction_jobs_lossless(self):
        inst = appendix_b_jobs(k=1, L=2)
        back = jobset_from_dict(jobset_to_dict(inst.jobs))
        for a, b in zip(inst.jobs, back):
            assert a.release == b.release and isinstance(b.release, (int, Fraction))
            assert a.deadline == b.deadline
            assert a.length == b.length

    def test_format_guard(self):
        with pytest.raises(ValueError, match="jobset"):
            jobset_from_dict({"format": "nope", "jobs": []})


class TestScheduleRoundtrip:
    def test_roundtrip_preserves_segments(self):
        jobs = make_jobs([(0, 12, 5), (1, 7, 4)])
        sched = edf_schedule(jobs).schedule
        back = schedule_from_dict(schedule_to_dict(sched))
        for i in sched.scheduled_ids:
            assert back[i] == sched[i]

    def test_exact_schedule_roundtrip(self):
        inst = appendix_b_jobs(k=1, L=1)
        sched = inst.nested_optimal_schedule()
        back = schedule_from_dict(schedule_to_dict(sched))
        assert back.value == sched.value
        for i in sched.scheduled_ids:
            assert back[i] == sched[i]

    def test_format_guard(self):
        with pytest.raises(ValueError, match="schedule"):
            schedule_from_dict({"format": "x"})


class TestForestRoundtrip:
    def test_roundtrip(self):
        f = Forest([-1, 0, 0, 1], [Fraction(1, 3), 2, 3.5, 1])
        back = forest_from_dict(forest_to_dict(f))
        assert back.n == f.n
        assert [back.parent(v) for v in range(4)] == [f.parent(v) for v in range(4)]
        assert back.value(0) == Fraction(1, 3)

    def test_format_guard(self):
        with pytest.raises(ValueError, match="forest"):
            forest_from_dict({"format": "x"})
