"""Unit tests for the generic Classify-and-Select combinator (§1.4)."""

import pytest

from repro.core.classify import (
    classification_bound,
    classify_and_select,
    classify_jobs,
)
from repro.instances.workloads import mixed_server_workload
from repro.scheduling.job import make_jobs
from repro.scheduling.schedule import Schedule
from repro.scheduling.verify import verify_schedule


class TestClassifyJobs:
    def test_partition_complete(self):
        jobs = mixed_server_workload(40, seed=0)
        for key in ("length", "value", "density"):
            classes = classify_jobs(jobs, key, 2)
            ids = sorted(i for js in classes.values() for i in js.ids)
            assert ids == jobs.ids

    def test_intra_class_ratio(self):
        jobs = mixed_server_workload(60, seed=1)
        for key in ("length", "value", "density"):
            for js in classify_jobs(jobs, key, 2).values():
                from repro.core.classify import CLASS_KEYS

                vals = [CLASS_KEYS[key](j) for j in js]
                assert max(vals) / min(vals) <= 2 + 1e-6

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown classification key"):
            classify_jobs(make_jobs([(0, 4, 2)]), "bogus", 2)

    def test_bad_base(self):
        with pytest.raises(ValueError, match="base"):
            classify_jobs(make_jobs([(0, 4, 2)]), "length", 1)

    def test_empty(self):
        assert classify_jobs(make_jobs([]), "length", 2) == {}

    def test_length_boundary_is_exact_at_large_magnitude(self):
        p = 10**10
        jobs = make_jobs([(0, 10**11, p), (0, 10**11, 2 * p), (0, 10**11, 2 * p + 1)])
        classes = classify_jobs(jobs, "length", 2)
        assert classes[0].ids == [0, 1]
        assert classes[1].ids == [2]

    def test_uniform_key_single_class(self):
        jobs = make_jobs([(0, 10, 2, 3.0), (1, 11, 2, 3.0)])
        assert len(classify_jobs(jobs, "value", 2)) == 1


class TestCombinator:
    @pytest.mark.parametrize("key", ["length", "value", "density"])
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_feasible_within_budget(self, key, k):
        jobs = mixed_server_workload(30, seed=2)
        s = classify_and_select(jobs, k, key=key)
        verify_schedule(s, k=k).assert_ok()

    def test_returns_best_class(self):
        jobs = mixed_server_workload(30, seed=3)
        s, per_class = classify_and_select(jobs, 1, key="value", return_all_classes=True)
        assert s.value == max(c.value for c in per_class.values())

    def test_default_base_length_is_k_plus_one(self):
        # Lengths 1 and 3 share a class at base 3 (k=2) but not base 2.
        jobs = make_jobs([(0, 30, 1, 1.0), (0, 30, 3, 1.0)])
        _, classes_k2 = classify_and_select(jobs, 2, key="length", return_all_classes=True)
        assert len(classes_k2) == 1
        _, classes_k1 = classify_and_select(jobs, 1, key="length", return_all_classes=True)
        assert len(classes_k1) == 2

    def test_custom_inner(self):
        from repro.scheduling.schedule import best_single_job

        jobs = mixed_server_workload(15, seed=4)
        s = classify_and_select(jobs, 0, key="value", inner=lambda js, k: best_single_job(js))
        verify_schedule(s, k=0).assert_ok()
        assert len(s) == 1

    def test_empty(self):
        s = classify_and_select(make_jobs([]), 1)
        assert len(s) == 0

    def test_k_validation(self):
        with pytest.raises(ValueError):
            classify_and_select(make_jobs([(0, 4, 2)]), -1)


class TestBoundFormula:
    def test_value_ratio_bound(self):
        jobs = make_jobs([(0, 10, 2, 1.0), (0, 10, 2, 16.0)])
        assert classification_bound(jobs, "value", 2) == pytest.approx(4.0)

    def test_uniform_gives_one(self):
        jobs = make_jobs([(0, 10, 2, 3.0), (1, 11, 2, 3.0)])
        assert classification_bound(jobs, "value", 2) == 1.0

    def test_length_base_k_plus_one(self):
        jobs = make_jobs([(0, 100, 1), (0, 100, 27)])
        assert classification_bound(jobs, "length", 3) == pytest.approx(3.0)
