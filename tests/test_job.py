"""Unit tests for Job / JobSet (the Section 2.1 model)."""

from fractions import Fraction

import pytest

from repro.scheduling.job import Job, JobSet, integral, make_jobs


class TestIntegral:
    @pytest.mark.parametrize("x", [3, 3.0, Fraction(6, 2), -2.0])
    def test_whole_numbers_become_ints(self, x):
        assert integral(x, "k") == int(x) and type(integral(x, "k")) is int

    @pytest.mark.parametrize("x", [1.7, Fraction(1, 2), True, float("nan"), float("-inf")])
    def test_refuses_what_int_would_truncate(self, x):
        with pytest.raises(ValueError, match="k must be an integer"):
            integral(x, "k")

    def test_refuses_non_numbers(self):
        with pytest.raises(TypeError, match="k must be an integer"):
            integral("3", "k")


class TestJobValidation:
    def test_valid_job(self):
        j = Job(0, 0, 10, 4, 2.0)
        assert j.window == 10
        assert j.laxity == pytest.approx(2.5)
        assert j.density == pytest.approx(0.5)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="length"):
            Job(0, 0, 10, 0)

    def test_rejects_nonpositive_value(self):
        with pytest.raises(ValueError, match="value"):
            Job(0, 0, 10, 4, 0.0)

    def test_rejects_window_shorter_than_length(self):
        with pytest.raises(ValueError, match="window"):
            Job(0, 0, 3, 4)

    def test_window_exactly_length_is_allowed(self):
        j = Job(0, 0, 4, 4)
        assert j.laxity == 1

    def test_fraction_coordinates(self):
        j = Job(0, Fraction(0), Fraction(3, 2), Fraction(1, 2))
        assert j.laxity == Fraction(3)

    def test_is_strict_boundary(self):
        # λ = k+1 exactly is strict (Algorithm 3's J1 uses λ <= k+1).
        j = Job(0, 0, 4, 2)  # λ = 2
        assert j.is_strict(1)
        assert not Job(0, 0, 5, 2).is_strict(1)  # λ = 2.5

    def test_is_strict_is_exact_at_large_magnitude(self):
        # λ = 2 + 1e-10: lax at k=1.  Float division with a 1e-9 tolerance
        # routed it strict.
        assert Job(0, 0, 2 * 10**10 + 1, 10**10, 1).is_strict(1) is False
        assert Job(0, 0, 2 * 10**10, 10**10, 1).is_strict(1) is True

    def test_shifted(self):
        j = Job(0, 1, 5, 2, 3.0).shifted(10)
        assert (j.release, j.deadline) == (11, 15)
        assert j.length == 2 and j.value == 3.0

    def test_with_id(self):
        j = Job(0, 1, 5, 2).with_id(9)
        assert j.id == 9 and j.release == 1


class TestExactCoordinates:
    """``Job`` is where numbers enter the model: time becomes exact."""

    def test_int_stays_int(self):
        j = Job(0, 1, 5, 2)
        assert all(type(x) is int for x in (j.release, j.deadline, j.length))

    def test_integral_fraction_becomes_int(self):
        j = Job(0, Fraction(2, 2), Fraction(10, 2), Fraction(4, 2))
        assert (j.release, j.deadline, j.length) == (1, 5, 2)
        assert all(type(x) is int for x in (j.release, j.deadline, j.length))

    def test_float_reads_as_shortest_decimal(self):
        j = Job(0, 0.7, 3.7, 1.0, 0.5)
        assert j.release == Fraction(7, 10)
        assert j.deadline == Fraction(37, 10)
        assert type(j.length) is int and j.length == 1
        assert j.value == 0.5 and type(j.value) is float  # values keep their type

    def test_zero_slack_decimal_literals(self):
        j = Job(0, 0.7, 0.8, 0.1)
        assert j.window == j.length == Fraction(1, 10)
        assert j.is_strict(0)
        # 0.7 + 0.1 is the float 0.7999999999999999: exactly, too short.
        with pytest.raises(ValueError, match="shorter"):
            Job(0, 0.7, 0.7999999999999999, 0.1)
        with pytest.raises(ValueError, match="shorter"):
            Job(0, 0.7, 0.7 + 0.1, 0.1)

    @pytest.mark.parametrize("field", ["release", "deadline", "length"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_coordinates(self, field, bad):
        kwargs = {"release": 0, "deadline": 10, "length": 4}
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            Job(0, **kwargs)

    def test_rejects_minus_infinite_release(self):
        # Accepted before, after which edf_schedule on it never returned.
        with pytest.raises(ValueError, match="release must be finite"):
            Job(0, float("-inf"), 10, 4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_value(self, bad):
        with pytest.raises(ValueError, match="value must be finite and positive"):
            Job(0, 0, 10, 4, bad)

    def test_rejects_non_numbers(self):
        with pytest.raises(TypeError):
            Job(0, "0", 10, 4)

    @pytest.mark.parametrize("field", ["release", "deadline", "length", "value"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bools(self, field, flag):
        # A bool is an int to Python; read as 0 or 1 it turned JSON `false`
        # into a served release time.
        kwargs = {"release": 0, "deadline": 10, "length": 4, "value": 2}
        kwargs[field] = flag
        with pytest.raises(TypeError, match=f"{field} must be a real number, got bool"):
            Job(0, **kwargs)


class TestJobSetBasics:
    def test_len_iter_contains(self, simple_jobs):
        assert len(simple_jobs) == 5
        assert 0 in simple_jobs and 99 not in simple_jobs
        assert [j.id for j in simple_jobs] == [0, 1, 2, 3, 4]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            JobSet([Job(0, 0, 5, 1), Job(0, 0, 5, 1)])

    def test_getitem(self, simple_jobs):
        assert simple_jobs[2].length == 3

    def test_total_value(self, simple_jobs):
        assert simple_jobs.total_value == pytest.approx(25.0)

    def test_horizon(self, simple_jobs):
        assert simple_jobs.horizon == (0, 28)


class TestJobSetStatistics:
    def test_length_ratio(self, simple_jobs):
        assert simple_jobs.length_ratio == pytest.approx(3.0)

    def test_value_ratio(self, simple_jobs):
        assert simple_jobs.value_ratio == pytest.approx(7.0 / 3.0)

    def test_density_ratio(self, simple_jobs):
        densities = [j.density for j in simple_jobs]
        assert simple_jobs.density_ratio == pytest.approx(max(densities) / min(densities))

    def test_lambda_max(self, simple_jobs):
        # max over λ = {12/5, 6/4, 6/3, 18/6, 20/9} = 3.0 (the (2,20,6) job)
        assert simple_jobs.lambda_max == pytest.approx(3.0)


class TestJobSetDerivedSets:
    def test_subset(self, simple_jobs):
        sub = simple_jobs.subset([1, 3])
        assert sub.ids == [1, 3]

    def test_subset_unknown_id(self, simple_jobs):
        with pytest.raises(KeyError):
            simple_jobs.subset([42])

    def test_without(self, simple_jobs):
        rest = simple_jobs.without([0, 4])
        assert rest.ids == [1, 2, 3]

    def test_split_by_laxity_partitions(self, simple_jobs):
        strict, lax = simple_jobs.split_by_laxity(1)
        assert sorted(strict.ids + lax.ids) == simple_jobs.ids
        assert all(j.laxity <= 2 + 1e-9 for j in strict)
        assert all(j.laxity > 2 for j in lax)

    def test_sorted_by_density_descending(self, simple_jobs):
        ds = [j.density for j in simple_jobs.sorted_by_density()]
        assert ds == sorted(ds, reverse=True)

    def test_sorted_by_density_ties_by_id(self):
        jobs = make_jobs([(0, 10, 2, 4.0), (0, 10, 1, 2.0)])  # equal density 2
        assert [j.id for j in jobs.sorted_by_density()] == [0, 1]

    def test_sorted_by_value_descending(self, simple_jobs):
        vs = [j.value for j in simple_jobs.sorted_by_value()]
        assert vs == sorted(vs, reverse=True)


class TestLengthClasses:
    def test_partition_is_complete(self, simple_jobs):
        classes = simple_jobs.length_classes(2)
        ids = sorted(i for js in classes.values() for i in js.ids)
        assert ids == simple_jobs.ids

    def test_intra_class_ratio_bounded(self):
        jobs = make_jobs([(0, 100, p) for p in (1, 1.5, 2, 3, 4, 7, 8, 15, 16)])
        for c, js in jobs.length_classes(2).items():
            assert js.length_ratio <= 2 + 1e-9

    def test_exact_powers_land_low(self):
        jobs = make_jobs([(0, 100, 1), (0, 100, 2), (0, 100, 4)])
        classes = jobs.length_classes(2)
        # p=2 is exactly the class-0 boundary and stays in class 0.
        assert jobs[1].id in [i for i in classes[0].ids]

    def test_boundary_is_exact_at_large_magnitude(self):
        # p = 2e10 sits on the class-0 boundary; one unit more is class 1.
        # Float division with a 1e-9 tolerance kept both in class 0.
        p = 10**10
        jobs = make_jobs([(0, 10**11, p), (0, 10**11, 2 * p), (0, 10**11, 2 * p + 1)])
        classes = jobs.length_classes(2)
        assert classes[0].ids == [0, 1]
        assert classes[1].ids == [2]

    def test_base_k_plus_one(self):
        jobs = make_jobs([(0, 1000, p) for p in (1, 2, 3, 4, 9, 27)])
        classes = jobs.length_classes(3)
        for js in classes.values():
            assert js.length_ratio <= 3 + 1e-9

    def test_rejects_base_one(self, simple_jobs):
        with pytest.raises(ValueError):
            simple_jobs.length_classes(1)

    def test_empty_jobset(self):
        assert JobSet([]).length_classes(2) == {}


class TestMakeJobs:
    def test_three_tuples_default_value(self):
        jobs = make_jobs([(0, 5, 2), (1, 6, 2)])
        assert all(j.value == 1.0 for j in jobs)

    def test_four_tuples(self):
        jobs = make_jobs([(0, 5, 2, 9.0)])
        assert jobs[0].value == 9.0

    def test_start_id(self):
        jobs = make_jobs([(0, 5, 2)], start_id=10)
        assert jobs.ids == [10]

    def test_bad_tuple_length(self):
        with pytest.raises(ValueError):
            make_jobs([(0, 5)])
