"""Unit tests for the random instance generators."""

import pytest

from repro.core.reduction import schedule_to_forest
from repro.instances.random_jobs import (
    laminar_job_chain,
    random_jobs,
    random_lax_jobs,
    random_strict_jobs,
)
from repro.instances.random_trees import (
    caterpillar,
    preferential_attachment_tree,
    random_attachment_tree,
    random_forest,
    random_values,
)
from repro.scheduling.edf import edf_feasible, edf_schedule


class TestRandomTrees:
    def test_attachment_size_and_connectivity(self):
        f = random_attachment_tree(100, seed=0)
        assert f.n == 100
        assert f.roots == (0,)

    def test_attachment_deterministic_by_seed(self):
        a = random_attachment_tree(50, seed=7)
        b = random_attachment_tree(50, seed=7)
        assert [a.parent(v) for v in range(50)] == [b.parent(v) for v in range(50)]

    def test_preferential_has_hubs(self):
        f = preferential_attachment_tree(300, seed=1)
        assert f.max_degree >= 5  # hubs emerge with high probability

    def test_caterpillar_shape(self):
        f = caterpillar(4, 3)
        assert f.n == 16
        spine_degrees = [f.degree(v) for v in range(f.n) if not f.is_leaf(v)]
        assert all(d in (3, 4) for d in spine_degrees)

    def test_random_forest_tree_count(self):
        f = random_forest(60, trees=4, seed=2)
        assert len(f.roots) == 4
        assert f.n == 60

    def test_random_forest_shapes(self):
        for shape in ("attachment", "preferential", "mixed"):
            f = random_forest(40, trees=2, shape=shape, seed=3)
            assert f.n == 40

    def test_random_forest_bad_shape(self):
        with pytest.raises(ValueError):
            random_forest(10, shape="bogus", seed=0)

    def test_value_models(self):
        base = random_attachment_tree(50, seed=4)
        for model in ("unit", "uniform", "depth_exponential", "heavy"):
            f = random_values(base, model=model, seed=5)
            assert f.n == 50
            assert all(f.value(v) > 0 for v in range(50))

    def test_depth_exponential_matches_depths(self):
        base = random_attachment_tree(30, seed=6)
        f = random_values(base, model="depth_exponential")
        depths = f.depths()
        max_d = max(depths)
        for v in range(f.n):
            assert f.value(v) == 2 ** (max_d - depths[v])

    def test_bad_value_model(self):
        with pytest.raises(ValueError):
            random_values(random_attachment_tree(5, seed=0), model="nope")


class TestRandomJobs:
    def test_count_and_ranges(self):
        jobs = random_jobs(50, length_range=(2.0, 8.0), laxity_range=(1.5, 3.0), seed=0)
        assert jobs.n == 50
        for j in jobs:
            assert 2.0 - 1e-9 <= j.length <= 8.0 + 1e-9
            assert 1.5 - 1e-9 <= j.laxity <= 3.0 + 1e-9

    def test_deterministic_by_seed(self):
        a = random_jobs(20, seed=42)
        b = random_jobs(20, seed=42)
        assert [(j.release, j.length) for j in a] == [(j.release, j.length) for j in b]

    def test_value_models(self):
        for model in ("unit", "uniform", "density", "independent"):
            jobs = random_jobs(20, value_model=model, seed=1)
            assert all(j.value > 0 for j in jobs)

    def test_density_model_unit_density(self):
        jobs = random_jobs(20, value_model="density", seed=2)
        for j in jobs:
            assert j.density == pytest.approx(1.0)

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            random_jobs(5, length_range=(0, 1))
        with pytest.raises(ValueError):
            random_jobs(5, laxity_range=(0.5, 2.0))
        with pytest.raises(ValueError):
            random_jobs(0)

    def test_lax_jobs_are_lax(self):
        for k in (1, 2, 3):
            jobs = random_lax_jobs(30, k, seed=3)
            assert all(j.laxity >= k + 1 - 1e-9 for j in jobs)

    def test_strict_jobs_are_strict(self):
        for k in (1, 2):
            jobs = random_strict_jobs(30, k, seed=4)
            assert all(j.laxity <= k + 1 + 1e-9 for j in jobs)

    def test_unit_laxity_windows_fit_their_jobs(self):
        # At k = 0 the laxity is exactly 1.  The float r + p, read as a
        # decimal, can fall short of p; the generator must not emit (or
        # raise on) such a window.
        for seed in range(20):
            for j in random_strict_jobs(20, 0, seed=seed):
                assert j.window >= j.length
                assert j.is_strict(0)


class TestLaminarJobChain:
    def test_size(self):
        assert laminar_job_chain(0, 3).n == 1
        assert laminar_job_chain(2, 2).n == 7
        assert laminar_job_chain(2, 3).n == 13

    def test_edf_feasible(self):
        for depth, b in [(1, 2), (2, 3), (3, 2)]:
            assert edf_feasible(laminar_job_chain(depth, b))

    def test_forest_shape_is_b_ary(self):
        jobs = laminar_job_chain(3, 2)
        sched = edf_schedule(jobs).schedule
        forest, _ = schedule_to_forest(sched)
        assert forest.n == 15
        internal_degrees = {forest.degree(v) for v in range(forest.n) if forest.degree(v)}
        assert internal_degrees == {2}

    def test_validation(self):
        with pytest.raises(ValueError):
            laminar_job_chain(-1, 2)
        with pytest.raises(ValueError):
            laminar_job_chain(2, 0)
