"""Edge cases cutting across modules: boundary laxities, exact/float mixing,
degenerate windows, mass ties, and extreme value ranges.

Each test here pins a behaviour that once could plausibly regress without
any mainline test noticing.
"""

from fractions import Fraction

import pytest

from repro.core.bas.contraction import levelled_contraction
from repro.core.bas.forest import Forest
from repro.core.bas.tm import tm_optimal_bas
from repro.core.combined import schedule_k_bounded
from repro.core.lsa import lsa
from repro.core.nonpreemptive import nonpreemptive_combined
from repro.core.reduction import reduce_schedule_to_k_preemptive, schedule_to_forest
from repro.scheduling.edf import edf_feasible, edf_schedule
from repro.scheduling.job import Job, JobSet, make_jobs
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment
from repro.scheduling.verify import verify_schedule


class TestZeroLaxity:
    """Jobs with window == length: one valid placement, no preemption room."""

    def test_single_tight_job(self):
        jobs = make_jobs([(0, 4, 4)])
        res = edf_schedule(jobs)
        assert res.feasible
        assert res.schedule[0] == (Segment(0, 4),)

    def test_tight_chain_tiles_exactly(self):
        jobs = make_jobs([(0, 3, 3), (3, 7, 4), (7, 9, 2)])
        res = edf_schedule(jobs)
        assert res.feasible
        assert res.schedule.busy_segments() == [Segment(0, 9)]

    def test_tight_overlap_infeasible(self):
        jobs = make_jobs([(0, 4, 4), (3, 7, 4)])
        assert not edf_feasible(jobs)

    def test_pipeline_handles_all_tight(self):
        jobs = make_jobs([(0, 3, 3), (3, 7, 4), (7, 9, 2)])
        s = schedule_k_bounded(jobs, 1)
        verify_schedule(s, k=1).assert_ok()
        assert s.value == 3.0  # all three kept: no nesting, no loss


class TestMassTies:
    """Many identical jobs: tie-breaking must stay deterministic and fair."""

    def test_identical_jobs_fill_capacity(self):
        jobs = make_jobs([(0, 10, 2) for _ in range(5)])
        res = edf_schedule(jobs)
        assert res.feasible
        assert res.schedule.busy_segments() == [Segment(0, 10)]

    def test_excess_identical_jobs_drop_deterministically(self):
        jobs = make_jobs([(0, 10, 2, 1.0) for _ in range(8)])
        from repro.scheduling.edf import edf_accept_max_subset

        a = edf_accept_max_subset(jobs)
        b = edf_accept_max_subset(jobs)
        assert a.scheduled_ids == b.scheduled_ids
        assert len(a) == 5

    def test_lsa_deterministic_under_ties(self):
        jobs = make_jobs([(0, 12, 3, 2.0) for _ in range(6)])
        a = lsa(jobs, k=1, enforce_laxity=False)
        b = lsa(jobs, k=1, enforce_laxity=False)
        assert a.scheduled_ids == b.scheduled_ids


class TestExactFloatMixing:
    def test_fraction_and_int_jobs_coexist(self):
        jobs = JobSet(
            [
                Job(0, Fraction(0), Fraction(9, 2), Fraction(3, 2)),
                Job(1, 1, 4, 2),
            ]
        )
        res = edf_schedule(jobs)
        assert res.feasible
        verify_schedule(res.schedule).assert_ok()

    def test_float_jobs_with_roundoff_windows(self):
        # As binary floats 1.3 - 0.3 < 1.0; read as decimals the window is
        # exactly 1, so zero-slack float literals produce no violation.
        jobs = make_jobs([(0.3, 1.3, 1.0)])
        res = edf_schedule(jobs)
        assert res.feasible
        verify_schedule(res.schedule).assert_ok()
        # A computed float keeps its round-off: 0.1 + 0.2 is
        # 0.30000000000000004, which leaves the window short of 1.
        with pytest.raises(ValueError, match="shorter"):
            make_jobs([(0.1 + 0.2, 1.3, 1.0)])

    def test_exact_zero_slack_rejected_by_epsilon(self):
        jobs = JobSet(
            [
                Job(0, Fraction(0), Fraction(2), Fraction(1)),
                Job(1, Fraction(0), Fraction(2), Fraction(1) + Fraction(1, 10**12)),
            ]
        )
        assert not edf_feasible(jobs)


class TestExtremeValues:
    def test_huge_value_range(self):
        jobs = make_jobs([(0, 4, 4, 1e-6), (0, 4, 4, 1e9)])
        from repro.scheduling.exact import opt_infty_exact

        s = opt_infty_exact(jobs)
        assert s.scheduled_ids == [1]

    def test_k0_picks_giant(self):
        jobs = make_jobs([(0, 4, 4, 1e9), (0, 12, 2, 1.0), (4, 16, 2, 1.0)])
        s = nonpreemptive_combined(jobs)
        assert s.value >= 1e9

    def test_tiny_lengths(self):
        jobs = make_jobs([(0, 1, 2**-20), (0, 1, 2**-20)])
        res = edf_schedule(jobs)
        assert res.feasible


class TestDegenerateForests:
    def test_tm_on_single_node(self):
        f = Forest([-1], [3])
        assert tm_optimal_bas(f, 1).value == 3

    def test_contraction_on_all_roots(self):
        f = Forest([-1, -1, -1], [1, 2, 3])
        trace = levelled_contraction(f, 1)
        assert trace.num_iterations == 1
        assert trace.best_subforest().value == 6

    def test_tm_value_ties_resolve_to_lower_ids(self):
        # Valuable root retained with k=1 and two identical children: the
        # top-k selection must break the tie toward the smaller id.
        f = Forest([-1, 0, 0], [100, 5, 5])
        bas = tm_optimal_bas(f, 1)
        assert 0 in bas.retained
        assert 1 in bas.retained and 2 not in bas.retained

    def test_deep_star_chain(self):
        # Alternating stars along a path exercise both DP branches.
        parents = [-1]
        for level in range(6):
            spine = len(parents) - 1 if level == 0 else spine_next
            for _ in range(3):
                parents.append(spine)
            spine_next = len(parents) - 1
        f = Forest(parents, [1.0] * len(parents))
        for k in (1, 2):
            bas = tm_optimal_bas(f, k)
            from repro.core.bas.verify import verify_bas

            verify_bas(bas, k).assert_ok()


class TestReductionCorners:
    def test_single_job_schedule_forest(self):
        jobs = make_jobs([(0, 10, 4)])
        sched = edf_schedule(jobs).schedule
        forest, node_to_job = schedule_to_forest(sched)
        assert forest.n == 1 and node_to_job == [0]

    def test_back_to_back_jobs_all_roots(self):
        jobs = make_jobs([(0, 3, 3), (3, 6, 3), (6, 9, 3)])
        sched = edf_schedule(jobs).schedule
        forest, _ = schedule_to_forest(sched)
        assert len(forest.roots) == 3

    def test_reduction_idempotent_on_k_bounded_input(self):
        jobs = make_jobs([(0, 20, 10), (2, 5, 3)])
        sched = edf_schedule(jobs).schedule  # already 1-bounded
        once = reduce_schedule_to_k_preemptive(sched, 1)
        twice = reduce_schedule_to_k_preemptive(once, 1)
        assert twice.value == once.value

    def test_idle_gaps_between_trees_survive_compaction(self):
        jobs = make_jobs([(0, 4, 2), (10, 14, 2)])
        sched = edf_schedule(jobs).schedule
        out = reduce_schedule_to_k_preemptive(sched, 1)
        verify_schedule(out, k=1).assert_ok()
        # The second job cannot start before its release at 10.
        assert out[1][0].start == 10


class TestScheduleCorners:
    def test_schedule_with_fraction_segments_renders_value(self):
        jobs = JobSet([Job(0, Fraction(0), Fraction(3), Fraction(2), Fraction(5, 2))])
        s = Schedule(jobs, {0: [Segment(Fraction(0), Fraction(2))]})
        assert s.value == Fraction(5, 2)

    def test_idle_segments_outside_busy_range(self):
        jobs = make_jobs([(5, 9, 2)])
        s = edf_schedule(jobs).schedule
        idles = s.idle_segments(0, 12)
        assert idles == [Segment(0, 5), Segment(7, 12)]
