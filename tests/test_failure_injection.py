"""Failure injection: the verifiers must catch every class of corruption.

A verifier that silently passes corrupted schedules would invalidate every
experiment in this repository (they all lean on ``verify_schedule`` /
``verify_bas`` instead of trusting algorithm bookkeeping).  These tests
take known-good objects, apply a targeted mutation from each violation
class, and assert the verifier flags it.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bas.forest import Forest
from repro.core.bas.subforest import SubForest
from repro.core.bas.tm import tm_optimal_bas
from repro.core.bas.verify import verify_bas
from repro.scheduling.edf import edf_accept_max_subset, edf_schedule
from repro.scheduling.job import Job, JobSet, make_jobs
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment
from repro.scheduling.verify import verify_schedule


@pytest.fixture
def good_schedule():
    jobs = make_jobs([(0, 12, 5, 1.0), (1, 7, 4, 1.0), (3, 9, 3, 1.0), (8, 28, 9, 1.0)])
    sched = edf_schedule(jobs).schedule
    verify_schedule(sched).assert_ok()
    return sched


def mutate(sched: Schedule, job_id: int, new_segments) -> Schedule:
    assignment = {i: list(sched[i]) for i in sched.scheduled_ids}
    assignment[job_id] = new_segments
    return Schedule(sched.jobs, assignment)


class TestScheduleCorruption:
    def test_shift_before_release(self, good_schedule):
        job = good_schedule.jobs[1]  # release 1
        bad = mutate(good_schedule, 1, [Segment(job.release - 1, job.release - 1 + job.length)])
        assert not verify_schedule(bad).feasible

    def test_shift_past_deadline(self, good_schedule):
        job = good_schedule.jobs[2]
        bad = mutate(good_schedule, 2, [Segment(job.deadline - job.length + 1, job.deadline + 1)])
        assert not verify_schedule(bad).feasible

    def test_shrink_volume(self, good_schedule):
        segs = list(good_schedule[3])
        first = segs[0]
        shrunk = [Segment(first.start, first.start + first.length / 2)] + segs[1:]
        bad = mutate(good_schedule, 3, shrunk)
        assert not verify_schedule(bad).feasible

    def test_inflate_volume(self, good_schedule):
        segs = list(good_schedule[3])
        last = segs[-1]
        grown = segs[:-1] + [Segment(last.start, last.end + 1)]
        bad = mutate(good_schedule, 3, grown)
        assert not verify_schedule(bad).feasible

    def test_cross_job_overlap(self, good_schedule):
        # Copy job 0's slot onto job 3 (inside job 3's window? force overlap
        # by stretching job 3's first segment backwards over busy time).
        segs0 = good_schedule[0]
        bad = mutate(
            good_schedule, 3, [Segment(segs0[0].start + 0.5, segs0[0].start + 9.5)]
        )
        rep = verify_schedule(bad)
        assert not rep.feasible

    def test_budget_violation_detected(self, good_schedule):
        # Split job 3's single segment into three pieces inside its window.
        # Job 3 originally runs [12, 21]; re-split it into three pieces in
        # the idle tail of its window (the machine is free after 21).
        pieces = [Segment(12, 15), Segment(16, 19), Segment(21, 24)]
        bad = mutate(good_schedule, 3, pieces)
        assert verify_schedule(bad, k=2).feasible
        assert not verify_schedule(bad, k=1).feasible


@st.composite
def schedules_and_mutations(draw):
    """Random feasible schedule + a random corruption choice."""
    n = draw(st.integers(min_value=2, max_value=6))
    jobs = []
    for i in range(n):
        r = draw(st.integers(min_value=0, max_value=15))
        p = draw(st.integers(min_value=2, max_value=6))
        slack = draw(st.integers(min_value=0, max_value=8))
        jobs.append(Job(i, r, r + p + slack, p, 1.0))
    sched = edf_accept_max_subset(JobSet(jobs))
    victim = draw(st.sampled_from(sorted(sched.scheduled_ids)))
    kind = draw(st.sampled_from(["early", "late", "short"]))
    return sched, victim, kind


@given(schedules_and_mutations())
def test_random_corruptions_always_caught(smk):
    sched, victim, kind = smk
    job = sched.jobs[victim]
    segs = list(sched[victim])
    if kind == "early":
        new = [s.shifted(-(job.release - (-1000))) for s in segs[:1]] + list(segs[1:])
        # shift the first segment far before the release
        new[0] = Segment(job.release - 5, job.release - 5 + segs[0].length)
    elif kind == "late":
        new = list(segs[:-1]) + [Segment(job.deadline + 1, job.deadline + 1 + segs[-1].length)]
    else:  # short: remove a positive chunk of work
        first = segs[0]
        if first.length <= 1:
            new = list(segs[1:]) or [Segment(first.start, first.start + first.length / 2)]
        else:
            new = [Segment(first.start, first.end - 1)] + list(segs[1:])
    assignment = {i: list(sched[i]) for i in sched.scheduled_ids}
    assignment[victim] = new
    bad = Schedule(sched.jobs, assignment)
    assert not verify_schedule(bad).feasible


class TestServeFaultInjection:
    """The ``serve.drop_cache_entry`` fault: a simulated production cache
    wipe.  The service must absorb it as pure cold-solve throughput — same
    answers, zero hits, no errors, no deadlock — and recover the moment the
    fault disarms."""

    def test_fault_is_catalogued(self):
        from repro.utils.faults import KNOWN_FAULTS

        assert "serve.drop_cache_entry" in KNOWN_FAULTS

    def test_cache_wipe_degrades_but_never_crashes(self):
        from repro.api import SolveRequest, solve_k_bounded
        from repro.instances import random_jobs
        from repro.serve import SolverService
        from repro.utils import faults

        corpus = [(random_jobs(8, seed=40 + i), 1 + i % 2) for i in range(4)]
        expected = {i: solve_k_bounded(jobs, k).value for i, (jobs, k) in enumerate(corpus)}

        with SolverService(workers=2) as svc:
            with faults.inject("serve.drop_cache_entry"):
                for _round in range(3):
                    for i, (jobs, k) in enumerate(corpus):
                        result = svc.solve(SolveRequest(jobs, k), timeout=60)
                        assert result.value == expected[i]
                armed = svc.stats()
            # Fault disarmed: the next pass repopulates and then hits.
            for i, (jobs, k) in enumerate(corpus):
                assert svc.solve(SolveRequest(jobs, k), timeout=60).value == expected[i]
            for i, (jobs, k) in enumerate(corpus):
                assert svc.solve(SolveRequest(jobs, k), timeout=60).value == expected[i]
            recovered = svc.stats()

        # Armed: every lookup missed (the wipe), nothing failed.
        assert armed.hits == 0
        assert armed.misses == 12
        assert armed.errors == 0 and armed.degraded == 0
        # Disarmed: the second post-fault pass was served from cache again.
        assert recovered.hits >= 4
        assert recovered.errors == 0

    def test_cache_unit_behaviour_under_fault(self):
        from repro.serve import LruCache
        from repro.utils import faults

        cache = LruCache(4)
        cache.put("key", 123)
        with faults.inject("serve.drop_cache_entry"):
            assert cache.get("key") is None  # dropped, reported as a miss
        assert cache.get("key") is None  # entry is gone, not just hidden


class TestBasCorruption:
    @pytest.fixture
    def forest(self):
        return Forest([-1, 0, 0, 1, 1, 2, 2, 3, 3], [5, 4, 4, 3, 3, 2, 2, 1, 1])

    def test_degree_inflation_caught(self, forest):
        bas = tm_optimal_bas(forest, 1)
        # Force-retain every child of a retained node with 2 children.
        retained = set(bas.retained)
        for v in sorted(retained):
            kids = [c for c in forest.children(v)]
            if len(kids) >= 2:
                corrupted = retained | set(kids)
                # only a violation if v retained and both kids retained
                rep = verify_bas(SubForest(forest, corrupted), 1)
                if len([c for c in kids if c in corrupted]) > 1:
                    assert not rep.valid
                    return
        pytest.skip("no inflatable node in this BAS")

    def test_gap_injection_caught(self, forest):
        # Retain a grandchild while dropping its parent under a retained root.
        bad = SubForest(forest, [0, 3])  # 0 -> 1 -> 3 with 1 missing
        assert not verify_bas(bad, 2).valid

    def test_tm_output_immune_to_reverify(self, forest):
        for k in (1, 2):
            verify_bas(tm_optimal_bas(forest, k), k).assert_ok()
