"""Preemptive Earliest-Deadline-First scheduling and feasibility.

EDF is the workhorse the paper leans on implicitly: a set of jobs is
feasibly schedulable on one machine with unbounded preemption **iff** EDF
(run at every instant the ready job with the earliest deadline) completes
every job by its deadline.  This classical fact gives us

* an exact polynomial *feasibility oracle* for job subsets, which powers the
  exact ``OPT_∞`` branch-and-bound in :mod:`repro.scheduling.exact`;
* a concrete optimal ∞-preemptive *schedule* for any feasible subset, which
  is what the Section 4.1 reduction consumes; and
* laminarity for free: with deterministic tie-breaking, an EDF schedule
  never interleaves two jobs as ``a ≺ b ≺ a' ≺ b'`` (if B ran while A was
  pending then ``d_B <= d_A``, and vice versa, so alternation would force
  equal deadlines *and* contradictory tie-breaks).  EDF output therefore
  feeds the schedule-forest construction directly, no Figure 1
  rearrangement needed.

The simulator is event-driven and exact: with ``int``/``Fraction``
coordinates no rounding occurs, so the zero-slack Appendix-B instances are
verified tightly.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, List, NamedTuple, Tuple

from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import drop_zero_length, merge_touching


class EdfResult(NamedTuple):
    """Outcome of an EDF simulation."""

    schedule: Schedule
    feasible: bool
    missed: Tuple[int, ...]


def edf_schedule(jobs: JobSet, *, stop_on_miss: bool = True) -> EdfResult:
    """Simulate preemptive EDF over the whole job set.

    At every decision point the ready job with the earliest deadline runs
    (ties broken by job id, which keeps the output deterministic and
    laminar); the machine never idles while work is pending.  Returns the
    produced schedule, whether every job met its deadline, and the ids of
    jobs that would miss.

    With ``stop_on_miss=True`` (the default) the simulation aborts at the
    first provable miss — by EDF optimality the job set is then infeasible
    and the partial schedule is irrelevant.  ``stop_on_miss=False`` keeps
    simulating, scheduling even late work, which is occasionally useful for
    diagnostics; the returned schedule then contains only on-time jobs.
    """
    ordered = sorted(jobs, key=lambda j: (j.release, j.id))
    n = len(ordered)
    if n == 0:
        return EdfResult(Schedule(jobs, {}), True, ())

    remaining: Dict[int, object] = {j.id: j.length for j in ordered}
    slices: Dict[int, List[Tuple[object, object]]] = {j.id: [] for j in ordered}
    missed: List[int] = []

    ready: List[Tuple[object, int]] = []  # heap of (deadline, job id)
    i = 0  # next release index
    t = ordered[0].release

    while i < n or ready:
        # Admit everything released by now.
        while i < n and ordered[i].release <= t:
            heapq.heappush(ready, (ordered[i].deadline, ordered[i].id))
            i += 1
        if not ready:
            # Idle until the next release.
            t = ordered[i].release
            continue
        deadline, job_id = ready[0]
        rem = remaining[job_id]
        finish = t + rem
        next_release = ordered[i].release if i < n else None
        run_until = finish if next_release is None else min(finish, next_release)
        if run_until > t:
            slices[job_id].append((t, run_until))
            remaining[job_id] = rem - (run_until - t)
        if finish <= run_until:
            # Job completed at run_until.
            heapq.heappop(ready)
            if run_until > deadline:
                missed.append(job_id)
                if stop_on_miss:
                    return EdfResult(Schedule(jobs, {}), False, tuple(missed))
        t = run_until

    on_time = {
        job_id: merge_touching(drop_zero_length(s))
        for job_id, s in slices.items()
        if job_id not in set(missed) and s
    }
    schedule = Schedule(jobs, on_time)
    return EdfResult(schedule, not missed, tuple(missed))


def edf_feasible(jobs: JobSet) -> bool:
    """Exact single-machine ∞-preemptive feasibility test (classical EDF)."""
    return edf_schedule(jobs, stop_on_miss=True).feasible


def _feasibility_key(jobs: JobSet) -> Tuple[Tuple[object, object, object], ...]:
    """A frozen-jobset key for feasibility: the sorted ``(r, d, p)`` triples.

    Ids and values cannot affect feasibility, so quotienting them out lets
    differently-labelled copies of the same geometry share a cache entry.
    """
    return tuple(sorted((j.release, j.deadline, j.length) for j in jobs))


@lru_cache(maxsize=1 << 16)
def _feasible_by_key(key: Tuple[Tuple[object, object, object], ...]) -> bool:
    jobs = JobSet(Job(i, r, d, p) for i, (r, d, p) in enumerate(key))
    return edf_schedule(jobs, stop_on_miss=True).feasible


def edf_feasible_cached(jobs: JobSet) -> bool:
    """Memoized :func:`edf_feasible` keyed on the frozen jobset geometry.

    The exact ``OPT_∞`` branch-and-bound re-tests thousands of subsets, and
    experiment sweeps re-test recurring geometries across repeats; an LRU
    over the value-free key collapses those into one EDF simulation each.
    ``edf_feasible_cached.cache_info()`` / ``.cache_clear()`` expose the
    underlying :func:`functools.lru_cache` controls.
    """
    return _feasible_by_key(_feasibility_key(jobs))


edf_feasible_cached.cache_info = _feasible_by_key.cache_info  # type: ignore[attr-defined]
edf_feasible_cached.cache_clear = _feasible_by_key.cache_clear  # type: ignore[attr-defined]


def edf_accept_max_subset(jobs: JobSet, *, order: str = "density") -> Schedule:
    """Greedy value-aware admission: scan jobs in a priority order, keep each
    job whose addition leaves the accepted set EDF-feasible.

    This is not optimal (the subset-selection problem is NP-hard) but it is
    a strong, fast baseline for ``OPT_∞`` on instances too large for the
    exact branch-and-bound — and on the paper's lower-bound families, where
    *all* jobs are feasible together, it is exact.

    ``order`` is ``"density"`` (``σ_j`` descending — the ordering the paper
    switches LSA to), ``"value"`` or ``"laxity"`` (tightest first).
    """
    if order == "density":
        scan = jobs.sorted_by_density()
    elif order == "value":
        scan = jobs.sorted_by_value()
    elif order == "laxity":
        scan = sorted(jobs, key=lambda j: (j.laxity, j.id))
    else:
        raise ValueError(f"unknown order {order!r}")

    accepted: List[Job] = []
    for job in scan:
        candidate = JobSet(accepted + [job])
        if edf_feasible(candidate):
            accepted.append(job)
    final = JobSet(accepted)
    result = edf_schedule(final)
    assert result.feasible, "accepted set must be EDF-feasible by construction"
    # Re-home the schedule onto the full instance so value/verification see
    # the complete job universe.
    return Schedule(jobs, {i: list(result.schedule[i]) for i in result.schedule.scheduled_ids})
