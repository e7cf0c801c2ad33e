"""Classical non-preemptive baselines the paper builds on (Section 1.4).

Three cited classics are implemented as substrate and ablation baselines:

* **Moore–Hodgson** [24]: maximise the *number* of on-time jobs when all
  jobs share a release time, ``O(n log n)``, optimal.
* **Lawler–Moore** [23]: maximise the *value* of on-time jobs with a common
  release time, pseudo-polynomial DP over total processing time.
* A density-greedy non-preemptive scheduler for arbitrary release times —
  the naive baseline the k = 0 experiments compare LSA_CS against.

All three produce non-preemptive (k = 0) schedules; they are verified by
the same :func:`repro.scheduling.verify.verify_schedule` as everything else.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment
from repro.scheduling.timeline import Timeline, leftmost_fit_single


def _common_release(jobs: JobSet):
    releases = {j.release for j in jobs}
    if len(releases) > 1:
        raise ValueError(
            "algorithm requires a common release time; "
            f"saw {len(releases)} distinct releases"
        )
    return next(iter(releases)) if releases else 0


def moore_hodgson(jobs: JobSet) -> Schedule:
    """Moore–Hodgson: maximum cardinality of on-time jobs, common release.

    Classic exchange argument: scan jobs in EDD (earliest-due-date) order,
    appending each to the tentative sequence; whenever the running
    completion time exceeds the current job's deadline, evict the longest
    job accepted so far.  The survivors are scheduled back to back.
    """
    if jobs.n == 0:
        return Schedule(jobs, {})
    r0 = _common_release(jobs)
    accepted_heap: List[Tuple[object, int]] = []  # (-length, id): longest on top
    accepted: Dict[int, Job] = {}
    completion = r0
    for job in sorted(jobs, key=lambda j: (j.deadline, j.id)):
        accepted[job.id] = job
        heapq.heappush(accepted_heap, (_neg(job.length), job.id))
        completion = completion + job.length
        if completion > job.deadline:
            # Evict the longest accepted job — optimal by the standard
            # exchange argument (it frees the most time while costing one
            # unit of cardinality, the same as any other eviction).
            neg_len, evict_id = heapq.heappop(accepted_heap)
            completion = completion - accepted[evict_id].length
            del accepted[evict_id]
    return _pack_back_to_back(jobs, list(accepted.values()), r0)


def _neg(x):
    return -x


def _pack_back_to_back(jobs: JobSet, chosen: List[Job], r0) -> Schedule:
    """Schedule the chosen jobs consecutively in EDD order from ``r0``.

    For a common release time, EDD order is feasibility-optimal: if any
    order meets all deadlines, EDD does.
    """
    t = r0
    assignment: Dict[int, List[Segment]] = {}
    for job in sorted(chosen, key=lambda j: (j.deadline, j.id)):
        assignment[job.id] = [Segment(t, t + job.length)]
        t = t + job.length
    return Schedule(jobs, assignment)


def lawler_moore_weighted(jobs: JobSet) -> Schedule:
    """Lawler–Moore DP: maximum *value* of on-time jobs, common release.

    ``f[t]`` = maximum value achievable with the accepted jobs occupying
    exactly ``t`` units of processing, jobs considered in EDD order
    (the "tower of sets" property makes EDD prefixes sufficient).  Runs in
    ``O(n * sum(p_j))`` — pseudo-polynomial, requires integral lengths.
    """
    if jobs.n == 0:
        return Schedule(jobs, {})
    for j in jobs:
        if not isinstance(j.length, int):
            raise ValueError(f"lawler_moore_weighted requires integer lengths (job {j.id})")
    r0 = _common_release(jobs)
    order = sorted(jobs, key=lambda j: (j.deadline, j.id))
    total_p = sum(int(j.length) for j in order)

    NEG = float("-inf")
    f = [NEG] * (total_p + 1)
    f[0] = 0
    choice: List[List[bool]] = []  # choice[i][t]: was job i accepted to reach f-state t?
    for job in order:
        p = int(job.length)
        cap = int(job.deadline - r0)  # accepted work must finish by the deadline
        nf = list(f)
        taken = [False] * (total_p + 1)
        for t in range(total_p, p - 1, -1):
            if t <= cap and f[t - p] != NEG and f[t - p] + job.value > nf[t]:
                nf[t] = f[t - p] + job.value
                taken[t] = True
        f = nf
        choice.append(taken)

    best_t = max(range(total_p + 1), key=lambda t: f[t])
    # Trace back the accepted set.
    chosen: List[Job] = []
    t = best_t
    for i in range(len(order) - 1, -1, -1):
        if choice[i][t]:
            chosen.append(order[i])
            t -= int(order[i].length)
    assert t == 0, "DP traceback must consume exactly the chosen processing time"
    return _pack_back_to_back(jobs, chosen, r0)


def greedy_nonpreemptive(jobs: JobSet, *, order: str = "density") -> Schedule:
    """First-fit non-preemptive greedy for arbitrary releases.

    Scans jobs in the given priority order and places each en bloc at the
    leftmost idle slot inside its window, skipping jobs that no longer fit.
    This is the natural "no theory" baseline for k = 0; Section 5 shows the
    classified LSA beats its worst case by an exponential margin in ``P``.
    """
    if order == "density":
        scan = jobs.sorted_by_density()
    elif order == "value":
        scan = jobs.sorted_by_value()
    elif order == "deadline":
        scan = sorted(jobs, key=lambda j: (j.deadline, j.id))
    else:
        raise ValueError(f"unknown order {order!r}")
    timeline = Timeline()
    assignment: Dict[int, List[Segment]] = {}
    for job in scan:
        idles = timeline.idle_in(job.release, job.deadline)
        placement = leftmost_fit_single(idles, job.length)
        if placement is not None:
            timeline.book([placement])
            assignment[job.id] = [placement]
    return Schedule(jobs, assignment)
