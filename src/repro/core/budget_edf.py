"""Budget-EDF: a practical k-bounded heuristic used as an ablation baseline.

The paper's pipeline (reduce an OPT schedule through k-BAS) is what the
*theory* needs; a practitioner's first instinct is simpler — run EDF but
refuse to preempt a job that is already on its last allowed segment.
Budget-EDF implements that instinct:

* jobs are admitted greedily in density order;
* the simulator runs earliest-deadline-first, but a preemption that would
  force the running job past ``k + 1`` segments is **suppressed** (the
  arriving job waits, possibly dying);
* a candidate is accepted only if the simulation then completes every
  previously-accepted job on time.

It carries no worst-case guarantee (the ablations show adversarial nested
instances defeating it) but is competitive on benign workloads — exactly
the gap the paper's bounds formalise.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment, drop_zero_length, merge_touching


def budget_edf_simulate(jobs: JobSet, k: int) -> Tuple[Schedule, List[int]]:
    """Run budget-constrained EDF over the given jobs.

    Returns ``(schedule, missed_ids)``: the schedule holds the jobs that
    completed on time within their budget.  Unlike plain EDF this is *not*
    an exact feasibility test — suppressing a preemption can doom a job
    plain EDF would have saved, and letting one through can doom the
    suppressed arrival.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    ordered = sorted(jobs, key=lambda j: (j.release, j.id))
    n = len(ordered)
    if n == 0:
        return Schedule(jobs, {}), []

    remaining = {j.id: j.length for j in ordered}
    segs_used = {j.id: 0 for j in ordered}  # segments opened so far
    slices: Dict[int, List[Tuple[object, object]]] = {j.id: [] for j in ordered}

    ready: List[Tuple[object, int]] = []  # (deadline, id), excludes running
    i = 0
    t = ordered[0].release
    running: Optional[int] = None

    def start(jid: int, now) -> None:
        """Mark jid as running from `now`; opens a segment unless this
        continues its immediately-preceding slice."""
        continues = bool(slices[jid]) and slices[jid][-1][1] == now
        if not continues:
            segs_used[jid] += 1

    while True:
        while i < n and ordered[i].release <= t:
            job = ordered[i]
            heapq.heappush(ready, (job.deadline, job.id))
            i += 1
        if running is None:
            if not ready:
                if i >= n:
                    break
                t = ordered[i].release
                continue
            _, running = heapq.heappop(ready)
            start(running, t)
        else:
            # EDF wants to preempt?  Allowed only while the running job can
            # afford a future resumption segment.
            if ready and ready[0][0] < jobs[running].deadline and segs_used[running] < k + 1:
                heapq.heappush(ready, (jobs[running].deadline, running))
                _, challenger = heapq.heappop(ready)
                if challenger != running:
                    running = challenger
                    start(running, t)

        finish = t + remaining[running]
        next_release = ordered[i].release if i < n else None
        run_until = finish if next_release is None else min(finish, next_release)
        if run_until > t:
            if slices[running] and slices[running][-1][1] == t:
                s0, _ = slices[running][-1]
                slices[running][-1] = (s0, run_until)
            else:
                slices[running].append((t, run_until))
            remaining[running] = remaining[running] - (run_until - t)
        if finish <= run_until:
            running = None  # completed (on time or not — judged below)
        t = run_until

    missed: List[int] = []
    ok: Dict[int, List[Segment]] = {}
    for j in ordered:
        jid = j.id
        if remaining[jid] > 0:
            missed.append(jid)
            continue
        merged = merge_touching(drop_zero_length(slices[jid]))
        if not merged or merged[-1].end > j.deadline or len(merged) > k + 1:
            missed.append(jid)
            continue
        ok[jid] = merged
    return Schedule(jobs, ok), missed


def budget_edf(jobs: JobSet, k: int, *, order: str = "density") -> Schedule:
    """Greedy admission on top of the budget-constrained simulator.

    Scans jobs by priority; a job is kept when adding it lets *all* kept
    jobs complete on time within the budget.  The output is a feasible
    k-bounded schedule by construction (re-verified in the tests).
    """
    if order == "density":
        scan = jobs.sorted_by_density()
    elif order == "value":
        scan = jobs.sorted_by_value()
    else:
        raise ValueError(f"unknown order {order!r}")
    accepted: List[Job] = []
    for job in scan:
        candidate = JobSet(accepted + [job])
        _, missed = budget_edf_simulate(candidate, k)
        if not missed:
            accepted.append(job)
    final, missed = budget_edf_simulate(JobSet(accepted), k)
    assert not missed
    return Schedule(jobs, {i: list(final[i]) for i in final.scheduled_ids})
