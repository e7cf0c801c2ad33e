"""Fixed preemption points — the survey's other limited-preemption model.

The Buttazzo–Bertogna–Yao survey [13] the paper cites catalogues several
ways to limit preemption; besides the per-job *budget* this paper studies,
a popular one is **fixed preemption points**: a job may be preempted only
at designated positions in its own code.  Spacing a job's points equally —
``k`` interior points, i.e. ``k + 1`` equal chunks of ``p_j/(k+1)`` —
yields a scheduler that is *structurally* k-bounded: chunks run to
completion, so no job can ever exceed ``k + 1`` segments.

:func:`fixed_point_schedule` implements chunk-granular EDF with greedy
admission on top.  It is the natural systems-style competitor to
budget-EDF (which spends its budget reactively) and to the paper's
pipeline (which chooses globally); experiment E15 races all three on
periodic workloads.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment, drop_zero_length, merge_touching


def _chunk_size(job: Job, k: int):
    """Equal spacing: ``p_j / (k+1)``, exact."""
    return Fraction(job.length, k + 1)


def fixed_point_simulate(jobs: JobSet, k: int) -> Tuple[Schedule, List[int]]:
    """Chunk-granular EDF over all given jobs.

    At every decision instant (a chunk completes, or the machine is idle
    and a job arrives) the pending job with the earliest deadline starts
    its next chunk, which then runs to completion — arrivals during a
    chunk wait.  Returns the schedule of on-time jobs and the missed ids.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    ordered = sorted(jobs, key=lambda j: (j.release, j.id))
    n = len(ordered)
    if n == 0:
        return Schedule(jobs, {}), []

    chunk = {j.id: _chunk_size(j, k) for j in ordered}
    remaining = {j.id: j.length for j in ordered}
    slices: Dict[int, List[Tuple[object, object]]] = {j.id: [] for j in ordered}

    ready: List[Tuple[object, int]] = []
    i = 0
    t = ordered[0].release

    while i < n or ready:
        while i < n and ordered[i].release <= t:
            heapq.heappush(ready, (ordered[i].deadline, ordered[i].id))
            i += 1
        if not ready:
            if i >= n:
                break
            t = ordered[i].release
            continue
        _, jid = heapq.heappop(ready)
        size = min(chunk[jid], remaining[jid])
        end = t + size
        slices[jid].append((t, end))
        remaining[jid] = remaining[jid] - size
        if remaining[jid] > 0:
            heapq.heappush(ready, (jobs[jid].deadline, jid))
        t = end

    missed: List[int] = []
    ok: Dict[int, List[Segment]] = {}
    for j in ordered:
        segs = merge_touching(drop_zero_length(slices[j.id]))
        if not segs or remaining[j.id] > 0 or segs[-1].end > j.deadline:
            missed.append(j.id)
            continue
        assert len(segs) <= k + 1, "equal chunking cannot exceed the budget"
        ok[j.id] = segs
    return Schedule(jobs, ok), missed


def fixed_point_schedule(jobs: JobSet, k: int, *, order: str = "density") -> Schedule:
    """Greedy admission over the chunked simulator.

    A job is kept when adding it lets every kept job finish on time; the
    output is feasible and structurally k-bounded.
    """
    if order == "density":
        scan = jobs.sorted_by_density()
    elif order == "value":
        scan = jobs.sorted_by_value()
    else:
        raise ValueError(f"unknown order {order!r}")
    accepted: List[Job] = []
    for job in scan:
        _, missed = fixed_point_simulate(JobSet(accepted + [job]), k)
        if not missed:
            accepted.append(job)
    final, missed = fixed_point_simulate(JobSet(accepted), k)
    assert not missed
    return Schedule(jobs, {i: list(final[i]) for i in final.scheduled_ids})
