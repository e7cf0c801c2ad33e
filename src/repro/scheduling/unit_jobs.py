"""Exact scheduling of unit-length jobs via assignment (Baptiste's regime).

The paper cites Baptiste et al. [5, 6] for polynomial algorithms in the
*equal processing time* special case.  For unit-length jobs with integral
release times and deadlines the problem collapses completely: a schedule
is an assignment of accepted jobs to distinct unit time slots inside their
windows, so the maximum-value schedule is a maximum-weight bipartite
matching between jobs and slots — and preemption is irrelevant
(``OPT_k = OPT_∞`` for every k ≥ 0).

We solve it exactly with ``scipy.optimize.linear_sum_assignment`` on a
rectangular cost matrix.  This gives the test suite an independent exact
oracle whose answers must agree with EDF feasibility, the B&B solver and
the k-bounded pipeline on unit-length instances.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.scheduling.job import JobSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment


def _require_unit_integral(jobs: JobSet) -> None:
    for j in jobs:
        if j.length != 1:
            raise ValueError(f"job {j.id} has length {j.length}; unit-length required")
        if not isinstance(j.release, int) or not isinstance(j.deadline, int):
            raise ValueError(f"job {j.id} needs integral release/deadline")


def unit_jobs_optimal(jobs: JobSet) -> Schedule:
    """Exact maximum-value schedule of unit-length jobs (non-preemptive,
    hence optimal for every preemption budget).

    Candidate slots are the unit intervals ``[t, t+1)`` for integer ``t``
    inside some job's window; the weight of (job, slot) is the job's value
    when the slot fits its window, else −∞.  Hungarian assignment on the
    negated weights yields the optimum in ``O((n + T)^3)`` — ample at
    laptop scale.
    """
    if jobs.n == 0:
        return Schedule(jobs, {})
    _require_unit_integral(jobs)

    slots: List[int] = sorted(
        {
            t
            for j in jobs
            for t in range(int(j.release), int(j.deadline))
        }
    )
    if not slots:
        return Schedule(jobs, {})
    slot_index = {t: i for i, t in enumerate(slots)}
    n, m = jobs.n, len(slots)

    FORBIDDEN = 1e15
    cost = np.full((n, m), FORBIDDEN)
    ids = jobs.ids
    for row, job_id in enumerate(ids):
        j = jobs[job_id]
        for t in range(int(j.release), int(j.deadline)):
            cost[row, slot_index[t]] = -float(j.value)

    rows, cols = linear_sum_assignment(cost)
    assignment: Dict[int, List[Segment]] = {}
    for r, c in zip(rows, cols):
        if cost[r, c] < 0:  # a real (job, slot) pairing, not a filler
            t = slots[c]
            assignment[ids[r]] = [Segment(t, t + 1)]
    return Schedule(jobs, assignment)


def unit_jobs_optimal_value(jobs: JobSet) -> float:
    """Value of the exact unit-length optimum."""
    return unit_jobs_optimal(jobs).value
