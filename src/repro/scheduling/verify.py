"""Feasibility verification (Definition 2.1).

Every algorithm in this repository returns schedules that are re-checked by
an *independent* verifier — the checks below never trust intermediate
bookkeeping, only the final segment lists.  A schedule is feasible when

(a) each accepted job's segments are pairwise disjoint, lie inside the
    job's window, and sum to exactly its length;
(b) segments of different jobs are pairwise disjoint (one machine runs at
    most one job at a time);
(c) optionally, no job has more than ``k + 1`` segments (the k-preemptive
    condition of Definition 2.1(c)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.scheduling.schedule import MultiMachineSchedule, Schedule


@dataclass
class FeasibilityReport:
    """Outcome of a verification run: a verdict plus human-readable reasons."""

    feasible: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.feasible

    def assert_ok(self) -> None:
        """Raise with the full violation list when infeasible (test helper)."""
        if not self.feasible:
            raise AssertionError("infeasible schedule:\n  " + "\n  ".join(self.violations))


def verify_schedule(
    schedule: Schedule,
    k: Optional[int] = None,
    *,
    max_violations: int = 20,
) -> FeasibilityReport:
    """Check a single-machine schedule against Definition 2.1.

    ``k=None`` verifies an unbounded-preemption schedule; an integer ``k``
    additionally enforces the per-job budget of at most ``k+1`` segments.
    """
    violations: List[str] = []

    def report(msg: str) -> None:
        if len(violations) < max_violations:
            violations.append(msg)

    jobs = schedule.jobs
    for job_id, segs in schedule.items():
        job = jobs[job_id]
        # (a) window containment — every segment inside [r_j, d_j].
        for seg in segs:
            if seg.start < job.release:
                report(f"job {job_id}: segment starts {seg.start} before release {job.release}")
            if seg.end > job.deadline:
                report(f"job {job_id}: segment ends {seg.end} after deadline {job.deadline}")
        # (a) per-job disjointness (segments are sorted by construction).
        for a, b in zip(segs, segs[1:]):
            if a.end > b.start:
                report(f"job {job_id}: segments [{a.start},{a.end}) and [{b.start},{b.end}) overlap")
        # (a) exact processing volume.
        scheduled = sum(s.length for s in segs)
        if scheduled != job.length:
            report(
                f"job {job_id}: scheduled {scheduled} time units, length is {job.length}"
            )
        # (c) preemption budget.
        if k is not None and len(segs) > k + 1:
            report(
                f"job {job_id}: {len(segs)} segments exceeds the k+1 = {k + 1} budget"
            )

    # (b) machine exclusivity: global sweep over all segments.
    flat = schedule.all_segments()
    for (seg_a, id_a), (seg_b, id_b) in zip(flat, flat[1:]):
        if id_a != id_b and seg_a.end > seg_b.start:
            report(
                f"jobs {id_a} and {id_b} overlap on "
                f"[{seg_b.start}, {min(seg_a.end, seg_b.end)})"
            )

    return FeasibilityReport(feasible=not violations, violations=violations)


def verify_multimachine(
    schedule: MultiMachineSchedule,
    k: Optional[int] = None,
) -> FeasibilityReport:
    """Check every machine of a non-migrative multi-machine schedule.

    Job-uniqueness across machines is enforced structurally by
    :class:`MultiMachineSchedule`; here we verify each machine's timeline
    independently, which is exactly the paper's extension of Definition 2.1.
    """
    violations: List[str] = []
    for m, single in enumerate(schedule.machines):
        rep = verify_schedule(single, k)
        violations.extend(f"machine {m}: {v}" for v in rep.violations)
    return FeasibilityReport(feasible=not violations, violations=violations)
