"""Global (migrative) EDF on m identical machines.

The paper's multi-machine results are stated for the non-migrative model
and extended to migration at a constant factor via Kalyanasundaram–Pruhs
[18] ("migration can be eliminated by using 6 times more machines").  To
exercise the migrative side executably we implement the classical *global
EDF* policy: at every instant the m earliest-deadline pending jobs run, one
per machine, and a job may resume on a different machine than it left
(migration).

Unlike the single-machine case, global EDF is **not** an exact feasibility
test for m ≥ 2 (Dhall's effect), so it serves as a *heuristic benchmark*:
any value it schedules is a lower bound witness for the migrative OPT_∞,
which is how experiment E8's migrative column uses it.

The produced object is a :class:`MigratorySchedule` — per-job segments
tagged with machine ids — with its own verifier, since migrative schedules
violate the non-migrative ``MultiMachineSchedule`` invariant by design.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.scheduling.job import Job, JobSet
from repro.scheduling.segment import Segment, drop_zero_length, merge_touching
from repro.scheduling.verify import FeasibilityReport


@dataclass
class MigratorySchedule:
    """A migrative multi-machine schedule: (machine, segment) per job run."""

    jobs: JobSet
    machines: int
    # job id -> list of (machine, segment), time-sorted
    runs: Dict[int, List[Tuple[int, Segment]]] = field(default_factory=dict)

    @property
    def scheduled_ids(self) -> List[int]:
        return sorted(self.runs)

    @property
    def value(self):
        return sum(self.jobs[i].value for i in self.runs)

    def segments_of(self, job_id: int) -> List[Segment]:
        return merge_touching([seg for _, seg in self.runs[job_id]])

    def migrations(self, job_id: int) -> int:
        """Number of machine changes the job suffers."""
        ms = [m for m, _ in sorted(self.runs[job_id], key=lambda x: x[1].start)]
        return sum(1 for a, b in zip(ms, ms[1:]) if a != b)

    def preemptions(self, job_id: int) -> int:
        """Segments − 1 after merging runs contiguous in *time* (a migration
        at a segment boundary still counts as a preemption of the timeline,
        matching Definition 2.1's segment-count view)."""
        return len(self.segments_of(job_id)) - 1

    @property
    def total_migrations(self) -> int:
        return sum(self.migrations(i) for i in self.runs)


def verify_migratory(schedule: MigratorySchedule) -> FeasibilityReport:
    """Feasibility for migrative schedules: per-job windows/volumes, at most
    one job per machine at a time, and no job on two machines at once."""
    violations: List[str] = []
    jobs = schedule.jobs

    per_machine: Dict[int, List[Tuple[Segment, int]]] = {}
    for job_id, runs in schedule.runs.items():
        job = jobs[job_id]
        total = 0
        for machine, seg in runs:
            if not (0 <= machine < schedule.machines):
                violations.append(f"job {job_id}: invalid machine {machine}")
            if seg.start < job.release or seg.end > job.deadline:
                violations.append(f"job {job_id}: run outside window")
            per_machine.setdefault(machine, []).append((seg, job_id))
            total = total + seg.length
        if total != job.length:
            violations.append(f"job {job_id}: scheduled {total}, length {job.length}")
        # No self-parallelism: the job's own runs must be disjoint in time.
        ordered = sorted(runs, key=lambda x: (x[1].start, x[1].end))
        for (_, a), (_, b) in zip(ordered, ordered[1:]):
            if a.end > b.start:
                violations.append(f"job {job_id}: runs on two machines at once")
    for machine, segs in per_machine.items():
        segs.sort(key=lambda x: (x[0].start, x[0].end))
        for (a, ia), (b, ib) in zip(segs, segs[1:]):
            if a.end > b.start:
                violations.append(f"machine {machine}: jobs {ia} and {ib} overlap")
    return FeasibilityReport(feasible=not violations, violations=violations)


def global_edf_schedule(jobs: JobSet, machines: int) -> Tuple[MigratorySchedule, bool]:
    """Simulate global EDF on ``machines`` identical machines.

    At each event (release or completion) the ``machines`` pending jobs
    with the earliest deadlines run, assigned to machines so that a job
    already running keeps its machine when it stays selected (minimising
    gratuitous migrations).  Returns the schedule of on-time jobs and
    whether *every* job met its deadline.
    """
    if machines < 1:
        raise ValueError(f"machines must be >= 1, got {machines}")
    ordered = sorted(jobs, key=lambda j: (j.release, j.id))
    n = len(ordered)
    if n == 0:
        return MigratorySchedule(jobs, machines), True

    remaining = {j.id: j.length for j in ordered}
    runs: Dict[int, List[Tuple[int, Segment]]] = {j.id: [] for j in ordered}
    missed: List[int] = []
    pending: List[Tuple[object, int]] = []  # (deadline, id)
    i = 0
    t = ordered[0].release
    last_machine: Dict[int, int] = {}

    while i < n or pending:
        while i < n and ordered[i].release <= t:
            heapq.heappush(pending, (ordered[i].deadline, ordered[i].id))
            i += 1
        if not pending:
            t = ordered[i].release
            continue
        # Select up to m earliest-deadline jobs.
        selected: List[Tuple[object, int]] = []
        stash: List[Tuple[object, int]] = []
        while pending and len(selected) < machines:
            d, jid = heapq.heappop(pending)
            selected.append((d, jid))
        # Run until the next event: a release or the earliest completion.
        next_release = ordered[i].release if i < n else None
        earliest_finish = min(t + remaining[jid] for _, jid in selected)
        run_until = earliest_finish if next_release is None else min(earliest_finish, next_release)
        if run_until <= t:
            run_until = earliest_finish  # zero-length guard: finish something
        # Sticky machine assignment: a selected job keeps its previous
        # machine when possible; remaining jobs fill the spare machines.
        used = set()
        assignment: Dict[int, int] = {}
        for d, jid in selected:  # first pass: keep machines
            m = last_machine.get(jid)
            if m is not None and m not in used:
                assignment[jid] = m
                used.add(m)
        spare = [m for m in range(machines) if m not in used]
        for d, jid in selected:  # second pass: fill the rest
            if jid not in assignment:
                assignment[jid] = spare.pop(0)
        # Record the runs.
        for d, jid in selected:
            m = assignment[jid]
            if run_until > t:
                runs[jid].append((m, Segment(t, run_until)))
            remaining[jid] = remaining[jid] - (run_until - t)
            last_machine[jid] = m
            if remaining[jid] <= 0:
                if run_until > d:
                    missed.append(jid)
            else:
                heapq.heappush(pending, (d, jid))
        # Completed jobs simply drop out (not re-pushed).
        t = run_until

    missed_set = set(missed)
    # Also treat never-finished jobs as missed (cannot happen: EDF always
    # finishes work eventually since windows are finite — but guard anyway).
    for jid, rem in remaining.items():
        if rem > 0:
            missed_set.add(jid)

    ok_runs = {}
    for jid, rr in runs.items():
        if jid in missed_set or not rr:
            continue
        merged: List[Tuple[int, Segment]] = []
        for m, seg in sorted(rr, key=lambda x: (x[1].start, x[1].end)):
            if merged and merged[-1][0] == m and merged[-1][1].end == seg.start:
                merged[-1] = (m, Segment(merged[-1][1].start, seg.end))
            else:
                merged.append((m, seg))
        ok_runs[jid] = merged
    sched = MigratorySchedule(jobs, machines, ok_runs)
    return sched, not missed_set


def global_edf_accept_max_subset(jobs: JobSet, machines: int, *, order: str = "density") -> MigratorySchedule:
    """Greedy admission under global EDF: keep each job whose addition
    leaves the accepted set schedulable by global EDF on m machines.

    A practical migrative OPT_∞ witness for the E8 experiment — any value
    it returns is achievable with migration, so it lower-bounds the
    migrative optimum.
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
        _, ok = global_edf_schedule(candidate, machines)
        if ok:
            accepted.append(job)
    sched, ok = global_edf_schedule(JobSet(accepted), machines)
    assert ok
    # Re-home to the full instance.
    return MigratorySchedule(jobs, machines, dict(sched.runs))
