"""Schedules: assignments of pairwise-disjoint segments to jobs.

:class:`Schedule` is the single-machine object of Definition 2.1: a mapping
from accepted job ids to their (sorted, disjoint) execution segments, with
the owning :class:`~repro.scheduling.job.JobSet` kept alongside so that
feasibility can always be re-checked.  :class:`MultiMachineSchedule` is the
non-migrative multi-machine extension: one :class:`Schedule` per machine
with pairwise-disjoint accepted job sets.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.scheduling.job import Job, JobSet
from repro.scheduling.segment import (
    Segment,
    complement_within,
    coverage_hull,
    merge_touching,
    sort_segments,
    total_length,
)


class Schedule:
    """A (candidate) feasible schedule of a subset of a job set.

    The constructor normalises each job's segment list: segments are sorted
    and *touching* segments are coalesced, since two abutting segments are a
    single execution interval and must count once against the preemption
    budget.  It does **not** check feasibility — that is the verifier's job
    (:func:`repro.scheduling.verify.verify_schedule`) — but it does reject
    structurally nonsensical inputs (unknown job ids, empty segment lists).
    """

    def __init__(self, jobs: JobSet, assignment: Mapping[int, Iterable[Segment]]):
        self._jobs = jobs
        segs: Dict[int, Tuple[Segment, ...]] = {}
        for job_id, raw in assignment.items():
            if job_id not in jobs:
                raise KeyError(f"schedule references unknown job id {job_id}")
            merged = merge_touching(list(raw))
            if not merged:
                raise ValueError(f"job {job_id} scheduled with no segments; omit it instead")
            segs[job_id] = tuple(merged)
        self._segments = segs

    # -- accessors ------------------------------------------------------------

    @property
    def jobs(self) -> JobSet:
        """The full underlying instance (including unscheduled jobs)."""
        return self._jobs

    @property
    def scheduled_ids(self) -> List[int]:
        return sorted(self._segments)

    @property
    def scheduled_jobs(self) -> List[Job]:
        return [self._jobs[i] for i in self.scheduled_ids]

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def __getitem__(self, job_id: int) -> Tuple[Segment, ...]:
        return self._segments[job_id]

    def items(self):
        return self._segments.items()

    def __repr__(self) -> str:
        return f"Schedule(accepted={len(self)}/{self._jobs.n}, value={self.value})"

    # -- value & preemption accounting ---------------------------------------

    @property
    def value(self):
        """Total value of the accepted jobs, ``val(J')``."""
        return sum(self._jobs[i].value for i in self._segments)

    def preemptions(self, job_id: int) -> int:
        """Number of preemptions suffered by an accepted job: segments − 1."""
        return len(self._segments[job_id]) - 1

    @property
    def max_preemptions(self) -> int:
        """The largest per-job preemption count (0 for an empty schedule)."""
        if not self._segments:
            return 0
        return max(len(s) - 1 for s in self._segments.values())

    def is_k_preemptive(self, k: int) -> bool:
        """Definition 2.1(c): no accepted job has more than ``k+1`` segments."""
        return self.max_preemptions <= k

    # -- timeline decomposition ----------------------------------------------

    def all_segments(self) -> List[Tuple[Segment, int]]:
        """Every (segment, job id) pair, in increasing time order."""
        flat = [(seg, job_id) for job_id, segs in self._segments.items() for seg in segs]
        flat.sort(key=lambda x: (x[0].start, x[0].end))
        return flat

    def busy_segments(self) -> List[Segment]:
        """Maximal busy intervals (merging across job boundaries)."""
        return merge_touching([seg for seg, _ in self.all_segments()])

    def idle_segments(self, lo, hi) -> List[Segment]:
        """Maximal idle intervals within ``[lo, hi)``."""
        return complement_within([seg for seg, _ in self.all_segments()], lo, hi)

    def hull(self, job_id: int) -> Tuple[float, float]:
        """Smallest interval covering the job's segments (laminar-forest key)."""
        return coverage_hull(self._segments[job_id])

    # -- derived schedules -----------------------------------------------------

    def restricted_to(self, ids: Iterable[int]) -> "Schedule":
        """The schedule with only the given jobs kept.

        Removing jobs from a feasible schedule keeps it feasible (their
        slots simply fall idle), which is why the strict/lax split of
        Algorithm 3 can hand each half of an OPT schedule to its own
        sub-algorithm.
        """
        keep = set(ids)
        return Schedule(self._jobs, {i: s for i, s in self._segments.items() if i in keep})

    def with_jobset(self, jobs: JobSet) -> "Schedule":
        """Rebind the schedule to another JobSet containing the same ids."""
        return Schedule(jobs, dict(self._segments))

    def scheduled_subset(self) -> JobSet:
        """The accepted jobs as a JobSet."""
        return self._jobs.subset(self._segments.keys())


class MultiMachineSchedule:
    """Non-migrative multi-machine schedule: one single-machine schedule per
    machine, with no job accepted on two machines (Definition 2.1 extension).
    """

    def __init__(self, jobs: JobSet, machines: Sequence[Schedule]):
        self._jobs = jobs
        self._machines = tuple(machines)
        seen: Dict[int, int] = {}
        for m, sched in enumerate(self._machines):
            for job_id in sched.scheduled_ids:
                if job_id in seen:
                    raise ValueError(
                        f"job {job_id} scheduled on machines {seen[job_id]} and {m}; "
                        "non-migrative schedules accept each job on one machine"
                    )
                seen[job_id] = m
        self._owner = seen

    @property
    def jobs(self) -> JobSet:
        return self._jobs

    @property
    def machines(self) -> Tuple[Schedule, ...]:
        return self._machines

    @property
    def num_machines(self) -> int:
        return len(self._machines)

    @property
    def value(self):
        return sum(m.value for m in self._machines)

    @property
    def scheduled_ids(self) -> List[int]:
        return sorted(self._owner)

    def machine_of(self, job_id: int) -> Optional[int]:
        return self._owner.get(job_id)

    @property
    def max_preemptions(self) -> int:
        return max((m.max_preemptions for m in self._machines), default=0)

    def is_k_preemptive(self, k: int) -> bool:
        return all(m.is_k_preemptive(k) for m in self._machines)

    def __repr__(self) -> str:
        return (
            f"MultiMachineSchedule(machines={self.num_machines}, "
            f"accepted={len(self._owner)}/{self._jobs.n}, value={self.value})"
        )


def empty_schedule(jobs: JobSet) -> Schedule:
    """The schedule that accepts nothing (value 0)."""
    return Schedule(jobs, {})


def single_job_schedule(jobs: JobSet, job_id: int) -> Schedule:
    """Schedule exactly one job, en bloc, at its release time.

    This is the trivial non-preemptive fallback of Section 5 that certifies
    the ``n`` upper bound for ``k = 0``: the most valuable job alone is a
    feasible schedule worth at least ``val(J)/n``.
    """
    job = jobs[job_id]
    return Schedule(jobs, {job_id: [Segment(job.release, job.release + job.length)]})


def best_single_job(jobs: JobSet) -> Schedule:
    """The single-job schedule of maximal value."""
    if jobs.n == 0:
        return empty_schedule(jobs)
    best = max(jobs, key=lambda j: (j.value, -j.id))
    return single_job_schedule(jobs, best.id)
