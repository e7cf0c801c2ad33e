"""Online baselines — the §1.4 context, executable.

The paper's related work discusses the *online* version of unbounded
preemptive throughput scheduling (Canetti–Irani [14]; Azar–Gilon [3]).
These online policies serve two purposes here: they are natural baselines
for the offline algorithms, and they illustrate the paper's motivation —
an online scheduler that knows nothing of the future racks up *many*
preemptions, exactly the cost the k-bounded model prices.

Two classical policies are implemented on an event-driven simulator:

* :func:`online_edf_admission` — **admission-controlled EDF**: a job is
  accepted at its release iff the residual instance (remaining work of
  accepted-unfinished jobs, released "now") stays EDF-feasible with it;
  accepted jobs always finish (no aborts).
* :func:`online_value_abort` — **abort-based EDF**: everything is admitted;
  whenever the residual set turns infeasible, the policy aborts the
  lowest-value unfinished job until feasibility returns.  Aborted jobs
  contribute no value (their burned machine time is the abort penalty).

Both run in per-event polynomial time and return ordinary verified
:class:`~repro.scheduling.schedule.Schedule` objects for the *completed*
jobs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.scheduling.edf import edf_feasible
from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import drop_zero_length, merge_touching


def _residual_feasible(now, active: Dict[int, Tuple[Job, object]]) -> bool:
    """EDF-feasibility of the residual instance at time ``now``.

    Each unfinished accepted job becomes ⟨release=now, deadline=d_j,
    length=remaining_j⟩; the set is schedulable from ``now`` iff this
    residual instance is EDF-feasible (same classical argument, with all
    releases equal).
    """
    residual = []
    for i, (job, remaining) in enumerate(active.values()):
        if remaining > 0:
            residual.append(Job(i, now, job.deadline, remaining, 1.0))
    if not residual:
        return True
    return edf_feasible(JobSet(residual))


def _simulate(
    jobs: JobSet,
    on_release: Callable[[object, Job, Dict[int, Tuple[Job, object]]], bool],
    on_infeasible: Optional[Callable[[object, Dict[int, Tuple[Job, object]]], int]],
) -> Schedule:
    """Shared event loop: EDF among active jobs; hooks decide admission and
    (optionally) abort victims when the residual set goes infeasible."""
    ordered = sorted(jobs, key=lambda j: (j.release, j.id))
    n = len(ordered)
    if n == 0:
        return Schedule(jobs, {})
    slices: Dict[int, List[Tuple[object, object]]] = {}
    active: Dict[int, Tuple[Job, object]] = {}  # id -> (job, remaining)
    completed: Set[int] = set()
    i = 0
    t = ordered[0].release

    while i < n or active:
        while i < n and ordered[i].release <= t:
            job = ordered[i]
            i += 1
            if on_release(t, job, active):
                active[job.id] = (job, job.length)
                slices.setdefault(job.id, [])
                if on_infeasible is not None:
                    while not _residual_feasible(t, active):
                        victim = on_infeasible(t, active)
                        del active[victim]
        if not active:
            if i >= n:
                break
            t = ordered[i].release
            continue
        # EDF among active jobs.
        run_id = min(active, key=lambda j: (active[j][0].deadline, j))
        job, remaining = active[run_id]
        finish = t + remaining
        next_release = ordered[i].release if i < n else None
        run_until = finish if next_release is None else min(finish, next_release)
        if run_until > t:
            slices[run_id].append((t, run_until))
            active[run_id] = (job, remaining - (run_until - t))
        if finish <= run_until:
            del active[run_id]
            if run_until <= job.deadline:
                completed.add(run_id)
        t = run_until

    assignment = {
        jid: merge_touching(drop_zero_length(sl))
        for jid, sl in slices.items()
        if jid in completed and sl
    }
    return Schedule(jobs, assignment)


def online_edf_admission(jobs: JobSet) -> Schedule:
    """Admission-controlled online EDF: accept a release iff the residual
    instance stays feasible; accepted jobs always complete on time."""

    def admit(now, job: Job, active) -> bool:
        trial = dict(active)
        trial[job.id] = (job, job.length)
        return _residual_feasible(now, trial)

    return _simulate(jobs, admit, None)


def online_value_abort(jobs: JobSet) -> Schedule:
    """Abort-based online EDF: admit everything, abort the lowest-value
    unfinished job whenever the residual set turns infeasible."""

    def admit(now, job: Job, active) -> bool:
        return True

    def victim(now, active) -> int:
        return min(active, key=lambda j: (active[j][0].value, j))

    return _simulate(jobs, admit, victim)

