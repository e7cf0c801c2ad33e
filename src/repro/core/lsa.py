"""The Leftmost Schedule Algorithm and Classify-and-Select (Section 4.3.2).

**LSA** (Algorithm 2, inner procedure) handles *lax* jobs — relative laxity
``λ_j >= k + 1`` — within a single length class (``P(class) <= k + 1``):

1. sort jobs by density ``σ_j = val(j)/p_j`` descending (the paper's one
   change to the LSA of Albagli-Kim et al. [1], which sorted by value);
2. for each job, take the ``k + 1`` *leftmost* idle segments inside its
   window; while they cannot hold the job, swap the shortest of them for
   the next idle segment to the right; place the job greedily left
   ("leftmost possible way") in at most ``k + 1`` pieces, or reject it.

**LSA_CS** (Algorithm 2, outer procedure) classifies jobs into
``log_{k+1} P`` geometric length classes, runs LSA per class on an empty
machine, and returns the best class's schedule — worth at least
``val(OPT_∞)/(6 log_{k+1} P)`` (Lemma 4.10).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.tracer import current_tracer, span as obs_span
from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment
from repro.scheduling.timeline import Timeline, allocate_leftmost


def _check_lax(jobs: JobSet, k: int) -> None:
    for j in jobs:
        if j.window < (k + 1) * j.length:
            raise ValueError(
                f"LSA requires lax jobs (λ >= k+1 = {k + 1}); job {j.id} has λ = {j.laxity}"
            )


def lsa(
    jobs: JobSet,
    *,
    k: int,
    order: str = "density",
    timeline: Optional[Timeline] = None,
    enforce_laxity: bool = True,
) -> Schedule:
    """Run LSA on one class of lax jobs; returns the schedule it builds.

    ``order="value"`` restores the original ordering of [1] (kept as an
    ablation); ``timeline`` lets the multi-machine wrapper thread partially
    booked machines through; ``enforce_laxity=False`` disables the lax-input
    check for experiments that deliberately run LSA out of spec.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if enforce_laxity and k >= 1:
        _check_lax(jobs, k)
    if order == "density":
        scan = jobs.sorted_by_density()
    elif order == "value":
        scan = jobs.sorted_by_value()
    else:
        raise ValueError(f"unknown order {order!r}")

    tracer = current_tracer()
    tl = timeline if timeline is not None else Timeline()
    assignment: Dict[int, List[Segment]] = {}
    placed = rejected = 0
    for job in scan:
        pieces = _place_job(tl, job, k, tracer)
        if pieces is not None:
            tl.book(pieces)
            assignment[job.id] = pieces
            placed += 1
        else:
            rejected += 1
    if tracer is not None:
        tracer.count("lsa.placed", placed)
        tracer.count("lsa.rejected", rejected)
    return Schedule(jobs, assignment)


def _place_job(tl: Timeline, job: Job, k: int, tracer=None) -> Optional[List[Segment]]:
    """Algorithm 2, lines 11–20, for a single job.

    ``S`` starts as the leftmost ``k + 1`` idle segments in the window; on a
    misfit the shortest member is swapped for the next idle segment to the
    right, until the job fits or the window's idle segments are exhausted.
    ``tracer`` (hoisted by the caller — this runs once per job) records each
    fit attempt and segment swap.
    """
    idles = tl.idle_in(job.release, job.deadline)
    if not idles:
        if tracer is not None:
            tracer.count("lsa.placement_attempts")
        return None
    budget = k + 1
    S: List[Segment] = idles[:budget]
    next_idx = len(S)
    attempts = swaps = 0
    try:
        while True:
            attempts += 1
            capacity = sum(s.length for s in S)
            if capacity >= job.length:
                pieces = allocate_leftmost(sorted(S, key=lambda s: s.start), job.length)
                assert pieces is not None and len(pieces) <= budget
                return pieces
            if next_idx >= len(idles):
                return None
            # Swap the shortest member of S for the next idle segment.
            shortest = min(range(len(S)), key=lambda i: (S[i].length, S[i].start))
            S.pop(shortest)
            S.append(idles[next_idx])
            next_idx += 1
            swaps += 1
    finally:
        if tracer is not None:
            tracer.count("lsa.placement_attempts", attempts)
            tracer.count("lsa.swap_attempts", swaps)


def lsa_cs(
    jobs: JobSet,
    *,
    k: int,
    order: str = "density",
    return_all_classes: bool = False,
    enforce_laxity: bool = True,
) -> Schedule | Tuple[Schedule, Dict[int, Schedule]]:
    """Classify-and-select: LSA per geometric length class, best class wins.

    Classes use base ``k + 1`` so that within each class the length ratio is
    at most ``k + 1`` — the precondition for the constant-factor guarantee
    of the inner LSA (the remark after Lemma 4.12: ``b_0 >= 1/3`` inside a
    class).  Lemma 4.10: the winner is worth at least
    ``val(OPT_∞(J)) / (6 log_{k+1} P)``.

    ``return_all_classes=True`` also returns the per-class schedules, which
    the experiments use to show where the value concentrates.

    ``enforce_laxity=False`` admits strict jobs too: the greedy leftmost
    placement stays feasible on any input (laxity only enters the value
    analysis, never the feasibility argument), which is what the serve
    layer's deadline degradation relies on.  The Lemma 4.10 guarantee
    applies only to the lax fraction of the instance in that mode.
    """
    if k < 1:
        raise ValueError(
            f"lsa_cs requires k >= 1, got {k}; use repro.core.nonpreemptive for k = 0"
        )
    if jobs.n == 0:
        return (Schedule(jobs, {}), {}) if return_all_classes else Schedule(jobs, {})
    classes = jobs.length_classes(k + 1)
    per_class: Dict[int, Schedule] = {}
    best: Optional[Schedule] = None
    with obs_span("lsa.classify", n=jobs.n, k=k, classes=len(classes)):
        for c, class_jobs in classes.items():
            with obs_span("lsa.class", cls=c, jobs=class_jobs.n):
                sched = lsa(class_jobs, k=k, order=order, enforce_laxity=enforce_laxity)
            # Re-home onto the full instance for uniform value accounting.
            sched = Schedule(jobs, {i: list(sched[i]) for i in sched.scheduled_ids})
            per_class[c] = sched
            if best is None or sched.value > best.value:
                best = sched
    assert best is not None
    if return_all_classes:
        return best, per_class
    return best
