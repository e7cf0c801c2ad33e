"""The Section 4.1 reduction: schedules ⇄ forests.

**Schedule → forest.**  In a laminar schedule the *hulls* of the jobs (the
smallest interval covering each job's segments) form a laminar family, and
"B preempts A" is exactly "hull(B) ⊂ hull(A)".  Sorting hulls by start time
and sweeping with a stack yields the Schedule Forest in ``O(n log n)``:
nodes are jobs, the parent of a job is the innermost job it preempts.

**Forest → schedule (left-merge).**  Given a k-BAS of the schedule forest,
the retained jobs are re-packed by *compaction*: walk the original atomic
slices in time order, keep only retained jobs' slices, and slide each one
as far left as the previous slice and the job's release allow, merging
touching slices of the same job.  Lemma 4.1's three guarantees hold:

* every slice moves weakly *earlier* (cursor ≤ previous original end ≤ this
  slice's original start, and release times are respected explicitly), so
  windows are kept;
* slices never overlap (a single cursor paces the whole timeline);
* a retained job's runs are separated only by its retained children's
  hulls — at most ``k`` of them in a k-BAS — so each job ends with at most
  ``k + 1`` segments.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bas.contraction import levelled_contraction
from repro.core.bas.forest import Forest
from repro.core.bas.subforest import SubForest
from repro.core.bas.tm import tm_optimal_bas
from repro.obs.tracer import current_tracer
from repro.scheduling.laminar import is_laminar, laminarize
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment, merge_touching


def schedule_to_forest(schedule: Schedule) -> Tuple[Forest, List[int]]:
    """Build the Schedule Forest of a laminar schedule.

    Returns the forest and ``node_to_job``: the job id behind each forest
    node.  Node values are the job values, so a k-BAS of this forest prices
    exactly the value kept by the reduced schedule.

    Raises if the schedule is not laminar — run
    :func:`repro.scheduling.laminar.laminarize` first.
    """
    if not is_laminar(schedule):
        raise ValueError("schedule is not laminar; laminarize() it before reducing")
    hulls = []
    for job_id in schedule.scheduled_ids:
        lo, hi = schedule.hull(job_id)
        hulls.append((lo, hi, job_id))
    # Sort by start; on equal starts the longer hull is the ancestor.
    hulls.sort(key=lambda h: (h[0], _neg(h[1])))

    node_to_job: List[int] = [job_id for _, _, job_id in hulls]
    parents: List[int] = [-1] * len(hulls)
    stack: List[int] = []  # indices into hulls, innermost open hull on top
    for idx, (lo, hi, _job_id) in enumerate(hulls):
        while stack and hulls[stack[-1]][1] <= lo:
            stack.pop()
        if stack:
            parents[idx] = stack[-1]
        stack.append(idx)

    values = [schedule.jobs[job_id].value for job_id in node_to_job]
    return Forest(parents, values), node_to_job


def _neg(x):
    return -x


def forest_to_schedule(
    schedule: Schedule,
    node_to_job: Sequence[int],
    bas: SubForest,
) -> Schedule:
    """Materialise a k-BAS of the schedule forest as a compacted schedule.

    ``schedule`` must be the laminar schedule the forest was built from;
    ``bas.retained`` selects which jobs survive.  The left-merge compaction
    described in the module docstring produces the k-bounded schedule of
    Lemma 4.1.
    """
    retained_jobs = {node_to_job[v] for v in bas.retained}
    # Atomic slices of retained jobs, in time order.
    slices: List[Tuple[Segment, int]] = [
        (seg, job_id) for seg, job_id in schedule.all_segments() if job_id in retained_jobs
    ]
    jobs = schedule.jobs
    assignment: Dict[int, List[Segment]] = {job_id: [] for job_id in retained_jobs}
    cursor = None
    for seg, job_id in slices:
        release = jobs[job_id].release
        start = release if cursor is None else max(cursor, release)
        # Compaction never pushes a slice later than it originally ran.
        if start > seg.start:  # pragma: no cover - violated only by infeasible input
            raise RuntimeError(
                f"compaction would delay job {job_id} past its original slot; "
                "was the input schedule feasible and laminar?"
            )
        end = start + seg.length
        assignment[job_id].append(Segment(start, end))
        cursor = end
    return Schedule(
        schedule.jobs,
        {job_id: merge_touching(segs) for job_id, segs in assignment.items() if segs},
    )


def forest_to_schedule_reedf(
    schedule: Schedule,
    node_to_job: Sequence[int],
    bas: SubForest,
) -> Schedule:
    """Ablation alternative to the left-merge: re-run EDF on the retained set.

    The retained jobs are feasible together (they were part of a feasible
    schedule), so EDF schedules them — but EDF knows nothing about the
    k-BAS structure and may preempt a retained job by *several* retained
    non-descendants, exceeding the ``k + 1`` segment budget that the
    left-merge compaction guarantees.  E10 measures how often.
    """
    from repro.scheduling.edf import edf_schedule

    retained_jobs = {node_to_job[v] for v in bas.retained}
    subset = schedule.jobs.subset(retained_jobs)
    result = edf_schedule(subset)
    if not result.feasible:  # pragma: no cover - subset of a feasible schedule
        raise RuntimeError("retained subset must be EDF-feasible")
    return Schedule(
        schedule.jobs,
        {i: list(result.schedule[i]) for i in result.schedule.scheduled_ids},
    )


def reduce_schedule_to_k_preemptive(
    schedule: Schedule,
    k: int,
    *,
    algorithm: str = "tm",
) -> Schedule:
    """Full Section-4 pipeline: any feasible ∞-preemptive schedule → a
    feasible k-preemptive schedule keeping a ``1/log_{k+1} n`` value share.

    Steps: laminarise (Figure 1) → schedule forest (§4.1) → optimal k-BAS
    (**TM**, §3.2; or ``algorithm="contraction"`` for LevelledContraction) →
    left-merge compaction (Lemma 4.1).

    Theorem 4.2: the result's value is at least
    ``val(schedule) / log_{k+1} n`` when TM is used.
    """
    if k < 1:
        raise ValueError(
            f"reduction requires k >= 1, got {k}; "
            "use repro.core.nonpreemptive for the k = 0 case"
        )
    if len(schedule) == 0:
        return schedule
    tracer = current_tracer()
    if tracer is None:
        laminar = schedule if is_laminar(schedule) else laminarize(schedule)
        forest, node_to_job = schedule_to_forest(laminar)
        bas = _pick_bas(forest, k, algorithm)
        return forest_to_schedule(laminar, node_to_job, bas)
    with tracer.span(
        "reduce.pipeline", jobs=len(schedule), k=k, algorithm=algorithm
    ) as s:
        with tracer.span("reduce.laminarize", jobs=len(schedule)) as lam_span:
            already = is_laminar(schedule)
            laminar = schedule if already else laminarize(schedule)
            lam_span.attrs["already_laminar"] = already
        with tracer.span("reduce.forest"):
            forest, node_to_job = schedule_to_forest(laminar)
        with tracer.span("reduce.bas", n=forest.n):
            bas = _pick_bas(forest, k, algorithm)
        with tracer.span("reduce.compact", retained=len(bas.retained)):
            out = forest_to_schedule(laminar, node_to_job, bas)
        s.attrs["kept_value"] = float(out.value)
        tracer.count("reduce.runs")
        return out


def _pick_bas(forest: Forest, k: int, algorithm: str) -> SubForest:
    if algorithm == "tm":
        return tm_optimal_bas(forest, k)
    if algorithm == "contraction":
        return levelled_contraction(forest, k).best_subforest()
    raise ValueError(f"unknown algorithm {algorithm!r} (want 'tm' or 'contraction')")
