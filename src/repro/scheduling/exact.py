"""Exact optimal solvers — the "adversary" side of the price ratio.

The price of bounded preemption compares an algorithm's value against
``OPT_∞``, the best value achievable with unlimited preemption.  Selecting
the optimal feasible subset is NP-hard (Karp; the paper's Section 1.4), so
exactness costs exponential time — affordable here because

* the measured-price experiments use modest ``n`` (≤ ~30 for exact runs,
  greedy EDF admission beyond), and
* on the lower-bound families ``OPT_∞`` is known in closed form and the
  solvers are used only to *verify* those closed forms.

Three exact engines live here:

* :func:`opt_infty_exact` — the bitset branch-and-bound of
  :mod:`repro.scheduling.bitset_bb`: EDD-ordered bitmask search with an
  incremental capacity-vector feasibility check, dominance pruning and
  suffix/fractional-relaxation bounds (n ≈ 30 in well under a second);
* :func:`opt_infty_reference_value` — the retained legacy subset search
  (density order, one EDF simulation per include node).  Much slower
  (n ≈ 16 wall), kept as the independent differential oracle the
  ``opt-bitset-vs-legacy`` fuzz check compares against;
* :func:`opt_k_exact_small` — exhaustive ``OPT_k`` for *tiny, integral*
  instances by depth-first search over unit time slots, used by the test
  suite to sandwich the pipeline's output (``ALG_k <= OPT_k <= OPT_∞``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import current_tracer
from repro.scheduling.bitset_bb import bitset_solve
from repro.scheduling.edf import edf_feasible, edf_feasible_cached, edf_schedule
from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment, drop_zero_length, merge_touching


def _branch_and_bound(jobs: JobSet):
    """Legacy reference search: (value, accepted ids).

    The pre-bitset core — include/exclude over density order with a full
    (memoized) EDF simulation per include node and only the suffix-value
    bound.  No longer on the solve path: it survives as the independent
    implementation behind :func:`opt_infty_reference_value`, which the
    ``opt-bitset-vs-legacy`` differential oracle checks the bitset core
    against on every fuzz case.
    """
    tracer = current_tracer()
    order = jobs.sorted_by_density()
    suffix_value = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_value[i] = suffix_value[i + 1] + order[i].value

    best_value = 0
    best_subset: List[Job] = []
    nodes = 0

    def recurse(i: int, chosen: List[Job], value) -> None:
        nonlocal best_value, best_subset, nodes
        nodes += 1
        if value + suffix_value[i] <= best_value:
            return
        if i == len(order):
            if value > best_value:
                best_value = value
                best_subset = list(chosen)
            return
        job = order[i]
        # Branch 1: include (only if still feasible).  The feasibility
        # oracle is memoized on the frozen jobset geometry: repeated calls
        # across experiment repeats (and recurring sub-geometries) collapse
        # into one EDF simulation each.
        chosen.append(job)
        if edf_feasible_cached(JobSet(chosen)):
            recurse(i + 1, chosen, value + job.value)
        chosen.pop()
        # Branch 2: exclude.
        recurse(i + 1, chosen, value)

    recurse(0, [], 0)
    if tracer is not None:
        tracer.count("exact.nodes", nodes)
    return best_value, tuple(sorted(j.id for j in best_subset))


def _solve_key(jobs: JobSet):
    return tuple(sorted((j.release, j.deadline, j.length, j.value, j.id) for j in jobs))


def _jobs_from_key(key) -> JobSet:
    return JobSet(Job(i, r, d, p, v) for (r, d, p, v, i) in key)


@lru_cache(maxsize=512)
def _reference_by_key(key):
    return _branch_and_bound(_jobs_from_key(key))


def opt_infty_reference_value(jobs: JobSet, *, max_jobs: int = 18):
    """``OPT_∞`` via the legacy per-node-EDF search — the differential oracle.

    Kept deliberately independent of the bitset core (different search
    order, different feasibility machinery, no dominance or relaxation
    bounds) so agreement between the two is meaningful evidence.  The
    ``max_jobs`` guard reflects this engine's actual wall: one EDF
    simulation per include node.
    """
    if jobs.n > max_jobs:
        raise ValueError(
            f"opt_infty_reference_value limited to {max_jobs} jobs (got {jobs.n}); "
            "the legacy reference engine exists for differential checks, not scale"
        )
    if jobs.n == 0:
        return 0
    return _reference_by_key(_solve_key(jobs))[0]


@lru_cache(maxsize=2048)
def _solve_by_key(key):
    """Cached bitset solve: (value, accepted ids).

    Shared by :func:`opt_infty_exact` and :func:`opt_infty_value` — a single
    cache entry per frozen instance, so the two can never disagree.
    """
    jobs = _jobs_from_key(key)
    result = bitset_solve(jobs)
    tracer = current_tracer()
    if tracer is not None:
        stats = result.stats
        tracer.count("exact.nodes", stats["nodes"])
        tracer.count("exact.pruned.bound", stats["pruned_bound"])
        tracer.count("exact.pruned.dominated", stats["pruned_dominated"])
        tracer.count("exact.pruned.infeasible", stats["infeasible_include"])
    return result.value, result.ids


def _opt_infty_solve(jobs: JobSet, max_jobs: int):
    """Validated, cached ``OPT_∞`` subset selection: (value, accepted ids)."""
    if jobs.n > max_jobs:
        raise ValueError(
            f"opt_infty_exact limited to {max_jobs} jobs (got {jobs.n}); "
            "use edf_accept_max_subset or an analytic OPT for larger instances"
        )
    if jobs.n == 0:
        return 0, ()
    tracer = current_tracer()
    # Fast path: everything fits (always true on the lower-bound families).
    if edf_feasible(jobs):
        if tracer is not None:
            tracer.count("exact.fast_path")
        return jobs.total_value, tuple(sorted(jobs.ids))
    if tracer is None:
        return _solve_by_key(_solve_key(jobs))
    bb_before = _solve_by_key.cache_info()
    with tracer.span("exact.opt_infty", n=jobs.n) as s:
        value, ids = _solve_by_key(_solve_key(jobs))
        bb_after = _solve_by_key.cache_info()
        s.attrs["accepted"] = len(ids)
        s.attrs["solve_cached"] = bb_after.hits > bb_before.hits
    return value, ids


def clear_exact_caches() -> None:
    """Drop the memoized solves (and the EDF feasibility cache).

    Benchmarks use this to obtain honest cold timings; the caches rebuild
    transparently on the next solve.
    """
    _solve_by_key.cache_clear()
    _reference_by_key.cache_clear()
    edf_feasible_cached.cache_clear()


def opt_infty_exact(jobs: JobSet, *, max_jobs: int = 30) -> Schedule:
    """Exact maximum-value ∞-preemptively feasible subset, as a schedule.

    The bitset branch-and-bound of :mod:`repro.scheduling.bitset_bb`:
    include/exclude decisions in EDD order over an integer bitmask, an
    incremental capacity-vector feasibility check (no per-node EDF
    simulation), dominance pruning, and suffix plus fractional-relaxation
    upper bounds seeded by a greedy incumbent.  The subset selection is
    memoized on the frozen instance, and :func:`opt_infty_value` reads the
    same cache — the returned schedule and the reported value always agree.

    ``max_jobs`` is a guard rail: the default 30 is where random overloaded
    instances still solve in well under a second (see ``bench_opt_exact``);
    beyond it callers should use
    :func:`repro.scheduling.edf.edf_accept_max_subset` or an analytic
    optimum instead.
    """
    value, ids = _opt_infty_solve(jobs, max_jobs)
    if not ids:
        return Schedule(jobs, {})
    result = edf_schedule(jobs.subset(ids))
    assert result.feasible
    return Schedule(jobs, {i: list(result.schedule[i]) for i in result.schedule.scheduled_ids})


def opt_infty_value(jobs: JobSet, *, max_jobs: int = 30):
    """Value of the exact ∞-preemptive optimum.

    Delegates to the same cached branch-and-bound core as
    :func:`opt_infty_exact` (it previously re-ran the full search), so
    repeated value queries are O(cache lookup) and can never disagree with
    the materialised schedule.
    """
    return _opt_infty_solve(jobs, max_jobs)[0]


def opt_infty_auto(
    jobs: JobSet, *, bb_max_jobs: int = 30, dp_max_jobs: int = 36, dp_max_states: int = 4_000
) -> Schedule:
    """Best-effort strongest OPT_∞ schedule, choosing the solver by instance.

    Order of preference: EDF of everything (exact when the whole set fits),
    the bitset branch-and-bound up to ``bb_max_jobs`` (exact — the primary
    engine since it took over from the legacy subset search), the
    Lawler-style DP for moderately larger ``n`` (exact; aborts itself if
    its Pareto front explodes), greedy EDF admission as the final fallback.
    Every path returns a feasible schedule homed on the full instance.
    """
    from repro.scheduling.lawler_dp import lawler_optimal_schedule

    if jobs.n == 0:
        return Schedule(jobs, {})
    if edf_feasible(jobs):
        return edf_schedule(jobs).schedule
    if jobs.n <= bb_max_jobs:
        return opt_infty_exact(jobs, max_jobs=bb_max_jobs)
    if jobs.n <= dp_max_jobs:
        try:
            return lawler_optimal_schedule(jobs, max_states=dp_max_states)
        except RuntimeError:
            pass
    from repro.scheduling.edf import edf_accept_max_subset

    return edf_accept_max_subset(jobs)


# ---------------------------------------------------------------------------
# Tiny exact OPT_k via unit-slot search
# ---------------------------------------------------------------------------


def _require_integral(jobs: JobSet) -> None:
    for j in jobs:
        if not all(isinstance(x, int) for x in (j.release, j.deadline, j.length)):
            raise ValueError(
                "opt_k_exact_small requires integer job coordinates "
                f"(job {j.id} has {j.release}, {j.deadline}, {j.length})"
            )


def k_feasible_subset_small(
    jobs: JobSet,
    *,
    k: int,
    max_slots: int = 40,
) -> Optional[Schedule]:
    """Decide whether *all* given jobs fit in a k-preemptive schedule.

    Exhaustive DFS over unit time slots for integral instances: at each slot
    choose which pending job runs (or idle), tracking remaining work and the
    number of segments already opened per job.  Memoised on the full state.
    Returns a witness schedule or ``None``.

    Exponential — intended for instances with horizon ≤ ``max_slots`` and a
    handful of jobs, as an oracle for tests and micro-benchmarks.
    """
    _require_integral(jobs)
    ordered = sorted(jobs, key=lambda j: (j.release, j.id))
    if not ordered:
        return Schedule(jobs, {})
    t0 = min(j.release for j in ordered)
    t1 = max(j.deadline for j in ordered)
    horizon = int(t1 - t0)
    if horizon > max_slots:
        raise ValueError(f"horizon {horizon} exceeds max_slots={max_slots}")

    ids = [j.id for j in ordered]
    index = {job_id: i for i, job_id in enumerate(ids)}
    releases = [int(j.release - t0) for j in ordered]
    deadlines = [int(j.deadline - t0) for j in ordered]
    lengths = [int(j.length) for j in ordered]
    n = len(ordered)

    # State: (slot, remaining work tuple, segments-open tuple, last ran index)
    # 'last' matters because continuing the same job does not open a segment.
    seen = set()

    def dfs(t: int, remaining: Tuple[int, ...], opened: Tuple[int, ...], last: int):
        if all(r == 0 for r in remaining):
            return []
        if t == horizon:
            return None
        key = (t, remaining, opened, last)
        if key in seen:
            return None
        # Deadline pruning: any unfinished job with too little room left fails.
        for i in range(n):
            if remaining[i] > 0 and deadlines[i] - max(t, releases[i]) < remaining[i]:
                seen.add(key)
                return None
        # Candidate actions: run a pending job, or idle this slot.
        candidates = []
        for i in range(n):
            if remaining[i] > 0 and releases[i] <= t < deadlines[i]:
                candidates.append(i)
        # Try continuing the same job first (cheapest on the budget).
        candidates.sort(key=lambda i: (i != last, deadlines[i], i))
        for i in candidates:
            new_opened = list(opened)
            if i != last:
                new_opened[i] += 1
                if new_opened[i] > k + 1:
                    continue
            rem = list(remaining)
            rem[i] -= 1
            tail = dfs(t + 1, tuple(rem), tuple(new_opened), i)
            if tail is not None:
                return [(t, i)] + tail
        # Idle slot (resets 'last' so resuming any job opens a segment).
        tail = dfs(t + 1, remaining, opened, -1)
        if tail is not None:
            return tail
        seen.add(key)
        return None

    plan = dfs(0, tuple(lengths), tuple([0] * n), -1)
    if plan is None:
        return None
    segs: Dict[int, List[Segment]] = {job_id: [] for job_id in ids}
    for slot, i in plan:
        segs[ids[i]].append(Segment(t0 + slot, t0 + slot + 1))
    return Schedule(jobs, {job_id: merge_touching(s) for job_id, s in segs.items() if s})


def opt_k_exact_small(
    jobs: JobSet,
    *,
    k: int,
    max_slots: int = 40,
    max_jobs: int = 10,
) -> Schedule:
    """Exact ``OPT_k`` for tiny integral instances.

    Enumerates subsets in decreasing value order (with a sum-of-remaining
    bound) and certifies each candidate with the unit-slot feasibility DFS.
    Used by the tests to sandwich the pipeline (``ALG_k <= OPT_k <= OPT_∞``)
    and by the k = 0 experiments on the geometric chain.
    """
    _require_integral(jobs)
    if jobs.n > max_jobs:
        raise ValueError(f"opt_k_exact_small limited to {max_jobs} jobs, got {jobs.n}")
    order = sorted(jobs, key=lambda j: (-j.value, j.id))
    n = len(order)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + order[i].value

    best: Tuple[float, Optional[Schedule]] = (0, Schedule(jobs, {}))

    def recurse(i: int, chosen: List[Job], value) -> None:
        nonlocal best
        if value + suffix[i] <= best[0]:
            return
        if i == n:
            witness = k_feasible_subset_small(JobSet(chosen), k=k, max_slots=max_slots)
            if witness is not None and value > best[0]:
                best = (
                    value,
                    Schedule(jobs, {j: list(witness[j]) for j in witness.scheduled_ids}),
                )
            return
        chosen.append(order[i])
        recurse(i + 1, chosen, value + order[i].value)
        chosen.pop()
        recurse(i + 1, chosen, value)

    recurse(0, [], 0)
    assert best[1] is not None
    return best[1]
