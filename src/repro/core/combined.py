"""Algorithm 3 — k-PreemptionCombined — and the practical front door.

The paper's combined algorithm takes a job set together with a feasible
∞-preemptive schedule (the "adversary's" OPT) and produces a feasible
k-preemptive schedule worth an ``Ω(1/log_{k+1} P)`` fraction of it:

* **strict** jobs (``λ <= k + 1``) go through the Section 4.1 reduction:
  restrict the given schedule to them (restriction preserves feasibility),
  laminarise, build the schedule forest, take the optimal k-BAS, compact;
* **lax** jobs (``λ >= k + 1``) go through LSA_CS on an empty machine;
* the better of the two results is returned.

:func:`schedule_k_bounded` is the self-contained variant for users who
don't carry an OPT schedule around: it computes one (exactly for small
``n``, greedy EDF admission otherwise) and feeds Algorithm 3.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.core.lsa import lsa_cs
from repro.core.reduction import reduce_schedule_to_k_preemptive
from repro.scheduling.edf import edf_accept_max_subset, edf_feasible, edf_schedule
from repro.scheduling.exact import opt_infty_exact
from repro.scheduling.job import JobSet
from repro.scheduling.schedule import Schedule

#: Default ceiling for running the exact OPT_∞ solver inside the pipeline.
#: The bitset core made n = 24 comfortably sub-100ms, so the default path
#: now gets the true optimum on mid-size overloaded instances it
#: previously handed to greedy admission.
_EXACT_OPT_MAX_JOBS = 24


class CombinedResult(NamedTuple):
    """Both branch outputs of Algorithm 3 plus the chosen winner."""

    schedule: Schedule
    strict_schedule: Schedule
    lax_schedule: Schedule
    strict_jobs: JobSet
    lax_jobs: JobSet


def k_preemption_combined(
    jobs: JobSet,
    opt_schedule: Schedule,
    k: int,
    *,
    bas_algorithm: str = "tm",
) -> CombinedResult:
    """Algorithm 3 verbatim.

    ``opt_schedule`` plays the paper's input pair ``⟨J, G_J⟩``: a feasible
    ∞-preemptive schedule of (a subset of) ``J``.  Jobs on the laxity
    boundary ``λ = k + 1`` are valid inputs to *both* branches; we route
    them to the strict branch, matching ``J_1 = {λ <= k+1}`` in the
    algorithm listing.
    """
    if k < 1:
        raise ValueError(f"k_preemption_combined requires k >= 1, got {k}")
    strict, lax = jobs.split_by_laxity(k)

    strict_input = opt_schedule.restricted_to(
        [i for i in opt_schedule.scheduled_ids if jobs[i].is_strict(k)]
    )
    if len(strict_input) > 0:
        strict_sched = reduce_schedule_to_k_preemptive(
            strict_input, k, algorithm=bas_algorithm
        )
    else:
        strict_sched = Schedule(jobs, {})

    if lax.n > 0:
        lax_sched = lsa_cs(lax, k=k)
        lax_sched = Schedule(jobs, {i: list(lax_sched[i]) for i in lax_sched.scheduled_ids})
    else:
        lax_sched = Schedule(jobs, {})

    winner = strict_sched if strict_sched.value >= lax_sched.value else lax_sched
    return CombinedResult(
        schedule=winner,
        strict_schedule=strict_sched,
        lax_schedule=lax_sched,
        strict_jobs=strict,
        lax_jobs=lax,
    )


def schedule_k_bounded(
    jobs: JobSet,
    k: int,
    *,
    exact_opt: Optional[bool] = None,
    bas_algorithm: str = "tm",
) -> Schedule:
    """Produce a feasible k-preemptive schedule for an arbitrary instance.

    This is the library's main entry point.  It first obtains a strong
    ∞-preemptive schedule to reduce from:

    * if the whole set is EDF-feasible, EDF of everything (optimal);
    * else the exact bitset branch-and-bound when ``n`` is small
      (≤ ``_EXACT_OPT_MAX_JOBS`` = 24 by default, or forced via
      ``exact_opt=True``);
    * else greedy EDF admission in density order.

    and then runs Algorithm 3.  For ``k = 0`` use
    :func:`repro.core.nonpreemptive.nonpreemptive_combined`.
    """
    if k < 1:
        raise ValueError(
            f"schedule_k_bounded requires k >= 1, got {k}; "
            "use repro.core.nonpreemptive.nonpreemptive_combined for k = 0"
        )
    if jobs.n == 0:
        return Schedule(jobs, {})
    if edf_feasible(jobs):
        opt = edf_schedule(jobs).schedule
    elif exact_opt or (exact_opt is None and jobs.n <= _EXACT_OPT_MAX_JOBS):
        opt = opt_infty_exact(jobs)
    else:
        # Greedy EDF admission keeps the default path fast; callers wanting
        # the strongest OPT on mid-size overloaded instances can feed
        # opt_infty_auto()'s schedule to k_preemption_combined directly.
        opt = edf_accept_max_subset(jobs)
    combined = k_preemption_combined(jobs, opt, k, bas_algorithm=bas_algorithm).schedule
    # Practical strengthening that costs no guarantee: the Section 4.1
    # reduction is *valid* on the whole OPT schedule (laxity only matters
    # for the log_{k+1} P analysis, not for feasibility), and on benign
    # instances with shallow preemption nesting it keeps far more value
    # than either branch of Algorithm 3 alone.  Taking the max preserves
    # every bound.
    whole = reduce_schedule_to_k_preemptive(opt, k, algorithm=bas_algorithm)
    return whole if whole.value > combined.value else combined
