"""Adversarial instances for the baselines — every heuristic gets the
instance that defeats it.

Worst-case bounds only matter if the worst cases are reachable; each
generator here breaks one specific baseline while leaving the principled
algorithm intact:

* :func:`dhall_instance` — the classical *Dhall effect* against global EDF
  on m machines: m light short-deadline jobs hide one heavy long job;
  global EDF runs the light jobs first and dooms the heavy one even though
  a partitioned schedule exists.
* :func:`anti_budget_edf` — defeats budget-EDF: a stream of tight
  mid-value jobs drains the big job's preemption budget early, so the
  final (most valuable) arrivals find it unpreemptable; the reduction
  pipeline keeps them instead.
"""

from __future__ import annotations

from typing import List

from repro.scheduling.job import Job, JobSet


def dhall_instance(machines: int, *, epsilon_num: int = 1, epsilon_den: int = 100) -> JobSet:
    """The Dhall effect: ``machines`` light jobs plus one heavy job.

    Light job i: release 0, length ``2ε``, deadline ``4ε`` (scaled to be
    integral: times are multiplied by ``epsilon_den``).  Heavy job: release
    0, length ``den``, deadline ``den + ε`` — it needs a machine almost
    immediately and almost continuously.

    Global EDF puts all m light jobs first (earlier deadlines), leaving the
    heavy job ``den + ε − 2ε < den`` of runway: infeasible.  A partitioned
    scheduler dedicates one machine to the heavy job and packs the light
    ones on the rest: feasible for ``machines >= 2``.
    """
    if machines < 2:
        raise ValueError("the Dhall construction needs at least 2 machines")
    eps = epsilon_num
    den = epsilon_den
    jobs: List[Job] = []
    for i in range(machines):
        jobs.append(Job(i, 0, 4 * eps, 2 * eps, value=1.0))
    jobs.append(Job(machines, 0, den + eps, den, value=float(machines)))
    return JobSet(jobs)


def anti_budget_edf(k: int, *, tail_value: float = 10.0) -> JobSet:
    """Defeat budget-EDF's myopic preemption spending.

    One long job spans the horizon; ``k`` cheap tight jobs arrive early and
    each forces (under EDF) a preemption of the long job; then ``k`` highly
    valuable tight jobs arrive late, when the budget is spent — budget-EDF
    must now reject them to keep the long job (or would have had to
    sacrifice the long job).  The pipeline, choosing globally, keeps the
    long job plus the *valuable* children instead of the cheap ones.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    horizon = 10 * (2 * k + 1)
    jobs: List[Job] = [Job(0, 0, horizon + 2 * k + 2, horizon - 10 * k, value=5.0)]
    nid = 1
    # Early, cheap, tight arrivals (λ = 1: preempt-or-die).
    for i in range(k):
        r = 5 + 10 * i
        jobs.append(Job(nid, r, r + 5, 5, value=1.0))
        nid += 1
    # Late, valuable, tight arrivals.
    for i in range(k):
        r = 5 + 10 * (k + i)
        jobs.append(Job(nid, r, r + 5, 5, value=tail_value))
        nid += 1
    return JobSet(jobs)


def anti_density_greedy(copies: int) -> JobSet:
    """Defeat density-order greedy admission — adversary for the exact core.

    Each motif is three jobs on a 4-unit window: one "bait" job A
    (length 3, value 7, density 7/3 ≈ 2.33) and two "payoff" jobs B, C
    (length 2, value 4 each, density 2) splitting the same window.  A
    together with either payoff job overloads the window (5 units of work
    in 4), while B + C exactly fill it.  Density-order greedy admits A
    first and then can accept neither B nor C: value 7.  The optimum drops
    the bait and takes B + C: value 8.

    ``copies`` motifs are laid out on disjoint windows (10 units apart), so
    greedy loses value ``copies`` against ``OPT_∞ = 8 · copies`` — the
    canonical family where the exact solver is *strictly* better than
    greedy EDF admission, used by the R12 golden and the solver tests.
    """
    if copies < 1:
        raise ValueError("copies must be >= 1")
    jobs: List[Job] = []
    nid = 0
    for c in range(copies):
        base = 10 * c
        jobs.append(Job(nid, base, base + 4, 3, value=7))      # bait
        jobs.append(Job(nid + 1, base, base + 2, 2, value=4))  # payoff 1
        jobs.append(Job(nid + 2, base + 2, base + 4, 2, value=4))  # payoff 2
        nid += 3
    return JobSet(jobs)
