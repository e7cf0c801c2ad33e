"""Periodic real-time task systems — the paper's §1.2 motivation domain.

The bounded-preemption literature the paper builds on (Baruah [11], Bril
et al. [12], the Buttazzo–Bertogna–Yao survey [13]) lives in the periodic/
sporadic task model: task ``τ_i`` releases a job every ``T_i`` time units,
each needing ``C_i`` units of work within a relative deadline ``D_i``.
This module bridges that world to the paper's job model:

* :class:`PeriodicTask` — ``(period, wcet, relative_deadline, value)``;
* :func:`uunifast` — the standard UUniFast utilisation generator (Bini &
  Buttazzo), producing unbiased utilisation vectors with a given total;
* :func:`random_task_set` — task sets with harmonic-ish periods and
  UUniFast utilisations;
* :func:`unroll` — expand a task set over (a prefix of) its hyperperiod
  into a concrete :class:`~repro.scheduling.job.JobSet`, on which every
  algorithm in this library runs unchanged.

Integer arithmetic throughout (periods and WCETs are integers), so the
unrolled instances are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence


from repro.scheduling.job import Job, JobSet
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class PeriodicTask:
    """One periodic task ``τ = (T, C, D, value-per-job)`` with ``C <= D <= T``
    (constrained deadlines, the common real-time assumption)."""

    id: int
    period: int
    wcet: int
    relative_deadline: int
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.wcet < 1:
            raise ValueError(f"task {self.id}: wcet must be >= 1")
        if not (self.wcet <= self.relative_deadline <= self.period):
            raise ValueError(
                f"task {self.id}: need wcet <= deadline <= period, got "
                f"C={self.wcet}, D={self.relative_deadline}, T={self.period}"
            )

    @property
    def utilization(self) -> float:
        """``U_i = C_i / T_i``."""
        return self.wcet / self.period

    @property
    def laxity(self) -> float:
        """Per-job relative laxity ``D_i / C_i`` (Definition 4.4 applied to
        every unrolled job of the task)."""
        return self.relative_deadline / self.wcet


def uunifast(n: int, total_utilization: float, seed=None) -> List[float]:
    """UUniFast (Bini & Buttazzo 2005): ``n`` task utilisations summing to
    ``total_utilization``, uniformly distributed over the simplex."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 < total_utilization):
        raise ValueError("total utilisation must be positive")
    rng = make_rng(seed)
    utils: List[float] = []
    remaining = total_utilization
    for i in range(1, n):
        next_remaining = remaining * rng.random() ** (1.0 / (n - i))
        utils.append(remaining - next_remaining)
        remaining = next_remaining
    utils.append(remaining)
    return utils


def random_task_set(
    n: int,
    total_utilization: float,
    *,
    period_choices: Sequence[int] = (20, 40, 50, 80, 100),
    deadline_fraction: float = 1.0,
    seed=None,
) -> List[PeriodicTask]:
    """A random task set with UUniFast utilisations.

    Periods are drawn from ``period_choices`` (defaults with a small LCM so
    hyperperiods stay laptop-sized); WCETs are ``max(1, round(U_i * T_i))``;
    relative deadlines are ``deadline_fraction`` of the period (clamped to
    ``[C_i, T_i]``).  Per-job values are proportional to WCET with noise —
    longer jobs are worth more, as in the batch workloads.
    """
    if not (0 < deadline_fraction <= 1.0):
        raise ValueError("deadline_fraction must be in (0, 1]")
    rng = make_rng(seed)
    utils = uunifast(n, total_utilization, rng)
    tasks: List[PeriodicTask] = []
    for i, u in enumerate(utils):
        T = int(rng.choice(list(period_choices)))
        C = max(1, round(u * T))
        C = min(C, T)
        D = max(C, min(T, round(deadline_fraction * T)))
        value = float(C) * float(rng.uniform(0.8, 1.2))
        tasks.append(PeriodicTask(i, T, C, D, value))
    return tasks


def hyperperiod(tasks: Sequence[PeriodicTask]) -> int:
    """LCM of the task periods — the schedule's natural repetition length."""
    if not tasks:
        raise ValueError("empty task set")
    return math.lcm(*(t.period for t in tasks))


def total_utilization(tasks: Sequence[PeriodicTask]) -> float:
    return sum(t.utilization for t in tasks)


def unroll(
    tasks: Sequence[PeriodicTask],
    *,
    horizon: Optional[int] = None,
) -> JobSet:
    """Expand a task set into concrete jobs over ``[0, horizon)``.

    ``horizon`` defaults to one hyperperiod.  The ``m``-th job of task
    ``τ_i`` is released at ``m·T_i`` with deadline ``m·T_i + D_i`` and
    length ``C_i``; only jobs whose *deadline* falls inside the horizon are
    emitted (no truncated windows).  Job ids encode ``(task, instance)``
    as ``task_id * instances + m`` for stable, reproducible ids.
    """
    if horizon is None:
        horizon = hyperperiod(tasks)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    jobs: List[Job] = []
    next_id = 0
    for task in sorted(tasks, key=lambda t: t.id):
        release = 0
        while release + task.relative_deadline <= horizon:
            jobs.append(
                Job(
                    id=next_id,
                    release=release,
                    deadline=release + task.relative_deadline,
                    length=task.wcet,
                    value=task.value,
                )
            )
            next_id += 1
            release += task.period
    return JobSet(jobs)
