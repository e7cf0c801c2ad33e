"""The context-switch cost model — the paper's motivation, quantified.

§1.2 motivates bounding preemption by the real price of a context switch
("the sequence of operations required for a context switch").  This module
makes that price a first-class number: given a per-preemption cost ``c``,
the *net* value of a schedule is

    ``net(S, c) = val(S) − c · (total preemptions in S)``

and the operator's question becomes: **which budget k maximises net
value?**  :func:`optimal_budget` sweeps k, schedules at each budget with
the library's algorithms, and returns the argmax — the executable version
of the paper's opening paragraph.
"""

from __future__ import annotations

from typing import Callable, Dict, NamedTuple, Optional, Sequence

from repro.core.combined import schedule_k_bounded
from repro.core.nonpreemptive import nonpreemptive_combined
from repro.scheduling.job import JobSet
from repro.scheduling.schedule import Schedule


def total_preemptions(schedule: Schedule) -> int:
    """Sum of per-job preemption counts — the number of context switches
    the schedule bills beyond one dispatch per accepted job."""
    return sum(
        schedule.preemptions(job_id) for job_id in schedule.scheduled_ids
    )


def net_value(schedule: Schedule, switch_cost: float) -> float:
    """``val(S) − c · preemptions(S)`` — throughput after switch overhead."""
    if switch_cost < 0:
        raise ValueError("switch cost must be non-negative")
    return float(schedule.value) - switch_cost * total_preemptions(schedule)


class BudgetChoice(NamedTuple):
    """Result of a budget sweep: the chosen k and the full trace."""

    best_k: int
    best_net: float
    schedule: Schedule
    trace: Dict[int, float]  # k -> net value


def optimal_budget(
    jobs: JobSet,
    switch_cost: float,
    *,
    k_values: Sequence[int] = (0, 1, 2, 3, 4, 6, 8),
    scheduler: Optional[Callable[[JobSet, int], Schedule]] = None,
) -> BudgetChoice:
    """Choose the preemption budget maximising net value under switch cost.

    ``scheduler(jobs, k)`` defaults to the library pipeline
    (:func:`nonpreemptive_combined` at k = 0, :func:`schedule_k_bounded`
    beyond).  Ties prefer the smaller budget — fewer switches for equal
    net value is strictly better operationally.
    """

    def default(js: JobSet, k: int) -> Schedule:
        if k == 0:
            return nonpreemptive_combined(js)
        return schedule_k_bounded(js, k, exact_opt=False)

    run = scheduler if scheduler is not None else default
    trace: Dict[int, float] = {}
    best_k: Optional[int] = None
    best_net = float("-inf")
    best_schedule: Optional[Schedule] = None
    for k in sorted(set(k_values)):
        sched = run(jobs, k)
        if sched.max_preemptions > k:
            raise ValueError(
                f"scheduler returned {sched.max_preemptions} preemptions at budget {k}"
            )
        net = net_value(sched, switch_cost)
        trace[k] = net
        if net > best_net:
            best_k, best_net, best_schedule = k, net, sched
    assert best_k is not None and best_schedule is not None
    return BudgetChoice(best_k, best_net, best_schedule, trace)
