"""Multiple non-migrative machines (Section 4.3.4 and the 4.1 remark).

The paper extends every single-machine result to ``m`` non-migrative
machines by *iterated assignment*: machine ``i`` receives the schedule the
single-machine algorithm produces on the jobs left over by machines
``1..i-1``.  By the argument of [2] this costs at most ``+1`` in the price,
preserving all ``O(log_{k+1}·)`` bounds; migration can then be eliminated
at a constant factor via [18], which the O-notation absorbs.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.combined import schedule_k_bounded
from repro.core.nonpreemptive import nonpreemptive_combined
from repro.obs.tracer import current_tracer
from repro.scheduling.edf import edf_accept_max_subset, edf_feasible, edf_schedule
from repro.scheduling.job import JobSet
from repro.scheduling.schedule import MultiMachineSchedule, Schedule

SingleMachineAlgorithm = Callable[[JobSet], Schedule]


def iterated_assignment(
    jobs: JobSet,
    algorithm: SingleMachineAlgorithm,
    *,
    machines: int = 1,
) -> MultiMachineSchedule:
    """Generic iterated per-machine assignment.

    ``algorithm`` maps a job set to a single-machine schedule; each round
    the scheduled jobs are removed and the residual set goes to the next
    machine (``J_i = J \\ ∪_{k<i} J'_k`` in the paper's notation).
    """
    if machines < 1:
        raise ValueError(f"need at least one machine, got {machines}")
    tracer = current_tracer()
    remaining = jobs
    per_machine: List[Schedule] = []
    for m in range(machines):
        if tracer is not None:
            with tracer.span(
                "multimachine.assign", machine=m, jobs_in=remaining.n
            ) as s:
                sched = algorithm(remaining)
                s.attrs["accepted"] = len(sched.scheduled_ids)
        else:
            sched = algorithm(remaining)
        # Re-home the machine schedule onto the full instance so the
        # MultiMachineSchedule can police cross-machine uniqueness.
        per_machine.append(
            Schedule(jobs, {i: list(sched[i]) for i in sched.scheduled_ids})
        )
        remaining = remaining.without(sched.scheduled_ids)
        if remaining.n == 0:
            break
    return MultiMachineSchedule(jobs, per_machine)


def multimachine_k_bounded(
    jobs: JobSet,
    *,
    k: int,
    machines: int = 1,
) -> MultiMachineSchedule:
    """k-bounded preemptive scheduling on ``m`` non-migrative machines.

    Iterates the full single-machine pipeline (Algorithm 3 wrapped by
    :func:`repro.core.combined.schedule_k_bounded`); Section 4.3.4 shows the
    ``O(log_{k+1} P)`` price survives this extension.
    """
    if k < 1:
        raise ValueError(f"multimachine_k_bounded requires k >= 1, got {k}")
    return iterated_assignment(
        jobs, lambda js: schedule_k_bounded(js, k), machines=machines
    )


def multimachine_nonpreemptive(jobs: JobSet, *, machines: int = 1) -> MultiMachineSchedule:
    """k = 0 on multiple machines (Section 5's closing remark)."""
    return iterated_assignment(jobs, nonpreemptive_combined, machines=machines)


def reduce_multimachine_schedule(
    schedule: MultiMachineSchedule,
    *,
    k: int,
) -> MultiMachineSchedule:
    """The §4.1 remark, verbatim: reduce a non-migrative multi-machine
    ∞-preemptive schedule to a k-bounded one via a *single merged forest*.

    Each machine's schedule is laminarised and read as a forest; the
    per-machine forests are concatenated into one forest (they never share
    jobs); **one** optimal k-BAS is computed over the union — so the value
    trade-off is made globally, not per machine — and each machine's
    retained jobs are compacted on their own timeline.

    Theorem 4.2 then applies with the merged forest's ``n``: the result
    keeps at least ``1/log_{k+1} n`` of the input schedule's value.
    """
    from repro.core.bas.forest import Forest
    from repro.core.bas.subforest import SubForest
    from repro.core.bas.tm import tm_optimal_bas
    from repro.core.reduction import forest_to_schedule, schedule_to_forest
    from repro.scheduling.laminar import is_laminar, laminarize

    if k < 1:
        raise ValueError(f"reduction requires k >= 1, got {k}")

    laminar_machines: List[Schedule] = []
    per_machine_forests = []
    for single in schedule.machines:
        lam = single if is_laminar(single) else laminarize(single)
        laminar_machines.append(lam)
        if len(lam) == 0:
            per_machine_forests.append(None)
        else:
            per_machine_forests.append(schedule_to_forest(lam))

    # Merge the forests: concatenate parent arrays with an id offset.
    parents: List[int] = []
    values: List = []
    node_origin: List[tuple] = []  # (machine index, local node index)
    for m, entry in enumerate(per_machine_forests):
        if entry is None:
            continue
        forest, node_to_job = entry
        offset = len(parents)
        for v in range(forest.n):
            p = forest.parent(v)
            parents.append(-1 if p == -1 else p + offset)
            values.append(forest.value(v))
            node_origin.append((m, v))
    if not parents:
        return MultiMachineSchedule(schedule.jobs, [Schedule(schedule.jobs, {})])
    merged = Forest(parents, values)
    bas = tm_optimal_bas(merged, k)

    # Split the retained set back per machine and compact each timeline.
    retained_per_machine: dict = {}
    for g in bas.retained:
        m, v = node_origin[g]
        retained_per_machine.setdefault(m, set()).add(v)
    out_machines: List[Schedule] = []
    for m, entry in enumerate(per_machine_forests):
        if entry is None:
            out_machines.append(Schedule(schedule.jobs, {}))
            continue
        forest, node_to_job = entry
        local = SubForest(forest, retained_per_machine.get(m, set()))
        out_machines.append(
            forest_to_schedule(laminar_machines[m], node_to_job, local)
        )
    return MultiMachineSchedule(schedule.jobs, out_machines)


def multimachine_opt_infty(jobs: JobSet, *, machines: int = 1) -> MultiMachineSchedule:
    """An ∞-preemptive multi-machine benchmark value: iterated density-greedy.

    Exact multi-machine OPT is NP-hard even to approximate cheaply.  This
    is *not* the iterated single-machine optimum of Section 1.2's route:
    each machine takes the whole residual set when it is EDF-feasible, and
    otherwise the density-greedy admission of :func:`edf_accept_max_subset`,
    which is not optimal.  The result is a feasible ∞-preemptive schedule,
    so its value is only a lower bound on the multi-machine ``OPT_∞``; it
    can even fall below the k-bounded pipeline's ``ALG_k`` on the same
    machines, which puts the reported price below 1.
    """

    def single(js: JobSet) -> Schedule:
        if js.n == 0:
            return Schedule(js, {})
        if edf_feasible(js):
            return edf_schedule(js).schedule
        return edf_accept_max_subset(js)

    return iterated_assignment(jobs, single, machines=machines)
