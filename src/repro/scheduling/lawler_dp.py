"""Lawler-style exact DP for preemptive throughput (the paper's §1.2 base).

Lawler [21] gave a pseudo-polynomial dynamic program for
``1 | pmtn, r_j | Σ w_j U_j`` — the optimal *unbounded-preemption* value on
one machine that the price of bounded preemption is measured against.
This module implements the same deadline-ordered DP idea in a form that is
exact for arbitrary (not just integral) weights:

**Feasibility criterion.**  A set ``S`` is preemptively schedulable iff the
demand-bound condition holds: for every window ``[r, d]``,
``Σ { p_j : j ∈ S, r ≤ r_j, d_j ≤ d } ≤ d − r`` (necessity is obvious;
sufficiency via EDF).  Only windows anchored at release/deadline
coordinates matter.

**DP.**  Process jobs in EDD order.  A partial state is the *capacity
vector* ``v``: for each distinct release coordinate ``r_t``, the total
chosen processing of jobs released at or after ``r_t``.  Adding job ``i``
(release index ``ρ_i``, deadline ``d_i``) bumps ``v_t`` for ``t ≤ ρ_i`` and
is legal iff ``v_t ≤ d_i − r_t`` for all ``t`` — exactly the new
constraints with right endpoint ``d_i``, which are final because later
(EDD) jobs never enter them.

**Dominance.**  State ``(w, v)`` dominates ``(w', v')`` when ``w ≥ w'`` and
``v ≤ v'`` pointwise; dominated states can never lead to a better
completion, so only the Pareto front is kept.  With integral weights this
specialises to Lawler's weight-indexed table (one minimal vector per
weight); with arbitrary weights the front can grow, but on the instance
sizes used here it stays small — and the result is exact either way, which
the tests certify against the branch-and-bound solver.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.scheduling.edf import edf_schedule
from repro.scheduling.job import JobSet
from repro.scheduling.schedule import Schedule


class _State:
    """One Pareto point: total weight, capacity vector, chosen-set trail."""

    __slots__ = ("weight", "vector", "chosen")

    def __init__(self, weight, vector: Tuple, chosen: Tuple[int, ...]):
        self.weight = weight
        self.vector = vector
        self.chosen = chosen


def _dominates(a: _State, b: _State) -> bool:
    """Whether ``a`` renders ``b`` useless: no less weight, no more load."""
    return a.weight >= b.weight and all(x <= y for x, y in zip(a.vector, b.vector))


def _prune(states: List[_State], max_states: Optional[int]) -> List[_State]:
    """Keep the Pareto-minimal front (quadratic scan — fronts stay small)."""
    states.sort(key=lambda s: (-s.weight, sum(s.vector)))
    front: List[_State] = []
    for s in states:
        if not any(_dominates(f, s) for f in front):
            front.append(s)
    if max_states is not None and len(front) > max_states:
        raise RuntimeError(
            f"Pareto front exceeded {max_states} states; "
            "instance too adversarial for the DP — use opt_infty_exact"
        )
    return front


def lawler_optimal_value(jobs: JobSet, *, max_states: Optional[int] = 200_000):
    """Exact maximum on-time value with unlimited preemption (one machine).

    Deadline-ordered DP over demand-bound capacity vectors with Pareto
    dominance (see module docstring).  Raises if the front explodes past
    ``max_states`` — a safety valve, not an approximation switch.
    """
    if jobs.n == 0:
        return 0
    order = sorted(jobs, key=lambda j: (j.deadline, j.id))
    releases = sorted({j.release for j in order})
    r_index = {r: t for t, r in enumerate(releases)}
    m = len(releases)

    zero = tuple(0 for _ in range(m))
    states: List[_State] = [_State(0, zero, ())]
    for job in order:
        rho = r_index[job.release]
        d = job.deadline
        new_states: List[_State] = list(states)
        for s in states:
            vec = list(s.vector)
            ok = True
            for t in range(rho + 1):
                vec[t] = vec[t] + job.length
                if vec[t] > d - releases[t]:
                    ok = False
                    break
            if ok:
                new_states.append(
                    _State(s.weight + job.value, tuple(vec), s.chosen + (job.id,))
                )
        states = _prune(new_states, max_states)
    return max(s.weight for s in states)


def lawler_optimal_schedule(jobs: JobSet, *, max_states: Optional[int] = 200_000) -> Schedule:
    """The optimal set materialised as an EDF schedule (feasible by the
    demand-bound criterion, so EDF succeeds on it)."""
    if jobs.n == 0:
        return Schedule(jobs, {})
    order = sorted(jobs, key=lambda j: (j.deadline, j.id))
    releases = sorted({j.release for j in order})
    r_index = {r: t for t, r in enumerate(releases)}
    m = len(releases)

    zero = tuple(0 for _ in range(m))
    states: List[_State] = [_State(0, zero, ())]
    for job in order:
        rho = r_index[job.release]
        d = job.deadline
        new_states: List[_State] = list(states)
        for s in states:
            vec = list(s.vector)
            ok = True
            for t in range(rho + 1):
                vec[t] = vec[t] + job.length
                if vec[t] > d - releases[t]:
                    ok = False
                    break
            if ok:
                new_states.append(
                    _State(s.weight + job.value, tuple(vec), s.chosen + (job.id,))
                )
        states = _prune(new_states, max_states)

    best = max(states, key=lambda s: s.weight)
    chosen = jobs.subset(best.chosen)
    result = edf_schedule(chosen)
    assert result.feasible, "demand-bound-feasible set must schedule under EDF"
    return Schedule(jobs, {i: list(result.schedule[i]) for i in result.schedule.scheduled_ids})


def demand_bound_feasible(jobs: JobSet) -> bool:
    """Direct demand-bound feasibility check (the criterion itself).

    Exposed for the test-suite, where it is cross-validated against the
    EDF simulator: the two must agree on every instance.
    """
    items = list(jobs)
    releases = sorted({j.release for j in items})
    deadlines = sorted({j.deadline for j in items})
    for r in releases:
        for d in deadlines:
            if d <= r:
                continue
            demand = sum(j.length for j in items if j.release >= r and j.deadline <= d)
            if demand > d - r:
                return False
    return True
