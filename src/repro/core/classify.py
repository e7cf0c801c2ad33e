"""Generic Classify-and-Select (Section 1.4's extension of [1]).

The paper notes that Albagli-Kim et al.'s O(1)-approximations for the
unit-value and unit-density special cases extend, "by Classify-and-
Select", to ``O(log ρ)`` and ``O(log σ)`` approximations for the general
problem, where ``ρ`` is the value ratio and ``σ`` the density ratio — and
that its own contribution is the analogous ``log_{k+1} P`` result for the
*length* ratio.  This module implements the combinator generically so all
three classification axes can be compared head to head:

* partition jobs into geometric classes of the chosen key (value, density
  or length) with intra-class ratio ≤ ``base``;
* run an inner k-bounded algorithm on each class on an empty machine;
* return the best class's schedule.

The classified loss is (number of classes) × (inner loss on a near-uniform
class), i.e. ``O(log_base R)`` × O(1) when the inner algorithm is
constant-factor on unit-key inputs — exactly the cited argument.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from repro.core.budget_edf import budget_edf
from repro.core.lsa import lsa
from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Schedule, best_single_job

InnerAlgorithm = Callable[[JobSet, int], Schedule]

#: Supported classification keys and their per-job extractors.
CLASS_KEYS: Dict[str, Callable[[Job], float]] = {
    "length": lambda j: j.length,
    "value": lambda j: j.value,
    "density": lambda j: j.density,
}


def classify_jobs(jobs: JobSet, key: str, base: float) -> Dict[int, JobSet]:
    """Partition jobs into geometric classes of ``key`` with ratio ≤ base.

    Class ``c`` holds jobs whose key lies in
    ``(key_min * base**c, key_min * base**(c+1)]``, and class 0 also
    ``key_min`` itself (boundary hits stay in the lower class, as in
    :meth:`JobSet.length_classes`).
    """
    if key not in CLASS_KEYS:
        raise ValueError(f"unknown classification key {key!r}; choose from {sorted(CLASS_KEYS)}")
    if base <= 1:
        raise ValueError(f"class base must exceed 1, got {base}")
    if jobs.n == 0:
        return {}
    extract = CLASS_KEYS[key]
    k_min = min(extract(j) for j in jobs)
    classes: Dict[int, list] = {}
    for job in jobs:
        x = extract(job)
        c = 0
        bound = k_min * base
        while x > bound:
            c += 1
            bound = bound * base
        classes.setdefault(c, []).append(job)
    return {c: JobSet(js) for c, js in sorted(classes.items())}


def default_inner(jobs: JobSet, k: int) -> Schedule:
    """A robust inner algorithm for a near-uniform class.

    Portfolio of the pieces this library already trusts: LSA (with the lax
    precondition waived — inside a near-uniform class the windows are
    whatever they are), budget-EDF admission, and the best single job.
    Constant-factor on unit-key classes in practice; the combinator's
    guarantee only needs the inner value to be within O(1) of the class
    optimum, which the portfolio's budget-EDF member supplies empirically.
    """
    candidates = [
        lsa(jobs, k=k, enforce_laxity=False),
        budget_edf(jobs, k),
        best_single_job(jobs),
    ]
    return max(candidates, key=lambda s: s.value)


def classify_and_select(
    jobs: JobSet,
    k: int,
    *,
    key: str = "length",
    base: Optional[float] = None,
    inner: InnerAlgorithm = default_inner,
    return_all_classes: bool = False,
) -> Schedule | Tuple[Schedule, Dict[int, Schedule]]:
    """The Classify-and-Select combinator over an arbitrary key.

    ``base`` defaults to ``k + 1`` for the length key (the paper's choice,
    giving ``log_{k+1} P`` classes) and 2 otherwise (``log₂ ρ`` /
    ``log₂ σ`` classes, matching Section 1.4's statement).
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if base is None:
        base = k + 1 if key == "length" and k >= 1 else 2
    if jobs.n == 0:
        empty = Schedule(jobs, {})
        return (empty, {}) if return_all_classes else empty
    per_class: Dict[int, Schedule] = {}
    best: Optional[Schedule] = None
    for c, class_jobs in classify_jobs(jobs, key, base).items():
        sched = inner(class_jobs, k)
        sched = Schedule(jobs, {i: list(sched[i]) for i in sched.scheduled_ids})
        per_class[c] = sched
        if best is None or sched.value > best.value:
            best = sched
    assert best is not None
    if return_all_classes:
        return best, per_class
    return best


def classification_bound(jobs: JobSet, key: str, base: float) -> float:
    """The number-of-classes factor ``⌈log_base(ratio)⌉ ∨ 1`` the combinator
    pays — ``log ρ``, ``log σ`` or ``log_{k+1} P`` depending on the key."""
    extract = CLASS_KEYS[key]
    values = [extract(j) for j in jobs]
    ratio = max(values) / min(values)
    if ratio <= 1:
        return 1.0
    return max(1.0, math.log(ratio) / math.log(base))
