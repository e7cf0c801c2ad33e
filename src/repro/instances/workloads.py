"""Synthetic "motivation" workloads (Section 1.2's real-world framing).

The paper motivates bounded preemption by the real cost of context
switches.  These three generators model the workload archetypes that
framing evokes; they drive the example applications and the workload-level
benchmarks.  All are laptop-scale synthetic stand-ins — no proprietary
traces exist for this theory paper — but each exercises a distinct regime
of the algorithms:

* **real-time control**: short, tightly-windowed (strict) jobs arriving
  quasi-periodically with jitter → the k-BAS reduction branch;
* **batch analytics**: heavy-tailed lengths with generous windows (lax)
  → the LSA_CS branch, with large ``P``;
* **mixed server**: a blend of both plus a value hierarchy (interactive
  work worth more per unit time) → the full combined algorithm.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.scheduling.job import Job, JobSet
from repro.utils.rng import make_rng


def realtime_control_workload(
    n: int,
    *,
    period: float = 10.0,
    jitter: float = 0.3,
    length_range=(2.0, 6.0),
    laxity_range=(1.0, 2.0),
    seed=None,
) -> JobSet:
    """Quasi-periodic control tasks with tight windows.

    Tasks are released near multiples of ``period`` with relative
    ``jitter``; window/length ratios stay within ``laxity_range`` (≤ 2 by
    default, i.e. strict even for k = 1).  Values reflect criticality:
    Uniform(1, 3).
    """
    rng = make_rng(seed)
    jobs: List[Job] = []
    for i in range(n):
        base = (i % max(1, n // 3)) * period
        r = float(base + rng.uniform(-jitter, jitter) * period)
        r = max(0.0, r)
        p = float(rng.uniform(*length_range))
        lam = float(rng.uniform(*laxity_range))
        jobs.append(Job(i, r, r + p * lam, p, value=float(rng.uniform(1.0, 3.0))))
    return JobSet(jobs)


def batch_analytics_workload(
    n: int,
    *,
    horizon: float = 1000.0,
    tail_alpha: float = 1.3,
    min_length: float = 1.0,
    max_length: float = 256.0,
    min_laxity: float = 4.0,
    seed=None,
) -> JobSet:
    """Heavy-tailed batch jobs with generous deadlines.

    Lengths are Pareto(``tail_alpha``)-distributed and clipped to
    ``[min_length, max_length]`` — a length ratio ``P`` of several hundred,
    the regime where the ``log_{k+1} P`` classification matters.  Windows
    are at least ``min_laxity`` times the length.  Value is proportional to
    length with noise (bigger jobs are worth more, but not perfectly so).
    """
    rng = make_rng(seed)
    jobs: List[Job] = []
    for i in range(n):
        p = float(np.clip(min_length * rng.pareto(tail_alpha) + min_length, min_length, max_length))
        lam = float(min_laxity * (1.0 + rng.random() * 2.0))
        window = p * lam
        r = float(rng.uniform(0.0, max(0.0, horizon - window)))
        v = float(p * rng.uniform(0.5, 1.5))
        jobs.append(Job(i, r, r + window, p, v))
    return JobSet(jobs)


def mixed_server_workload(
    n: int,
    *,
    horizon: float = 500.0,
    interactive_fraction: float = 0.6,
    seed=None,
) -> JobSet:
    """A server mix: interactive (short, strict, high-density) requests
    alongside background (long, lax, low-density) work.

    The archetype for Algorithm 3's strict/lax split: neither branch alone
    can harvest the whole value.
    """
    if not (0.0 <= interactive_fraction <= 1.0):
        raise ValueError("interactive_fraction must be in [0, 1]")
    rng = make_rng(seed)
    jobs: List[Job] = []
    for i in range(n):
        if rng.random() < interactive_fraction:
            p = float(rng.uniform(0.5, 2.0))
            lam = float(rng.uniform(1.0, 2.0))
            v = float(p * rng.uniform(3.0, 6.0))  # high density
        else:
            p = float(rng.uniform(8.0, 64.0))
            lam = float(rng.uniform(4.0, 10.0))
            v = float(p * rng.uniform(0.3, 1.0))  # low density
        window = p * lam
        r = float(rng.uniform(0.0, max(0.0, horizon - window)))
        jobs.append(Job(i, r, r + window, p, v))
    return JobSet(jobs)
