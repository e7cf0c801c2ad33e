"""Random job-set generators with controlled laxity, length spread and value.

The measured-price experiments (E4, E5) sweep instance families along the
axes the theorems are phrased in: number of jobs ``n``, length ratio ``P``
and the strict/lax laxity threshold.  These generators expose each axis as
a direct parameter.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from repro.scheduling.job import Job, JobSet
from repro.utils.rng import make_rng


def random_jobs(
    n: int,
    *,
    horizon: float = 100.0,
    length_range: Tuple[float, float] = (1.0, 10.0),
    laxity_range: Tuple[float, float] = (1.0, 5.0),
    value_model: str = "uniform",
    seed=None,
) -> JobSet:
    """General random instance.

    Each job draws a length log-uniformly from ``length_range`` (so every
    length class is populated), a laxity uniformly from ``laxity_range``,
    a release uniform in ``[0, horizon - window]`` and a value per
    ``value_model``:

    * ``"unit"``: 1 — the Albagli-Kim special case;
    * ``"uniform"``: Uniform(0.5, 1.5);
    * ``"density"``: value ∝ length (unit density, their other case);
    * ``"independent"``: value log-uniform in [0.1, 10], uncorrelated.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lo_p, hi_p = length_range
    lo_l, hi_l = laxity_range
    if not (0 < lo_p <= hi_p) or not (1 <= lo_l <= hi_l):
        raise ValueError("invalid length or laxity range")
    rng = make_rng(seed)
    jobs: List[Job] = []
    for i in range(n):
        p = float(np.exp(rng.uniform(np.log(lo_p), np.log(hi_p))))
        lam = float(rng.uniform(lo_l, hi_l))
        window = p * lam
        latest_release = max(0.0, horizon - window)
        r = float(rng.uniform(0.0, latest_release)) if latest_release > 0 else 0.0
        if value_model == "unit":
            v = 1.0
        elif value_model == "uniform":
            v = float(0.5 + rng.random())
        elif value_model == "density":
            v = p
        elif value_model == "independent":
            v = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        else:
            raise ValueError(f"unknown value model {value_model!r}")
        # Job reads each float as its shortest decimal; adding the decimals
        # exactly keeps d - r equal to the drawn window.  The float r + window
        # rounds either way, so at laxity 1 it would make the job a hair lax
        # or too short for its length.
        d = Fraction(repr(r)) + Fraction(repr(window))
        jobs.append(Job(i, r, d, p, v))
    return JobSet(jobs)


def random_integral_jobs(
    n: int,
    *,
    max_length: int = 8,
    tight_fraction: float = 0.5,
    release_span: Optional[int] = None,
    max_value: int = 30,
    seed=None,
) -> JobSet:
    """Deterministic *integral* overloaded instances for the exact frontier.

    Unlike :func:`random_jobs` (float coordinates), every release, deadline,
    length and value is an integer, so the exact solvers, the differential
    oracles and the golden files compare bit-for-bit.  The distribution
    mirrors ``tests.strategies.large_jobsets``: a ``tight_fraction`` of the
    jobs get slack ≤ 2 (must run almost immediately), the rest get slack
    3–20, and releases pack into ``[0, release_span]`` (default
    ``1.2 · n``) so the instance is overloaded and the branch-and-bound
    actually branches.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not (0 <= tight_fraction <= 1):
        raise ValueError(f"tight_fraction must be in [0, 1], got {tight_fraction}")
    rng = make_rng(seed)
    span = release_span if release_span is not None else (6 * n) // 5
    jobs: List[Job] = []
    for i in range(n):
        p = int(rng.integers(1, max_length + 1))
        if rng.random() < tight_fraction:
            slack = int(rng.integers(0, 3))
        else:
            slack = int(rng.integers(3, 21))
        r = int(rng.integers(0, span + 1))
        v = int(rng.integers(1, max_value + 1))
        jobs.append(Job(i, r, r + p + slack, p, v))
    return JobSet(jobs)


def random_lax_jobs(
    n: int,
    k: int,
    *,
    horizon: float = 100.0,
    length_ratio: float = 16.0,
    extra_laxity: float = 2.0,
    value_model: str = "independent",
    seed=None,
) -> JobSet:
    """Jobs that are all *lax* for the given ``k`` (``λ_j >= k + 1``).

    This is LSA_CS's input regime (Lemma 4.10).  Lengths span
    ``[1, length_ratio]`` log-uniformly, laxities are uniform in
    ``[k + 1, (k + 1) * extra_laxity]``.
    """
    if extra_laxity < 1:
        raise ValueError("extra_laxity must be >= 1")
    return random_jobs(
        n,
        horizon=horizon,
        length_range=(1.0, float(length_ratio)),
        laxity_range=(float(k + 1), float(k + 1) * extra_laxity),
        value_model=value_model,
        seed=seed,
    )


def random_strict_jobs(
    n: int,
    k: int,
    *,
    horizon: float = 100.0,
    length_range: Tuple[float, float] = (1.0, 8.0),
    value_model: str = "uniform",
    seed=None,
) -> JobSet:
    """Jobs that are all *strict* for the given ``k`` (``λ_j <= k + 1``).

    The reduction branch's input regime (Section 4.3.1).
    """
    return random_jobs(
        n,
        horizon=horizon,
        length_range=length_range,
        laxity_range=(1.0, float(k + 1)),
        value_model=value_model,
        seed=seed,
    )


def laminar_job_chain(depth: int, branching: int = 1, *, seed=None) -> JobSet:
    """A deterministic nested instance whose EDF schedule forms a known tree.

    Level-``l`` jobs (there are ``branching^l``) contain their children's
    windows strictly; all jobs fit together with preemption.  Used by the
    reduction tests as a schedule-forest ground truth: the schedule forest
    of the EDF schedule must be exactly this ``branching``-ary tree of the
    given depth.

    The construction is a simplified integral cousin of Appendix B: a job
    at level ``l`` has length ``(4*branching)^(depth-l)`` and its window is
    exactly its length plus its descendants' total load.
    """
    if depth < 0 or branching < 1:
        raise ValueError("depth >= 0 and branching >= 1 required")
    base = 4 * branching
    lengths = [base ** (depth - l) for l in range(depth + 1)]

    # Descendant load per level-l job: b*p(l+1) + b^2*p(l+2) + ...
    desc_load = [0] * (depth + 1)
    for l in range(depth - 1, -1, -1):
        desc_load[l] = branching * (lengths[l + 1] + desc_load[l + 1])

    jobs: List[Job] = []
    next_id = 0

    def build(level: int, release: int) -> int:
        """Emit the subtree rooted at a level-``level`` job released at
        ``release``; returns the job's id."""
        nonlocal next_id
        my_id = next_id
        next_id += 1
        window = lengths[level] + desc_load[level]
        jobs.append(
            Job(my_id, release, release + window, lengths[level], value=float(depth + 1 - level))
        )
        if level < depth:
            # Children are laid out back to back after an initial stretch of
            # this job's own work; each child occupies (its length + its
            # descendants' load) of the window.
            own_chunk = lengths[level] // (branching + 1)
            cursor = release + own_chunk
            for _ in range(branching):
                build(level + 1, cursor)
                cursor += lengths[level + 1] + desc_load[level + 1]
        return my_id

    build(0, 0)
    return JobSet(jobs)
