"""Fuzz-case model and seeded instance generation for :mod:`repro.check`.

A :class:`Case` is one unit of fuzzing work: a domain tag (``jobs``,
``forest`` or ``sweep``), a payload (a :class:`~repro.scheduling.job.JobSet`,
a :class:`~repro.core.bas.forest.Forest`, or a sweep spec dict) and the
solver parameters the oracles should exercise (``k``, ``machines``).

Generation is deterministic from a single seed: the engine spawns one
independent RNG stream per case (the same :func:`repro.utils.rng.spawn_rngs`
contract the sweep harness uses), so adding cases or oracles never perturbs
existing ones and every counterexample is replayable from ``(seed, index)``.

Job values are always integers, so cross-solver value comparisons are
exact: the branch-and-bound, the Lawler DP, the unit-slot DFS and the
assignment oracle all agree bit-for-bit when they are correct.  Most job
coordinates are integers too; a share of the cases (:data:`DECIMAL_SHARE`)
writes them as one- or two-decimal floats instead, zero-slack windows and
1-ulp neighbours included, so that every oracle also runs on the exact
rationals :class:`~repro.scheduling.job.Job` reads such floats as.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict

import numpy as np

from repro.core.bas.forest import Forest
from repro.scheduling.io import (
    forest_from_dict,
    forest_to_dict,
    jobset_from_dict,
    jobset_to_dict,
)
from repro.scheduling.job import Job, JobSet

__all__ = ["Case", "DOMAINS", "generate_case", "case_to_dict", "case_from_dict",
           "has_fractional_coordinates"]

#: The fuzzable domains, in generation order.
DOMAINS = ("jobs", "forest", "sweep")

#: Share of ``jobs`` cases whose coordinates are decimal floats.
DECIMAL_SHARE = 0.25


@dataclass(frozen=True)
class Case:
    """One fuzz instance: domain, payload and solver parameters."""

    domain: str
    payload: Any
    params: Dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        if self.domain == "jobs":
            size = f"n={self.payload.n}"
        elif self.domain == "forest":
            size = f"nodes={self.payload.n}"
        else:
            size = f"cells={len(self.payload.get('axes', {}))} axes"
        return f"{self.domain} case ({size}, params={self.params})"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _decimal_job(rng: np.random.Generator, i: int, v: int) -> Job:
    """One job with ``q / 10`` or ``q / 100`` float coordinates.

    The deadline is divided out from the integer sum, never added in
    floats, so zero slack (a third of the draws) is exact; a fifth of the
    deadlines move up 1 ulp.  Lengths stay >= 1, so the oracles' integral
    derivations keep valid windows.
    """
    step = int(rng.choice([10, 100]))
    r = int(rng.integers(0, 20 * step + 1))
    p = int(rng.integers(step, 7 * step))
    slack = 0 if rng.random() < 1 / 3 else int(rng.integers(1, 12 * step + 1))
    deadline = (r + p + slack) / step
    if rng.random() < 0.2:
        deadline = math.nextafter(deadline, math.inf)
    return Job(i, r / step, deadline, p / step, v)


def _gen_jobs_case(rng: np.random.Generator) -> Case:
    """Random job set: n in [2, 10], horizon <= ~40.

    Windows satisfy ``d - r = p + slack >= p`` by construction; values are
    integers in [1, 30] so density ties and value ties both occur — the
    regime where tie-break bugs live.  A :data:`DECIMAL_SHARE` of the cases
    draws decimal-float coordinates (:func:`_decimal_job`).
    """
    n = int(rng.integers(2, 11))
    decimal = rng.random() < DECIMAL_SHARE
    jobs = []
    for i in range(n):
        if decimal:
            jobs.append(_decimal_job(rng, i, int(rng.integers(1, 31))))
            continue
        r = int(rng.integers(0, 21))
        p = int(rng.integers(1, 7))
        slack = int(rng.integers(0, 13))
        v = int(rng.integers(1, 31))
        jobs.append(Job(i, r, r + p + slack, p, v))
    k = int(rng.integers(1, 4))
    machines = int(rng.integers(1, 4))
    return Case("jobs", JobSet(jobs), {"k": k, "machines": machines})


def has_fractional_coordinates(case: Case) -> bool:
    """Whether a ``jobs`` case has a release, deadline or length that is
    not an integer."""
    return case.domain == "jobs" and any(
        type(x) is not int for j in case.payload for x in (j.release, j.deadline, j.length)
    )


def _gen_forest_case(rng: np.random.Generator) -> Case:
    """Random forest: n in [2, 48] nodes, integer values in [1, 50].

    Parent of node ``i`` is drawn from ``{-1} ∪ {0..i-1}`` — the same
    shape family the property tests use, which covers paths, stars and
    bushy trees (the top-k selection's interesting regimes).
    """
    n = int(rng.integers(2, 49))
    parents = [-1]
    for i in range(1, n):
        parents.append(int(rng.integers(-1, i)))
    values = [int(rng.integers(1, 51)) for _ in range(n)]
    k = int(rng.integers(1, 5))
    return Case("forest", Forest(parents, values), {"k": k})


def _gen_sweep_case(rng: np.random.Generator) -> Case:
    """A tiny sweep grid for the serial-vs-parallel engine oracle.

    Kept deliberately small (2 cells x 1 repeat over a fast registered
    cell) so the smoke budget affords hundreds of process-pool round
    trips; the equality contract is what's under test, not throughput.
    """
    k_pair = sorted(rng.choice(np.arange(1, 5), size=2, replace=False).tolist())
    spec = {
        "cell": "bas_loss_random",
        "axes": {"n": [int(rng.integers(12, 25))], "k": [int(x) for x in k_pair]},
        "repeats": 1,
        "seed": int(rng.integers(0, 2**31 - 1)),
    }
    return Case("sweep", spec, {"workers": 2})


_GENERATORS = {
    "jobs": _gen_jobs_case,
    "forest": _gen_forest_case,
    "sweep": _gen_sweep_case,
}


def generate_case(domain: str, rng: np.random.Generator) -> Case:
    """Draw one case of the given domain from an RNG stream."""
    try:
        gen = _GENERATORS[domain]
    except KeyError:
        raise ValueError(f"unknown domain {domain!r}; want one of {DOMAINS}") from None
    return gen(rng)


# ---------------------------------------------------------------------------
# (de)serialisation — counterexample files must round-trip cases exactly
# ---------------------------------------------------------------------------


def case_to_dict(case: Case) -> Dict[str, Any]:
    if case.domain == "jobs":
        payload: Dict[str, Any] = jobset_to_dict(case.payload)
    elif case.domain == "forest":
        payload = forest_to_dict(case.payload)
    elif case.domain == "sweep":
        payload = dict(case.payload)
    else:
        raise ValueError(f"unknown domain {case.domain!r}")
    return {"domain": case.domain, "payload": payload, "params": dict(case.params)}


def case_from_dict(data: Dict[str, Any]) -> Case:
    domain = data["domain"]
    if domain == "jobs":
        payload: Any = jobset_from_dict(data["payload"])
    elif domain == "forest":
        payload = forest_from_dict(data["payload"])
    elif domain == "sweep":
        payload = dict(data["payload"])
    else:
        raise ValueError(f"unknown domain {domain!r}")
    return Case(domain, payload, dict(data["params"]))
