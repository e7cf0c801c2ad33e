"""Bitset branch-and-bound core for ``OPT_∞`` subset selection.

The legacy search (kept in :mod:`repro.scheduling.exact` as the reference
oracle) re-ran a full EDF simulation at every include node, which walls out
around n ≈ 16.  This core replaces the per-node simulation with the
machinery that makes n ≈ 30 routine:

* **bitmask subsets** — jobs are sorted once into EDD order (deadline,
  then id) and a chosen set is an integer whose bit ``i`` is EDD position
  ``i``; the search never materialises job lists;
* **incremental feasibility** — a Lawler-style capacity vector ``v`` over
  the distinct release coordinates (``v[t]`` = total chosen processing
  released at or after ``releases[t]``).  Including job ``i`` is legal iff
  ``v[t] + p_i <= d_i − releases[t]`` for every ``t <= ρ_i`` (its release
  index); because decisions are taken in EDD order, each job's constraints
  are final at its own decision depth, so the check is O(ρ_i) instead of a
  fresh EDF run.  This is exactly the demand-bound criterion, checked once
  per (release, deadline) pair by the EDD-last contributing job;
* **dominance pruning** — two partial paths at the same depth with the
  same relevant capacity prefix are interchangeable for the remaining
  subtree, so the lower-value one is cut (sound: depth-first order
  guarantees the stored sibling's subtree was explored first, and the
  bound state it dominates can never beat it);
* **upper bounds** — the classic suffix-value bound plus an integer-safe
  fractional-relaxation bound: remaining capacity ``span − v[0]`` filled
  in density order, counting the straddling job's full value (≥ the
  fractional knapsack optimum, hence a valid bound, and division-free);
* **greedy incumbent** — density-order admission seeds ``best`` before
  the first node, so the bounds bite immediately.

The search (:func:`_search`) runs on Python ints only.  Job coordinates
are exact rationals (:class:`~repro.scheduling.job.Job` normalises them),
so :class:`_Prep` multiplies every release, deadline and length by the LCM
of their denominators — 1 on integer instances, 10^d on instances written
with d decimals.  Scaling all of time by one positive constant changes no
feasibility verdict.  Values keep their type; the fractional bound is
armed only when they are exact, since it sums them.

:func:`bitset_solve` is the entry point; :mod:`repro.scheduling.exact`
wraps it with caching, tracing and the public ``Schedule`` contract.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import lcm
from typing import Dict, List, Tuple

from repro.scheduling.job import JobSet
from repro.utils.numeric import is_exact

__all__ = ["BitsetResult", "bitset_solve"]

#: Cap on the search's dominance dictionary.  Beyond this the search
#: keeps consulting existing entries but stops inserting new ones —
#: bounded memory, identical results.
_DOM_CAP = 1_000_000


@dataclass(frozen=True)
class BitsetResult:
    """Outcome of one bitset search."""

    value: object  # the sum of job values, in the values' own type
    ids: Tuple[int, ...]  # chosen job ids (original id space), sorted
    stats: Dict[str, int]  # nodes / pruned_* / infeasible_include


class _Prep:
    """Instance geometry in EDD order, time scaled to integers."""

    __slots__ = (
        "n", "m", "ids", "rho", "lengths", "values", "limits", "suffix_v",
        "suffix_p", "dens", "mr", "span", "releases", "exact",
    )

    def __init__(self, jobs: JobSet):
        order = sorted(jobs, key=lambda j: (j.deadline, j.id))
        n = len(order)
        scale = lcm(*(
            x.denominator for j in order for x in (j.release, j.deadline, j.length)
        ))
        release_of = [int(j.release * scale) for j in order]
        deadlines = [int(j.deadline * scale) for j in order]
        releases = sorted(set(release_of))
        m = len(releases)
        self.n = n
        self.m = m
        self.releases = releases
        self.ids = [j.id for j in order]
        self.rho = [bisect_left(releases, r) for r in release_of]
        self.lengths = [int(j.length * scale) for j in order]
        self.values = [j.value for j in order]
        # limits[i][t] = d_i − releases[t]: the demand-bound ceiling job i's
        # inclusion must respect at every release index t <= ρ_i.
        self.limits = [
            [deadlines[i] - releases[t] for t in range(self.rho[i] + 1)]
            for i in range(n)
        ]
        suffix_v = [0] * (n + 1)
        suffix_p = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            suffix_v[i] = suffix_v[i + 1] + self.values[i]
            suffix_p[i] = suffix_p[i + 1] + self.lengths[i]
        self.suffix_v = suffix_v
        self.suffix_p = suffix_p
        self.dens = sorted(
            range(n), key=lambda i: (-(self.values[i] / order[i].length), i)
        )
        # mr[i] = max ρ_j over the undecided suffix j >= i: capacity entries
        # beyond it can never be consulted again, so dominance keys stop
        # there.
        mr = [0] * n
        mx = -1
        for i in range(n - 1, -1, -1):
            mx = max(mx, self.rho[i])
            mr[i] = mx
        self.mr = mr
        self.span = max(deadlines) - releases[0] if n else 0
        self.exact = is_exact(*self.values)


def _edd_capacity_feasible(prep: _Prep, members: List[int]) -> bool:
    """Demand-bound feasibility of a set of EDD indices (any order given).

    Rebuilds the capacity vector from scratch — used by the greedy
    incumbent, whose density-order insertions are *not* EDD-ordered, so the
    incremental trick does not apply.  O(|members| · m).
    """
    v = [0] * prep.m
    for i in sorted(members):
        p = prep.lengths[i]
        lim = prep.limits[i]
        for t in range(prep.rho[i] + 1):
            v[t] += p
            if v[t] > lim[t]:
                return False
    return True


def _greedy_incumbent(prep: _Prep):
    """Density-order greedy admission: (value, EDD bitmask).

    Seeds the search's ``best`` so the suffix/fractional bounds prune from
    node one instead of rediscovering a good solution first.
    """
    chosen: List[int] = []
    value = 0
    mask = 0
    for i in prep.dens:
        if _edd_capacity_feasible(prep, chosen + [i]):
            chosen.append(i)
            value = value + prep.values[i]
            mask |= 1 << i
    return value, mask


def _search(prep: _Prep, best_value, best_mask):
    """The recursive search over the integer-scaled instance.

    Returns ``(best_value, best_mask, stats)``.  Dominance uses a dict keyed
    on ``(depth, relevant capacity prefix)`` — equal states collapse, and
    the one explored first (depth-first) wins unless a later path arrives
    with strictly more value.
    """
    n = prep.n
    rho = prep.rho
    lengths = prep.lengths
    values = prep.values
    limits = prep.limits
    suffix_v = prep.suffix_v
    suffix_p = prep.suffix_p
    dens = prep.dens
    mr = prep.mr
    span = prep.span
    exact = prep.exact

    v = [0] * prep.m
    seen: Dict[tuple, object] = {}
    nodes = pruned_bound = pruned_dom = infeasible = 0

    # The recursion depth is n + 1 <= 31 — far inside the default limit.
    def rec(i: int, value, mask: int) -> None:
        nonlocal best_value, best_mask, nodes, pruned_bound, pruned_dom, infeasible
        nodes += 1
        if i == n:
            if value > best_value:
                best_value = value
                best_mask = mask
            return
        if value + suffix_v[i] <= best_value:
            pruned_bound += 1
            return
        if exact:
            # Fractional-relaxation bound, armed only when the values are
            # exact (a float round-off here could prune a true optimum).
            cap = span - v[0]
            if cap < suffix_p[i]:
                bound = 0
                for j in dens:
                    if j < i:
                        continue  # already decided (included value is in `value`)
                    if cap <= 0:
                        break
                    bound += values[j]
                    cap -= lengths[j]
                if value + bound <= best_value:
                    pruned_bound += 1
                    return
        key = (i, tuple(v[: mr[i] + 1]))
        old = seen.get(key)
        if old is not None:
            if old >= value:
                pruned_dom += 1
                return
            seen[key] = value
        elif len(seen) < _DOM_CAP:
            seen[key] = value
        ri = rho[i]
        pi = lengths[i]
        lim = limits[i]
        ok = True
        for t in range(ri + 1):
            if v[t] + pi > lim[t]:
                ok = False
                break
        if ok:
            # Include branch; the touched prefix is restored afterwards.
            saved = v[: ri + 1]
            for t in range(ri + 1):
                v[t] += pi
            rec(i + 1, value + values[i], mask | (1 << i))
            v[: ri + 1] = saved
        else:
            infeasible += 1
        rec(i + 1, value, mask)

    rec(0, 0, 0)
    stats = {
        "nodes": nodes,
        "pruned_bound": pruned_bound,
        "pruned_dominated": pruned_dom,
        "infeasible_include": infeasible,
    }
    return best_value, best_mask, stats


def bitset_solve(jobs: JobSet) -> BitsetResult:
    """Exact maximum-value ∞-feasible subset of an *overloaded* instance.

    The returned subset is one optimum; when the optimum is not unique,
    which one is materialised is deterministic but unspecified.
    """
    prep = _Prep(jobs)
    if prep.n == 0:
        return BitsetResult(0, (), {
            "nodes": 0, "pruned_bound": 0, "pruned_dominated": 0,
            "infeasible_include": 0,
        })
    g_value, g_mask = _greedy_incumbent(prep)
    value, mask, stats = _search(prep, g_value, g_mask)
    ids = tuple(sorted(prep.ids[b] for b in range(prep.n) if mask >> b & 1))
    return BitsetResult(value, ids, stats)
