"""Shared hypothesis strategies for the property-test suite.

One module owns the instance distributions every ``test_prop_*`` file used
to re-declare inline: integral job sets, horizon-bounded job sets,
decimal-float job sets, lax job sets (paired with their k), random forests (float- and integer-valued,
optionally paired with k), EDF-admitted feasible schedules, disjoint
segment lists, and the small k / machine grids.

Each strategy keeps the parameter ranges of the file it was lifted from as
defaults (overridable per call), so consolidating did not change any
test's input distribution — the hypothesis databases stay meaningful and
the regimes each suite was tuned for (tie-heavy values, bushy forests,
lax windows) are preserved.
"""

import math

from hypothesis import strategies as st

from repro.core.bas.forest import Forest
from repro.scheduling.job import Job, JobSet
from repro.scheduling.schedule import Segment

__all__ = [
    "jobsets",
    "integral_jobsets",
    "large_jobsets",
    "decimal_jobsets",
    "lax_jobsets",
    "forests",
    "int_forests",
    "forests_with_k",
    "feasible_schedules",
    "segment_lists",
    "small_ks",
    "machine_counts",
]


# ---------------------------------------------------------------------------
# parameter grids
# ---------------------------------------------------------------------------


def small_ks(min_k: int = 1, max_k: int = 3):
    """The preemption budgets the property suites sweep (k = 0 by request)."""
    return st.integers(min_value=min_k, max_value=max_k)


def machine_counts(max_machines: int = 3):
    return st.integers(min_value=1, max_value=max_machines)


# ---------------------------------------------------------------------------
# job sets
# ---------------------------------------------------------------------------


@st.composite
def jobsets(
    draw,
    max_jobs: int = 8,
    max_release: int = 20,
    max_length: int = 6,
    max_slack: int = 12,
    max_value: int = 25,
):
    """Random integral job sets, windows ``d - r = p + slack >= p``.

    The workhorse distribution: small enough for exact solvers, dense
    enough in value/density ties to exercise tie-breaking.
    """
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        r = draw(st.integers(min_value=0, max_value=max_release))
        p = draw(st.integers(min_value=1, max_value=max_length))
        slack = draw(st.integers(min_value=0, max_value=max_slack))
        v = draw(st.integers(min_value=1, max_value=max_value))
        jobs.append(Job(i, r, r + p + slack, p, v))
    return JobSet(jobs)


@st.composite
def integral_jobsets(draw, max_jobs: int = 7, horizon: int = 24, max_value: int = 20):
    """Integral job sets confined to ``[0, horizon]`` — every window fits.

    The bounded horizon keeps the exact branch-and-bound and the unit-slot
    solvers cheap, which is what the EDF and reduction suites need.
    """
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        r = draw(st.integers(min_value=0, max_value=horizon - 2))
        p = draw(st.integers(min_value=1, max_value=max(1, (horizon - r) // 2)))
        slack = draw(st.integers(min_value=0, max_value=horizon - r - p))
        value = draw(st.integers(min_value=1, max_value=max_value))
        jobs.append(Job(i, r, r + p + slack, p, value))
    return JobSet(jobs)


@st.composite
def large_jobsets(
    draw,
    min_jobs: int = 17,
    max_jobs: int = 30,
    max_length: int = 8,
    max_value: int = 30,
):
    """Frontier-size integral job sets for the bitset ``OPT_∞`` core.

    ``n`` ranges over 17–30 — past the legacy branch-and-bound's wall and
    up to the new ``max_jobs`` guard.  The distribution is deliberately
    hostile to the solver's pruning machinery:

    * roughly half the jobs are *tight* (slack ≤ 2) and half *loose*
      (slack 3–20), so instances mix must-run-now contention with
      schedulable filler;
    * releases are packed into ``[0, 1.2·n]``, keeping the instance
      overloaded (the branch-and-bound actually branches rather than
      taking the all-feasible fast path);
    * deadlines frequently duplicate: each job may snap its deadline onto
      an earlier job's (when legal), exercising the EDD tie-breaks and the
      capacity-vector bookkeeping for shared deadline classes.
    """
    n = draw(st.integers(min_value=min_jobs, max_value=max_jobs))
    jobs = []
    deadlines: list = []
    for i in range(n):
        p = draw(st.integers(min_value=1, max_value=max_length))
        tight = draw(st.booleans())
        slack = draw(st.integers(min_value=0, max_value=2)) if tight else draw(
            st.integers(min_value=3, max_value=20)
        )
        r = draw(st.integers(min_value=0, max_value=(6 * n) // 5))
        v = draw(st.integers(min_value=1, max_value=max_value))
        d = r + p + slack
        if deadlines and draw(st.booleans()):
            snapped = draw(st.sampled_from(deadlines))
            if snapped >= r + p:  # only when it keeps the window legal
                d = snapped
        deadlines.append(d)
        jobs.append(Job(i, r, d, p, v))
    return JobSet(jobs)


@st.composite
def decimal_jobsets(draw, max_jobs: int = 8, max_value: int = 25):
    """Job sets whose coordinates are one- or two-decimal floats.

    Releases lie in ``[0, 2]`` and lengths in ``[0.1, 1]`` (or ``[0.01,
    1]``), drawn in units of the decimal step.  The deadline float is
    divided out from the integer sum, never built by float addition, so
    it is the literal decimal: half the windows have zero slack, e.g.
    release ``0.7``, length ``0.1``, deadline ``0.8``.  Some coordinates
    then move 1 ulp to a neighbouring float, always in the direction that
    keeps the window long enough (a deadline 1 ulp *below* a zero-slack
    window, such as ``0.7999999999999999``, is rejected by ``Job``).
    Values are integers, so every solver's optimum compares exactly.
    """
    step = draw(st.sampled_from([10, 100]))
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        r = draw(st.integers(min_value=0, max_value=2 * step))
        p = draw(st.integers(min_value=1, max_value=step))
        slack = draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=step)))
        release, deadline = r / step, (r + p + slack) / step
        nudge = draw(st.sampled_from(["none", "release-down", "deadline-up", "deadline-down"]))
        if nudge == "release-down" and r > 0:
            release = math.nextafter(release, -math.inf)
        elif nudge == "deadline-up":
            deadline = math.nextafter(deadline, math.inf)
        elif nudge == "deadline-down" and slack > 0:
            deadline = math.nextafter(deadline, -math.inf)
        value = draw(st.integers(min_value=1, max_value=max_value))
        jobs.append(Job(i, release, deadline, p / step, value))
    return JobSet(jobs)


@st.composite
def lax_jobsets(draw, max_jobs: int = 12, min_k: int = 1, max_k: int = 3):
    """``(JobSet, k)`` pairs that are lax for the drawn k (λ >= k + 1)."""
    k = draw(st.integers(min_value=min_k, max_value=max_k))
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        p = draw(st.integers(min_value=1, max_value=16))
        lam_extra = draw(st.integers(min_value=0, max_value=8))
        window = p * (k + 1) + lam_extra
        r = draw(st.integers(min_value=0, max_value=60))
        value = draw(st.integers(min_value=1, max_value=30))
        jobs.append(Job(i, r, r + window, p, value))
    return JobSet(jobs), k


@st.composite
def feasible_schedules(draw, max_jobs: int = 8, horizon: int = 30):
    """A feasible laminar schedule: EDF admission over a random instance."""
    from repro.scheduling.edf import edf_accept_max_subset

    jobs = draw(integral_jobsets(max_jobs=max_jobs, horizon=horizon))
    return edf_accept_max_subset(jobs)


# ---------------------------------------------------------------------------
# forests
# ---------------------------------------------------------------------------


@st.composite
def forests(draw, max_nodes: int = 40, max_value: float = 100):
    """Random float-valued forest: node i's parent from ``{-1} ∪ {0..i-1}``.

    The shape family covers paths, stars and bushy trees — the top-k
    selection's interesting regimes.
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents = [-1]
    for i in range(1, n):
        parents.append(draw(st.integers(min_value=-1, max_value=i - 1)))
    values = [
        draw(st.floats(min_value=0.01, max_value=max_value, allow_nan=False))
        for _ in range(n)
    ]
    return Forest(parents, values)


@st.composite
def int_forests(draw, max_nodes: int = 60, max_value: int = 1000):
    """Random forest with integer values (float64 arithmetic stays exact)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents = [-1]
    for i in range(1, n):
        parents.append(draw(st.integers(min_value=-1, max_value=i - 1)))
    values = [draw(st.integers(min_value=1, max_value=max_value)) for _ in range(n)]
    return Forest(parents, values)


@st.composite
def forests_with_k(draw, max_nodes: int = 35, max_value: float = 50, max_k: int = 4):
    """``(Forest, k)`` pairs for the k-BAS suites."""
    forest = draw(forests(max_nodes=max_nodes, max_value=max_value))
    k = draw(st.integers(min_value=1, max_value=max_k))
    return forest, k


# ---------------------------------------------------------------------------
# segments
# ---------------------------------------------------------------------------


@st.composite
def segment_lists(draw, max_segments: int = 12):
    """Random disjoint segment lists over integer coordinates in [0, 100]."""
    cuts = draw(
        st.lists(
            st.integers(min_value=0, max_value=100),
            min_size=2,
            max_size=2 * max_segments,
            unique=True,
        )
    )
    cuts.sort()
    segs = []
    for a, b in zip(cuts[::2], cuts[1::2]):
        if b > a:
            segs.append(Segment(a, b))
    return segs
