"""The oracle-pair registry: every redundant computation path, cross-checked.

The repository deliberately computes the same quantities through multiple
engines — a vectorized TM kernel next to the reference loop, a MILP next
to the dynamic program, a Lawler DP next to branch-and-bound, a process
pool next to a serial loop.  Each redundancy is registered here as an
**oracle**: a pure function from a fuzz :class:`~repro.check.cases.Case`
to ``None`` (agreement) or a failure detail string (disagreement).

Conventions:

* oracles are deterministic — everything they need is derived from the
  case payload and params, never from ambient randomness;
* oracles that need a restricted input regime (unit lengths, lax jobs,
  tiny horizons) **derive** that regime from the case payload with a
  deterministic transform instead of skipping, so every oracle sees every
  case and per-oracle fuzz counts stay uniform;
* every artifact an oracle produces is certificate-checked
  (:func:`verify_schedule` / :func:`verify_bas` / :func:`verify_multimachine`)
  before its value is compared — a disagreement between two infeasible
  answers proves nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.check.cases import Case
from repro.scheduling.job import Job, JobSet

__all__ = ["Oracle", "ORACLES", "register_oracle", "oracles_for_domain", "get_oracle"]

#: Relative tolerance for comparisons where one side went through floats
#: (the MILP's objective); integral cross-checks compare exactly.
_REL_TOL = 1e-6


@dataclass(frozen=True)
class Oracle:
    """One registered differential check."""

    name: str
    domain: str
    description: str
    check: Callable[[Case], Optional[str]]


ORACLES: Dict[str, Oracle] = {}


def register_oracle(name: str, domain: str, description: str):
    """Decorator registering a check function under a unique oracle name."""

    def deco(fn: Callable[[Case], Optional[str]]) -> Callable[[Case], Optional[str]]:
        if name in ORACLES:
            raise ValueError(f"oracle {name!r} already registered")
        ORACLES[name] = Oracle(name=name, domain=domain, description=description, check=fn)
        return fn

    return deco


def oracles_for_domain(domain: str) -> List[Oracle]:
    return [o for o in ORACLES.values() if o.domain == domain]


def get_oracle(name: str) -> Oracle:
    try:
        return ORACLES[name]
    except KeyError:
        raise KeyError(
            f"unknown oracle {name!r}; registered: {sorted(ORACLES)}"
        ) from None


def _close(a, b) -> bool:
    a_f, b_f = float(a), float(b)
    return abs(a_f - b_f) <= _REL_TOL * max(1.0, abs(a_f), abs(b_f))


# ---------------------------------------------------------------------------
# jobs-domain oracles
# ---------------------------------------------------------------------------


@register_oracle(
    "pipeline-certificates",
    "jobs",
    "schedule_k_bounded output is feasible, k-bounded, and never beats OPT_∞",
)
def _pipeline_certificates(case: Case) -> Optional[str]:
    from repro.check.invariants import check_segment_budget
    from repro.core.combined import schedule_k_bounded
    from repro.scheduling.exact import opt_infty_value
    from repro.scheduling.verify import verify_schedule

    jobs, k = case.payload, case.params["k"]
    sched = schedule_k_bounded(jobs, k)
    rep = verify_schedule(sched, k=k)
    if not rep.feasible:
        return f"pipeline schedule infeasible (k={k}): {rep.violations[:3]}"
    detail = check_segment_budget(sched, k)
    if detail is not None:
        return detail
    opt = opt_infty_value(jobs)
    if float(sched.value) > float(opt) * (1 + _REL_TOL):
        return f"pipeline value {sched.value} exceeds OPT_∞ = {opt} (k={k})"
    return None


@register_oracle(
    "opt-exact-vs-lawler-dp",
    "jobs",
    "branch-and-bound OPT_∞ equals the Lawler-style Pareto DP",
)
def _opt_exact_vs_lawler_dp(case: Case) -> Optional[str]:
    from repro.scheduling.exact import opt_infty_exact, opt_infty_value
    from repro.scheduling.lawler_dp import lawler_optimal_value
    from repro.scheduling.verify import verify_schedule

    jobs = case.payload
    bb = opt_infty_value(jobs)
    dp = lawler_optimal_value(jobs)
    if bb != dp:
        return f"OPT_∞ disagreement: branch-and-bound {bb} vs Lawler DP {dp}"
    sched = opt_infty_exact(jobs)
    rep = verify_schedule(sched)
    if not rep.feasible:
        return f"opt_infty_exact schedule infeasible: {rep.violations[:3]}"
    if sched.value != bb:
        return (
            f"opt_infty_exact schedule value {sched.value} != reported "
            f"optimum {bb} (the PR-2 divergence class)"
        )
    return None


@register_oracle(
    "opt-bitset-vs-legacy",
    "jobs",
    "bitset OPT_∞ core equals the retained per-node-EDF reference",
)
def _opt_bitset_vs_legacy(case: Case) -> Optional[str]:
    from repro.scheduling.exact import opt_infty_reference_value, opt_infty_value

    jobs = case.payload  # fuzz payloads are n <= 10, inside the n <= 16 regime
    new = opt_infty_value(jobs)
    legacy = opt_infty_reference_value(jobs)
    if new != legacy:
        return (
            f"OPT_∞ disagreement: bitset core {new} vs legacy subset "
            f"reference {legacy} (n={jobs.n})"
        )
    return None


def _as_frontier_instance(jobs: JobSet, *, releases: int) -> JobSet:
    """Deterministic expansion of a fuzz payload into the n ∈ [17, 24] band.

    Tiles copies of the case's jobs (windows and values preserved) until
    the frontier size (17 plus a payload-derived offset) is reached, with
    every release snapped onto a grid of ``releases`` distinct points.  The
    snapping matters twice over: the copies all contend for the same
    capacity (a heavily overloaded instance, the regime where the bitset
    core's dominance pruning and relaxation bound actually earn their
    keep), and the Lawler DP's capacity vectors stay ``releases``-
    dimensional, so its Pareto front cannot blow up and the cross-check
    stays fast at n = 24.
    """
    base = [
        Job(j.id, int(j.release), max(int(j.deadline), int(j.release) + int(j.length)),
            int(j.length), int(j.value) if float(j.value) == int(j.value) else j.value)
        for j in jobs
    ]
    window = max(int(j.deadline) - int(j.release) for j in base)
    grid = [t * max(1, window // 2) for t in range(releases)]
    target = 17 + sum(int(j.length) for j in base) % 8  # deterministic 17..24
    out: List[Job] = []
    idx = 0
    while len(out) < target:
        j = base[idx % len(base)]
        r = grid[idx % len(grid)]
        out.append(Job(idx, r, r + (int(j.deadline) - int(j.release)), j.length, j.value))
        idx += 1
    return JobSet(out)


@register_oracle(
    "opt-bitset-vs-lawler",
    "jobs",
    "bitset OPT_∞ equals the Lawler DP on n∈[17,24] frontier expansions",
)
def _opt_bitset_vs_lawler(case: Case) -> Optional[str]:
    from repro.scheduling.exact import opt_infty_exact, opt_infty_value
    from repro.scheduling.lawler_dp import lawler_optimal_value
    from repro.scheduling.verify import verify_schedule

    big = _as_frontier_instance(case.payload, releases=2)
    try:
        dp = lawler_optimal_value(big, max_states=200_000)
    except RuntimeError:
        # Pareto-front blow-up (should be impossible with 2-dimensional
        # capacity vectors, but the oracle must compare, not skip): fall
        # back to the single-release derivation, whose DP front is a chain.
        big = _as_frontier_instance(case.payload, releases=1)
        dp = lawler_optimal_value(big, max_states=200_000)
    bb = opt_infty_value(big)
    if bb != dp:
        return (
            f"frontier OPT_∞ disagreement at n={big.n}: bitset {bb} vs "
            f"Lawler DP {dp}"
        )
    sched = opt_infty_exact(big)
    rep = verify_schedule(sched)
    if not rep.feasible:
        return f"frontier opt_infty_exact schedule infeasible (n={big.n}): {rep.violations[:3]}"
    if sched.value != bb:
        return (
            f"frontier schedule value {sched.value} != reported optimum {bb} "
            f"(n={big.n})"
        )
    return None


def _as_unit_instance(jobs: JobSet) -> JobSet:
    """Deterministic unit-length derivation of a case's job set.

    Keeps each job's integral release and value, snaps the length to 1 and
    the deadline to an integral window of at least 1 — Baptiste's
    equal-length regime, where preemption is provably irrelevant.
    """
    return JobSet(
        Job(j.id, int(j.release), int(j.release) + max(1, int(j.deadline - j.release)), 1, j.value)
        for j in jobs
    )


@register_oracle(
    "opt-exact-vs-unit-matching",
    "jobs",
    "on unit-length derivations, assignment matching equals OPT_∞ (OPT_k = OPT_∞)",
)
def _opt_exact_vs_unit_matching(case: Case) -> Optional[str]:
    from repro.scheduling.exact import opt_infty_value
    from repro.scheduling.unit_jobs import unit_jobs_optimal
    from repro.scheduling.verify import verify_schedule

    unit = _as_unit_instance(case.payload)
    matched = unit_jobs_optimal(unit)
    rep = verify_schedule(matched, k=0)
    if not rep.feasible:
        return f"unit matching schedule infeasible: {rep.violations[:3]}"
    bb = opt_infty_value(unit)
    if matched.value != bb:
        return (
            f"unit-length disagreement: matching {matched.value} vs "
            f"branch-and-bound OPT_∞ {bb}"
        )
    return None


@register_oracle(
    "combined-within-price-bound",
    "jobs",
    "facade solve keeps OPT_∞ / ALG_k within the Theorem 4.2/4.5 ceiling",
)
def _combined_within_price_bound(case: Case) -> Optional[str]:
    from repro.api import solve_k_bounded
    from repro.core.pricing import measured_price
    from repro.scheduling.exact import opt_infty_value
    from repro.scheduling.verify import verify_schedule

    jobs, k = case.payload, case.params["k"]
    result = solve_k_bounded(jobs, k)
    rep = verify_schedule(result.schedule, k=k)
    if not rep.feasible:
        return f"facade schedule infeasible (k={k}): {rep.violations[:3]}"
    if "wall_ms" not in result.metrics:
        return "facade result lost its observability block (no wall_ms metric)"
    if result.value <= 0:
        return f"facade solve kept no value on a non-empty instance (k={k})"
    opt = opt_infty_value(jobs)
    measurement = measured_price(opt, result.value, n=jobs.n, P=jobs.length_ratio, k=k)
    if not measurement.within_bound:
        return (
            f"price {measurement.price:.6f} exceeds the theorem ceiling "
            f"{measurement.bound:.6f} (n={jobs.n}, P={float(jobs.length_ratio):.3f}, k={k})"
        )
    return None


def _as_lax_instance(jobs: JobSet, k: int) -> JobSet:
    """Deterministic lax derivation: widen each window to ``λ >= k + 1``.

    Releases, lengths and values are kept; only deadlines move (rightward),
    so the derivation stays integral and never invalidates a job.
    """
    out = []
    for j in jobs:
        window = max(int(j.deadline - j.release), (k + 1) * int(j.length))
        out.append(Job(j.id, int(j.release), int(j.release) + window, int(j.length), j.value))
    return JobSet(out)


@register_oracle(
    "lsa-within-class-bound",
    "jobs",
    "LSA_CS on lax derivations is within 6·log_{k+1}P of OPT_∞ (Lemma 4.10)",
)
def _lsa_within_class_bound(case: Case) -> Optional[str]:
    from repro.core.lsa import lsa_cs
    from repro.core.pricing import price_bound_P
    from repro.scheduling.exact import opt_infty_value
    from repro.scheduling.verify import verify_schedule

    k = case.params["k"]
    lax = _as_lax_instance(case.payload, k)
    sched = lsa_cs(lax, k=k)
    rep = verify_schedule(sched, k=k)
    if not rep.feasible:
        return f"LSA_CS schedule infeasible (k={k}): {rep.violations[:3]}"
    if sched.value <= 0:
        return f"LSA_CS kept no value on a non-empty lax instance (k={k})"
    opt = opt_infty_value(lax)
    bound = price_bound_P(lax.length_ratio, k)
    if float(opt) > float(sched.value) * bound * (1 + _REL_TOL):
        return (
            f"LSA_CS value {sched.value} below the Lemma 4.10 guarantee: "
            f"OPT_∞ = {opt}, bound {bound:.6f} (k={k}, P={float(lax.length_ratio):.3f})"
        )
    return None


@register_oracle(
    "schedule-forest-tm-vs-milp",
    "jobs",
    "on the instance's schedule forest, procedure TM equals the MILP k-BAS",
)
def _schedule_forest_tm_vs_milp(case: Case) -> Optional[str]:
    from repro.core.bas.milp import kbas_milp_value
    from repro.core.bas.tm import tm_optimal_bas, tm_optimal_value
    from repro.core.bas.verify import verify_bas
    from repro.core.reduction import schedule_to_forest
    from repro.scheduling.edf import edf_accept_max_subset

    jobs, k = case.payload, case.params["k"]
    sched = edf_accept_max_subset(jobs)
    if len(sched) == 0:
        return None  # nothing admitted: the forest is empty, trivially agreed
    forest, _node_to_job = schedule_to_forest(sched)
    tm_value = tm_optimal_value(forest, k)
    milp_value = kbas_milp_value(forest, k)
    if not _close(tm_value, milp_value):
        return (
            f"k-BAS disagreement on the schedule forest: TM {tm_value} vs "
            f"MILP {milp_value} (k={k}, nodes={forest.n})"
        )
    bas = tm_optimal_bas(forest, k)
    rep = verify_bas(bas, k)
    if not rep.valid:
        return f"TM k-BAS certificate failed: {rep.violations[:3]}"
    if not _close(bas.value, tm_value):
        return (
            f"TM replay inconsistency: materialised k-BAS value {bas.value} "
            f"vs aggregate optimum {tm_value} (k={k})"
        )
    return None


def _tiny_integral(jobs: JobSet) -> JobSet:
    """Deterministic shrink of a case payload into ``opt_k_exact_small`` range.

    At most 4 jobs, releases folded into [0, 6), lengths into [1, 3],
    slacks into [0, 4) — horizon <= 12, well inside the unit-slot DFS
    budget while preserving the case's relative structure.
    """
    out = []
    for j in list(jobs)[:4]:
        r = int(j.release) % 6
        p = 1 + (int(j.length) - 1) % 3
        slack = int(j.deadline - j.release - j.length) % 4
        out.append(Job(j.id, r, r + p + slack, p, j.value))
    return JobSet(out)


@register_oracle(
    "opt-monotone-in-k",
    "jobs",
    "exact OPT_k is nondecreasing in k and dominated by OPT_∞ (tiny derivation)",
)
def _opt_monotone_in_k(case: Case) -> Optional[str]:
    from repro.check.invariants import check_opt_monotone_in_k

    tiny = _tiny_integral(case.payload)
    return check_opt_monotone_in_k(tiny, ks=(0, 1, 2), max_slots=16)


@register_oracle(
    "multimachine-monotone",
    "jobs",
    "machines are monotone: more machines never lose pipeline or OPT_∞ value",
)
def _multimachine_monotone(case: Case) -> Optional[str]:
    from repro.check.invariants import check_opt_monotone_in_machines
    from repro.core.multimachine import multimachine_k_bounded
    from repro.scheduling.verify import verify_multimachine

    jobs, k = case.payload, case.params["k"]
    machines = max(2, case.params.get("machines", 2))
    mm = multimachine_k_bounded(jobs, k=k, machines=machines)
    rep = verify_multimachine(mm, k)
    if not rep.feasible:
        return f"multi-machine schedule infeasible (k={k}, m={machines}): {rep.violations[:3]}"
    return check_opt_monotone_in_machines(jobs, k, machine_counts=(1, machines))


@register_oracle(
    "solve-deterministic",
    "jobs",
    "the same instance solved twice yields byte-identical schedules",
)
def _solve_deterministic(case: Case) -> Optional[str]:
    import json

    from repro.core.combined import schedule_k_bounded
    from repro.scheduling.io import schedule_to_dict

    jobs, k = case.payload, case.params["k"]
    first = json.dumps(schedule_to_dict(schedule_k_bounded(jobs, k)), sort_keys=True)
    second = json.dumps(schedule_to_dict(schedule_k_bounded(jobs, k)), sort_keys=True)
    if first != second:
        return f"nondeterministic pipeline output (k={k}): runs differ"
    return None


def _reference_canonical_key(jobs: JobSet) -> str:
    """:meth:`JobSet.canonical_key` rebuilt with the general ``Fraction(x)``
    token for every coordinate — the path its int and ``Fraction`` fast
    paths skip — as a deliberately independent tokenizer."""
    import hashlib
    from fractions import Fraction

    def token(x) -> str:
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    rows = sorted(jobs, key=lambda j: (j.release, j.deadline, j.length, j.value, j.id))
    text = "|".join(
        ",".join((token(j.release), token(j.deadline), token(j.length), token(j.value), str(j.id)))
        for j in rows
    )
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@register_oracle(
    "canonical-key",
    "jobs",
    "the instance key survives a wire round-trip, a permutation and int→Fraction "
    "retyping, and equals a reference Fraction tokenizer",
)
def _canonical_key(case: Case) -> Optional[str]:
    """Keys are persisted in stores and route requests to shards, so every
    representation of one instance must hash alike, and exactly as the
    general tokenizer does."""
    import json
    from fractions import Fraction

    from repro.api import SolveRequest

    jobs, k = case.payload, case.params["k"]
    key = jobs.canonical_key()
    reference = _reference_canonical_key(jobs)
    if key != reference:
        return f"canonical key {key[:12]}… differs from the reference tokenizer's {reference[:12]}…"
    wire = json.loads(json.dumps(SolveRequest(jobs=jobs, k=k).to_wire()))

    def retyped(x):
        return Fraction(x) if type(x) is int else x

    variants = {
        "a wire round-trip": SolveRequest.from_wire(wire).jobs,
        "a job permutation": JobSet(reversed(jobs.jobs)),
        "int→Fraction retyping": JobSet(
            Job(j.id, retyped(j.release), retyped(j.deadline), retyped(j.length), retyped(j.value))
            for j in jobs
        ),
    }
    for label, other in variants.items():
        if other.canonical_key() != key:
            return f"canonical key changed under {label} (n={jobs.n})"
    return None


@register_oracle(
    "served-vs-direct",
    "jobs",
    "SolverService answers (cold and cache-hit) equal the direct facade solve",
)
def _served_vs_direct(case: Case) -> Optional[str]:
    import json

    from repro.api import solve_k_bounded
    from repro.scheduling.io import schedule_to_dict
    from repro.scheduling.verify import verify_schedule
    from repro.serve import SolverService

    from repro.api import SolveRequest

    jobs, k = case.payload, case.params["k"]
    direct = solve_k_bounded(jobs, k)
    direct_bytes = json.dumps(schedule_to_dict(direct.schedule), sort_keys=True)
    request = SolveRequest(jobs=jobs, k=k)
    with SolverService(workers=1) as svc:
        cold = svc.solve(request)
        hit = svc.solve(request)
        stats = svc.stats()
    for label, served in (("cold", cold), ("hit", hit)):
        if served.degraded:
            return f"serve {label} result degraded without any deadline (k={k})"
        rep = verify_schedule(served.schedule, k=k)
        if not rep.feasible:
            return f"serve {label} schedule infeasible (k={k}): {rep.violations[:3]}"
        if served.value != direct.value or served.preemptions_used != direct.preemptions_used:
            return (
                f"serve {label} diverges from direct solve (k={k}): "
                f"value {served.value} vs {direct.value}, preemptions "
                f"{served.preemptions_used} vs {direct.preemptions_used}"
            )
        if json.dumps(schedule_to_dict(served.schedule), sort_keys=True) != direct_bytes:
            return f"serve {label} schedule differs from the direct solve's (k={k})"
    if stats.misses != 1 or stats.hits != 1:
        return (
            "serve cache bookkeeping wrong for identical back-to-back requests: "
            f"misses {stats.misses}, hits {stats.hits} (want 1 and 1)"
        )
    if not hit.metrics.get("served.hit"):
        return "cache-hit result is missing its served.hit metrics flag"
    return None


@register_oracle(
    "store-vs-memory",
    "jobs",
    "a restart over the durable store serves bit-identical results with no re-solve",
)
def _store_vs_memory(case: Case) -> Optional[str]:
    """The differential contract of the durable tier, driven end to end.

    One store-backed service solves the case cold (persisting the result);
    a *second* service on the same store — the restart, with prewarming off
    so the store path itself is exercised — must answer as a store hit,
    without invoking the solver, byte-identical to both the first answer
    and a direct facade solve after the full disk + wire round-trip.
    """
    import json
    import os
    import tempfile

    from repro.api import SolveRequest, solve_k_bounded
    from repro.scheduling.io import schedule_to_dict
    from repro.serve import SolverService

    jobs, k = case.payload, case.params["k"]
    request = SolveRequest(jobs=jobs, k=k)
    direct = solve_k_bounded(jobs, k)
    direct_bytes = json.dumps(schedule_to_dict(direct.schedule), sort_keys=True)

    def solver_calls(log):
        def fn(jobs_, k_, *, machines=1, method="auto", **kw):
            log.append((jobs_.canonical_key(), k_))
            return solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)

        return fn

    with tempfile.TemporaryDirectory(prefix="repro-check-store-") as root:
        path = os.path.join(root, "store")
        with SolverService(workers=1, store_path=path) as first:
            cold = first.solve(request)
            first_stats = first.stats()
        calls: list = []
        with SolverService(
            workers=1, store_path=path, prewarm=False, solve_fn=solver_calls(calls)
        ) as second:
            warm = second.solve(request)
            second_stats = second.stats()
    if cold.value != direct.value or cold.preemptions_used != direct.preemptions_used:
        return (
            f"store-backed cold solve diverges from direct (k={k}): "
            f"value {cold.value} vs {direct.value}"
        )
    if first_stats.store_writes != 1:
        return (
            f"cold solve was not persisted exactly once (k={k}): "
            f"store_writes {first_stats.store_writes}"
        )
    if calls:
        return (
            f"restarted service re-solved a stored instance (k={k}): "
            f"{len(calls)} solver calls"
        )
    if not warm.metrics.get("served.store_hit"):
        return f"restart answer is missing its served.store_hit metrics flag (k={k})"
    if second_stats.store_hits != 1:
        return (
            f"restart bookkeeping wrong (k={k}): store_hits "
            f"{second_stats.store_hits} (want 1)"
        )
    for label, served in (("cold", cold), ("restart", warm)):
        if json.dumps(schedule_to_dict(served.schedule), sort_keys=True) != direct_bytes:
            return (
                f"store {label} schedule is not bit-identical to the direct "
                f"solve after the disk round-trip (k={k})"
            )
    if warm.value != cold.value or warm.preemptions_used != cold.preemptions_used:
        return (
            f"restart answer diverges from the persisted one (k={k}): "
            f"value {warm.value} vs {cold.value}"
        )
    return None


@register_oracle(
    "gateway-vs-direct",
    "jobs",
    "gateway answers over the repro-wire/1 path equal the direct facade solve",
)
def _gateway_vs_direct(case: Case) -> Optional[str]:
    """Drive the full gateway admission/routing/dispatch path on one case.

    Uses in-process shards behind :meth:`Gateway.handle_solve` (no
    sockets, no forks — fuzz runs hundreds of cases), which still
    exercises every wire encode/decode, the ring routing and the shard
    dispatch exactly as the HTTP server does.  The end-to-end socket path
    is covered by ``tests/test_gateway.py`` and the CI gateway-bench
    smoke, whose warmup phase performs this same comparison over HTTP.
    """
    import asyncio

    from repro.api import SolveRequest, SolveResult, solve_k_bounded
    from repro.gateway import Gateway, HashRing, InlineShard

    jobs, k = case.payload, case.params["k"]
    request = SolveRequest(jobs=jobs, k=k)
    roundtrip = SolveRequest.from_wire(request.to_wire())
    if roundtrip != request or roundtrip.key() != request.key():
        return f"repro-wire/1 round trip changed the request (k={k})"
    direct = solve_k_bounded(jobs, k)
    expected_shard = HashRing(2).shard_for(request.canonical_key())

    async def drive():
        gateway = Gateway(
            shards=2,
            shard_factory=lambda index: InlineShard(workers=1),
        )
        await gateway.start()
        try:
            first = await gateway.handle_solve(request.to_wire())
            second = await gateway.handle_solve(roundtrip.to_wire())
        finally:
            await gateway.stop()
        return first, second

    (s1, p1, _), (s2, p2, _) = asyncio.run(drive())
    for label, status, payload in (("cold", s1, p1), ("repeat", s2, p2)):
        if status != 200:
            return f"gateway {label} request failed: HTTP {status} {payload} (k={k})"
        if payload["shard"] != expected_shard:
            return (
                f"gateway {label} routed to shard {payload['shard']}, "
                f"expected {expected_shard} (k={k})"
            )
        served = SolveResult.from_wire(payload["result"])
        if served.value != direct.value or served.preemptions_used != direct.preemptions_used:
            return (
                f"gateway {label} diverges from direct solve (k={k}): "
                f"value {served.value} vs {direct.value}, preemptions "
                f"{served.preemptions_used} vs {direct.preemptions_used}"
            )
    if not SolveResult.from_wire(p2["result"]).metrics.get("served.hit"):
        return "gateway repeat of the same canonical instance was not a cache hit"
    return None


@register_oracle(
    "gateway-ring",
    "jobs",
    "ring routing is deterministic and monotone under fleet growth",
)
def _gateway_ring(case: Case) -> Optional[str]:
    """Check the consistent-hash ring's routing math on one case's key.

    Determinism (``ring_shard_for_key`` equals a fresh :class:`HashRing`
    lookup, in range, for fleets of 1..8) and the defining
    consistent-hashing property, *monotonicity*: growing the fleet from
    ``n`` to ``n+1`` shards either keeps the key's owner or moves it to
    the new shard ``n``, never to a pre-existing one.  That the gateway
    routes by this ring is checked by ``gateway-vs-direct``.
    """
    from repro.api import SolveRequest
    from repro.gateway import HashRing, ring_shard_for_key

    jobs, k = case.payload, case.params["k"]
    key = SolveRequest(jobs=jobs, k=k).canonical_key()
    for n in range(1, 9):
        owner = ring_shard_for_key(key, n)
        if owner != HashRing(n).shard_for(key):
            return f"ring lookup is not deterministic at {n} shards (k={k})"
        if not 0 <= owner < n:
            return f"ring routed key to shard {owner} of {n} (k={k})"
    for n in range(1, 8):
        before = ring_shard_for_key(key, n)
        after = ring_shard_for_key(key, n + 1)
        if after != before and after != n:
            return (
                f"ring growth {n}->{n + 1} moved the key from shard {before} "
                f"to pre-existing shard {after} instead of the new one (k={k})"
            )
    return None


@register_oracle(
    "gateway-restart-equivalence",
    "jobs",
    "a supervised shard restart changes no answers: the store-backed "
    "replacement serves the persisted result without re-solving",
)
def _gateway_restart_equivalence(case: Case) -> Optional[str]:
    """Exercise the supervisor's restart path on a store-backed fleet.

    Solves once through the gateway, replaces the owning shard via the
    same :meth:`Gateway._restart_shard` hook the supervisor calls, then
    repeats the request over the shard hop (:meth:`Gateway._dispatch`;
    the gateway's own answer cache would otherwise answer it): the answer
    must be bit-equal, must be served from the replacement's re-warmed
    store (``served.store_hit``), and the solver must not run again
    (counted via ``solve_fn``).  The gateway's answer to the same request
    must equal the replacement's, on the same route.
    """
    import asyncio
    import os
    import tempfile

    from repro.api import SolveRequest, SolveResult, solve_k_bounded
    from repro.gateway import Gateway, InlineShard
    from repro.scheduling.io import schedule_to_dict

    jobs, k = case.payload, case.params["k"]
    request = SolveRequest(jobs=jobs, k=k)
    solver_calls: list = []

    def counting_solve(jobs_, k_, *, machines=1, method="auto", **kw):
        solver_calls.append(jobs_.canonical_key())
        return solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)

    async def drive(root: str):
        def factory(index: int):
            # prewarm off so the post-restart repeat demonstrably comes
            # off disk (served.store_hit) rather than a prewarmed LRU.
            return InlineShard(
                workers=1,
                store_path=os.path.join(root, f"shard-{index:02d}"),
                solve_fn=counting_solve,
                prewarm=False,
            )

        # supervise=False: this oracle drives the restart hook directly,
        # so a concurrent supervisor sweep mid-swap would only add noise.
        gateway = Gateway(shards=2, shard_factory=factory, supervise=False)
        await gateway.start()
        try:
            first = await gateway.handle_solve(request.to_wire())
            owner = gateway.shard_for(request)
            await gateway._restart_shard(owner)
            probe = await gateway._dispatch(owner, request.to_wire())
            second = await gateway.handle_solve(request.to_wire())
        finally:
            await gateway.stop()
        return first, owner, probe, second

    with tempfile.TemporaryDirectory(prefix="repro-check-gwrestart-") as root:
        (s1, p1, _), owner, probe, (s2, p2, _) = asyncio.run(drive(root))
    for label, status, payload in (("pre-restart", s1, p1), ("post-restart", s2, p2)):
        if status != 200:
            return f"gateway {label} request failed: HTTP {status} {payload} (k={k})"
    if not p1["shard"] == owner == p2["shard"]:
        return (
            f"restart changed the key's route: shard {p1['shard']} -> "
            f"{p2['shard']}, owner {owner} (k={k})"
        )
    before = SolveResult.from_wire(p1["result"])
    after = SolveResult.from_wire(probe)
    if after.value != before.value or after.preemptions_used != before.preemptions_used:
        return (
            f"restarted shard diverges (k={k}): value {after.value} vs "
            f"{before.value}, preemptions {after.preemptions_used} vs "
            f"{before.preemptions_used}"
        )
    if len(solver_calls) != 1:
        return (
            f"restarted shard re-solved a persisted instance (k={k}): "
            f"{len(solver_calls)} solver calls (want 1)"
        )
    if not after.metrics.get("served.store_hit"):
        return (
            f"post-restart answer is missing its served.store_hit flag (k={k}) — "
            f"the replacement did not re-warm from its shard store"
        )
    answered = SolveResult.from_wire(p2["result"])
    if (
        answered.value != after.value
        or answered.preemptions_used != after.preemptions_used
        or schedule_to_dict(answered.schedule) != schedule_to_dict(after.schedule)
    ):
        return (
            f"gateway answer after the restart differs from the replacement "
            f"shard's (k={k}): value {answered.value} vs {after.value}"
        )
    return None


@register_oracle(
    "gateway-answer-cache",
    "jobs",
    "a repeat the gateway answers itself equals the owning shard's cache hit; "
    "a degraded answer is never replayed; a reshard re-routes the envelope",
)
def _gateway_answer_cache(case: Case) -> Optional[str]:
    """Check the gateway's answer cache against the shard it stands in for.

    1. The first request carries a 1 ms ``deadline_ms`` while the full
       pipeline waits at a gate, so its answer is degraded.  A repeat with
       no deadline must come back not degraded.
    2. The next repeat is answered by the gateway (``answer_hits``).  It
       must decode to the same result — value, preemptions, method,
       schedule and metrics — as the owning shard's own LRU hit, fetched
       over the hop (:meth:`Gateway._dispatch`).
    3. After ``reshard(3)`` a cached answer names the new ring's owner.
    """
    import asyncio
    import threading

    from repro.api import SolveRequest, SolveResult, solve_k_bounded
    from repro.gateway import Gateway, HashRing, InlineShard
    from repro.scheduling.io import schedule_to_dict

    jobs, k = case.payload, case.params["k"]
    request = SolveRequest(jobs=jobs, k=k)
    doc = request.to_wire()
    gate = threading.Event()

    def gated_solve(jobs_, k_, *, machines=1, method="auto", **kw):
        if method != "lsa":  # the degraded fallback runs LSA and passes
            gate.wait(10.0)
        return solve_k_bounded(jobs_, k_, machines=machines, method=method, **kw)

    async def drive():
        gateway = Gateway(
            shards=2,
            shard_factory=lambda index: InlineShard(workers=1, solve_fn=gated_solve),
            supervise=False,
        )
        await gateway.start()
        try:
            try:
                first = await gateway.handle_solve(dict(doc, deadline_ms=1.0))
            finally:
                gate.set()
            full = await gateway.handle_solve(doc)
            hits_after_full = gateway.counters["answer_hits"]
            replayed = await gateway.handle_solve(doc)
            owner = gateway.shard_for(request)
            shard_hit = await gateway._dispatch(owner, doc)
            await gateway.reshard(3)
            moved = await gateway.handle_solve(doc)
            hits = gateway.counters["answer_hits"]
        finally:
            await gateway.stop()
        return first, full, hits_after_full, replayed, shard_hit, moved, hits

    first, full, hits_after_full, replayed, shard_hit, moved, hits = asyncio.run(drive())
    for label, (status, payload, _) in (
        ("deadline", first), ("repeat", full), ("replayed", replayed), ("resharded", moved)
    ):
        if status != 200:
            return f"gateway {label} request failed: HTTP {status} {payload} (k={k})"
    if not SolveResult.from_wire(first[1]["result"]).degraded:
        return f"the gated 1 ms deadline request was not degraded (k={k})"
    if SolveResult.from_wire(full[1]["result"]).degraded or hits_after_full:
        return f"the gateway replayed a degraded answer to a no-deadline repeat (k={k})"
    if hits != 2:
        return f"gateway answered {hits} of 2 cached repeats itself (k={k})"
    cached = SolveResult.from_wire(replayed[1]["result"])
    shard = SolveResult.from_wire(shard_hit)
    for name, mine, theirs in (
        ("value", cached.value, shard.value),
        ("preemptions", cached.preemptions_used, shard.preemptions_used),
        ("method", cached.method, shard.method),
        ("schedule", schedule_to_dict(cached.schedule), schedule_to_dict(shard.schedule)),
        ("metrics", cached.metrics, shard.metrics),
    ):
        if mine != theirs:
            return (
                f"gateway-cached answer differs from the shard's cache hit in "
                f"{name} (k={k}): {mine} vs {theirs}"
            )
    new_owner = HashRing(3).shard_for(request.canonical_key())
    if moved[1]["shard"] != new_owner:
        return (
            f"cached answer after reshard(3) names shard {moved[1]['shard']}, "
            f"the ring's owner is {new_owner} (k={k})"
        )
    if SolveResult.from_wire(moved[1]["result"]).value != shard.value:
        return f"cached answer changed value across reshard(3) (k={k})"
    return None


# ---------------------------------------------------------------------------
# forest-domain oracles
# ---------------------------------------------------------------------------


@register_oracle(
    "tm-loop-vs-vectorized",
    "forest",
    "reference TM loop and vectorized CSR kernel agree on every t/m aggregate",
)
def _tm_loop_vs_vectorized(case: Case) -> Optional[str]:
    from repro.core.bas.tm import tm_values, tm_values_vectorized

    forest, k = case.payload, case.params["k"]
    t_loop, m_loop = tm_values(forest, k)
    t_vec, m_vec = tm_values_vectorized(forest, k)
    for v in range(forest.n):
        if t_loop[v] != t_vec[v] or m_loop[v] != m_vec[v]:
            return (
                f"TM engines disagree at node {v} (k={k}): loop "
                f"(t={t_loop[v]}, m={m_loop[v]}) vs vectorized "
                f"(t={t_vec[v]}, m={m_vec[v]})"
            )
    return None


@register_oracle(
    "tm-vs-milp",
    "forest",
    "procedure TM's optimal k-BAS value equals the independent MILP",
)
def _tm_vs_milp(case: Case) -> Optional[str]:
    from repro.core.bas.milp import kbas_milp_value
    from repro.core.bas.tm import tm_optimal_value

    forest, k = case.payload, case.params["k"]
    tm_value = tm_optimal_value(forest, k)
    milp_value = kbas_milp_value(forest, k)
    if not _close(tm_value, milp_value):
        return (
            f"k-BAS optimum disagreement (k={k}, nodes={forest.n}): "
            f"TM {tm_value} vs MILP {milp_value}"
        )
    return None


@register_oracle(
    "tm-replay-certified",
    "forest",
    "TM's materialised k-BAS is a valid certificate matching its aggregate value",
)
def _tm_replay_certified(case: Case) -> Optional[str]:
    from repro.core.bas.tm import tm_optimal_bas, tm_optimal_value
    from repro.core.bas.verify import verify_bas

    forest, k = case.payload, case.params["k"]
    bas = tm_optimal_bas(forest, k)
    rep = verify_bas(bas, k)
    if not rep.valid:
        return f"TM k-BAS certificate failed (k={k}): {rep.violations[:3]}"
    value = tm_optimal_value(forest, k)
    if bas.value != value:
        return (
            f"TM replay inconsistency (k={k}): materialised {bas.value} vs "
            f"aggregate {value}"
        )
    again = tm_optimal_bas(forest, k)
    if sorted(again.retained) != sorted(bas.retained):
        return f"TM materialisation nondeterministic (k={k}): retained sets differ"
    return None


@register_oracle(
    "contraction-within-loss-bound",
    "forest",
    "LevelledContraction is valid, dominated by TM, and within Theorem 3.9's loss",
)
def _contraction_within_loss_bound(case: Case) -> Optional[str]:
    from repro.core.bas.bounds import bas_loss_bound
    from repro.core.bas.contraction import levelled_contraction
    from repro.core.bas.tm import tm_optimal_value
    from repro.core.bas.verify import verify_bas

    forest, k = case.payload, case.params["k"]
    lc = levelled_contraction(forest, k).best_subforest()
    rep = verify_bas(lc, k)
    if not rep.valid:
        return f"contraction k-BAS certificate failed (k={k}): {rep.violations[:3]}"
    tm_value = tm_optimal_value(forest, k)
    if float(lc.value) > float(tm_value) * (1 + _REL_TOL):
        return (
            f"contraction beat the optimal DP (k={k}): LC {lc.value} vs TM {tm_value}"
        )
    bound = bas_loss_bound(forest.n, k)
    if float(tm_value) * bound < float(forest.total_value) * (1 - _REL_TOL):
        return (
            f"Theorem 3.9 violated (k={k}): TM value {tm_value} times bound "
            f"{bound:.6f} below total value {forest.total_value}"
        )
    return None


# ---------------------------------------------------------------------------
# sweep-domain oracles
# ---------------------------------------------------------------------------


@register_oracle(
    "sweep-serial-vs-parallel",
    "sweep",
    "run_sweep rows are bit-identical between serial and process execution",
)
def _sweep_serial_vs_parallel(case: Case) -> Optional[str]:
    from repro.analysis.config import CELL_REGISTRY
    from repro.analysis.sweep import Sweep, run_sweep

    spec = case.payload
    cell = CELL_REGISTRY[spec["cell"]]
    sweep = Sweep(axes=spec["axes"], repeats=spec["repeats"])
    serial = run_sweep(sweep, cell, seed=spec["seed"], workers=1)
    parallel = run_sweep(
        sweep, cell, seed=spec["seed"], workers=case.params.get("workers", 2)
    )
    # The bit-identical contract covers (params, metrics); the optional
    # ``trace`` block carries wall times and is legitimately run-dependent.
    return _compare_sweep_rows(serial, parallel)


def _compare_sweep_rows(serial, parallel) -> Optional[str]:
    if len(serial) != len(parallel):
        return "sweep result lists differ in length"
    for row_s, row_p in zip(serial, parallel):
        if row_s.params != row_p.params or row_s.metrics != row_p.metrics:
            return (
                f"sweep rows diverge at params {row_s.params}: "
                f"serial {row_s.metrics} vs parallel {row_p.metrics}"
            )
    return None


@register_oracle(
    "sweep-serial-vs-parallel-traced",
    "sweep",
    "traced parallel sweeps match serial rows and carry per-cell trace blocks",
)
def _sweep_serial_vs_parallel_traced(case: Case) -> Optional[str]:
    from repro.analysis.config import CELL_REGISTRY
    from repro.analysis.sweep import Sweep, run_sweep
    from repro.obs.tracer import Tracer

    spec = case.payload
    cell = CELL_REGISTRY[spec["cell"]]
    sweep = Sweep(axes=spec["axes"], repeats=spec["repeats"])
    n_cells = len(sweep.cells())
    serial = run_sweep(sweep, cell, seed=spec["seed"], workers=1)
    tracer = Tracer()
    with tracer.activate():
        parallel = run_sweep(
            sweep, cell, seed=spec["seed"], workers=case.params.get("workers", 2)
        )
    detail = _compare_sweep_rows(serial, parallel)
    if detail is not None:
        return f"traced parallel run: {detail}"
    if any(row.trace is None for row in parallel):
        return "traced parallel run produced rows without trace blocks"
    cells_run = tracer.counters.get("sweep.cells_run")
    if cells_run != n_cells:
        return f"sweep.cells_run counter is {cells_run}, expected {n_cells}"
    return None
