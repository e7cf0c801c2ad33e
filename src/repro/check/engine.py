"""The fuzzing engine: seeded case streams through every oracle pair.

:func:`run_fuzz` is the single entry point behind ``repro fuzz``.  It

1. spawns one independent RNG stream per case (`spawn_rngs` — the same
   contract the sweep harness uses, so case ``(seed, index)`` is stable
   forever regardless of how many oracles run),
2. drives each case through every registered oracle of its domain,
3. on a disagreement, shrinks the case to a locally minimal repro
   (:func:`repro.check.shrink.shrink_case`) and writes it as a replayable
   JSON file,
4. runs the static theorem invariants (geometric-chain price bound) once
   per call, and
5. traces the whole run through :mod:`repro.obs` when a tracer is active
   — per-domain spans, per-oracle run counters, a disagreement counter.

Counterexample files carry everything needed to re-run the exact failure
(``repro fuzz --replay file.json`` or :func:`replay_counterexample`): the
serialized shrunk case, the oracle name, the originating seed and case
index, and the unshrunk case for forensics.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.check.cases import (
    DOMAINS,
    Case,
    case_from_dict,
    case_to_dict,
    generate_case,
    has_fractional_coordinates,
)
from repro.check.oracles import ORACLES, Oracle, get_oracle
from repro.check.shrink import shrink_case
from repro.obs import current_tracer
from repro.utils.rng import spawn_rngs

__all__ = [
    "Disagreement",
    "FuzzReport",
    "run_fuzz",
    "replay_counterexample",
    "COUNTEREXAMPLE_SCHEMA",
]

COUNTEREXAMPLE_SCHEMA = "repro-fuzz-counterexample/1"

#: The ns the once-per-run geometric-chain invariant is evaluated at.
_CHAIN_SIZES = (4, 16, 64)


@dataclass(frozen=True)
class Disagreement:
    """One oracle failure, shrunk and written to disk."""

    oracle: str
    domain: str
    seed: int
    case_index: int
    detail: str
    shrunk_detail: str
    case: Case
    shrunk: Case
    path: Optional[str] = None


@dataclass
class FuzzReport:
    """What a fuzz run did: counts per oracle, failures, wall time."""

    seed: int
    cases: int = 0
    fractional_jobs_cases: int = 0
    oracle_runs: Dict[str, int] = field(default_factory=dict)
    disagreements: List[Disagreement] = field(default_factory=list)
    invariant_failures: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.invariant_failures

    def summary(self) -> str:
        lines = [
            f"fuzz seed={self.seed}: {self.cases} cases, "
            f"{sum(self.oracle_runs.values())} oracle runs in {self.elapsed_s:.1f}s"
        ]
        for name in sorted(self.oracle_runs):
            lines.append(f"  {name}: {self.oracle_runs[name]} runs")
        lines.append(
            f"  jobs cases with non-integer coordinates: {self.fractional_jobs_cases}"
        )
        if self.invariant_failures:
            lines.append(f"INVARIANT FAILURES ({len(self.invariant_failures)}):")
            lines.extend(f"  {d}" for d in self.invariant_failures)
        if self.disagreements:
            lines.append(f"DISAGREEMENTS ({len(self.disagreements)}):")
            for d in self.disagreements:
                where = f" -> {d.path}" if d.path else ""
                lines.append(f"  [{d.oracle}] {d.shrunk_detail}{where}")
        else:
            lines.append("no disagreements")
        return "\n".join(lines)


def _counterexample_payload(d: Disagreement) -> Dict:
    return {
        "schema": COUNTEREXAMPLE_SCHEMA,
        "oracle": d.oracle,
        "domain": d.domain,
        "seed": d.seed,
        "case_index": d.case_index,
        "detail": d.detail,
        "shrunk_detail": d.shrunk_detail,
        "case": case_to_dict(d.shrunk),
        "original_case": case_to_dict(d.case),
    }


def _save_counterexample(d: Disagreement, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"counterexample-{d.oracle}-seed{d.seed}-case{d.case_index}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_counterexample_payload(d), fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    return path


def _static_invariants() -> List[str]:
    """Theorem checks with no per-case randomness — run once per fuzz call."""
    from repro.check.invariants import check_pobp0_geometric_chain

    failures = []
    for n in _CHAIN_SIZES:
        detail = check_pobp0_geometric_chain(n)
        if detail is not None:
            failures.append(detail)
    return failures


def run_fuzz(
    *,
    seed: int = 0,
    instances: int = 100,
    domains: Optional[Sequence[str]] = None,
    oracle_names: Optional[Sequence[str]] = None,
    shrink: bool = True,
    out_dir: str = "fuzz_failures",
    max_disagreements: int = 10,
    static_invariants: bool = True,
) -> FuzzReport:
    """Run ``instances`` cases per domain through every matching oracle.

    ``instances`` is the per-domain case count, so with the full registry
    every oracle sees exactly ``instances`` cases.  ``oracle_names``
    restricts the registry (and implicitly the domains); ``domains``
    restricts generation.  Fuzzing stops early once ``max_disagreements``
    distinct failures have been shrunk and saved — after the first few, a
    broken kernel produces thousands and shrinking each is waste.
    """
    t0 = time.perf_counter()
    if oracle_names is not None:
        selected: List[Oracle] = [get_oracle(name) for name in oracle_names]
    else:
        selected = list(ORACLES.values())
    run_domains = tuple(domains) if domains is not None else DOMAINS
    by_domain = {
        d: [o for o in selected if o.domain == d]
        for d in run_domains
        if any(o.domain == d for o in selected)
    }
    report = FuzzReport(seed=seed)
    tracer = current_tracer()

    if static_invariants:
        report.invariant_failures = _static_invariants()
        if tracer is not None:
            tracer.count("check.invariant_failures", len(report.invariant_failures))

    total = instances * len(by_domain)
    rngs = iter(spawn_rngs(seed, max(1, total)))
    for domain, oracles in by_domain.items():
        span_cm = (
            tracer.span("check.fuzz", domain=domain, instances=instances)
            if tracer is not None
            else None
        )
        if span_cm is not None:
            span_cm.__enter__()
        try:
            for idx in range(instances):
                case = generate_case(domain, next(rngs))
                report.cases += 1
                report.fractional_jobs_cases += has_fractional_coordinates(case)
                if tracer is not None:
                    tracer.count("check.cases")
                for oracle in oracles:
                    detail = oracle.check(case)
                    report.oracle_runs[oracle.name] = (
                        report.oracle_runs.get(oracle.name, 0) + 1
                    )
                    if tracer is not None:
                        tracer.count(f"check.oracle.{oracle.name}")
                    if detail is None:
                        continue
                    if tracer is not None:
                        tracer.count("check.disagreements")
                    shrunk, shrunk_detail = case, detail
                    if shrink:
                        shrunk = shrink_case(
                            case, lambda c: oracle.check(c) is not None
                        )
                        shrunk_detail = oracle.check(shrunk) or detail
                    d = Disagreement(
                        oracle=oracle.name,
                        domain=domain,
                        seed=seed,
                        case_index=idx,
                        detail=detail,
                        shrunk_detail=shrunk_detail,
                        case=case,
                        shrunk=shrunk,
                    )
                    if out_dir:
                        d = dataclasses.replace(d, path=_save_counterexample(d, out_dir))
                    report.disagreements.append(d)
                    if len(report.disagreements) >= max_disagreements:
                        report.elapsed_s = time.perf_counter() - t0
                        return report
        finally:
            if span_cm is not None:
                span_cm.__exit__(None, None, None)
    report.elapsed_s = time.perf_counter() - t0
    return report


def replay_counterexample(path: str) -> Optional[str]:
    """Re-run a saved counterexample; returns the oracle's current verdict.

    ``None`` means the disagreement no longer reproduces (fixed); a detail
    string means it still fails.  Raises on malformed files so CI replays
    fail loudly rather than vacuously pass.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("schema") != COUNTEREXAMPLE_SCHEMA:
        raise ValueError(
            f"{path}: unexpected schema {payload.get('schema')!r}, "
            f"want {COUNTEREXAMPLE_SCHEMA!r}"
        )
    oracle = get_oracle(payload["oracle"])
    case = case_from_dict(payload["case"])
    return oracle.check(case)
