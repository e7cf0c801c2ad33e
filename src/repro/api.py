"""repro.api — the stable facade over the solver stack.

The research modules expose historically-grown surfaces
(:func:`~repro.scheduling.exact.opt_infty_exact` returns a ``Schedule``,
:func:`~repro.scheduling.exact.opt_infty_value` a scalar, LSA and the
multi-machine wrappers each their own shapes).  Production callers get two
uniform entry points instead:

* :func:`solve_k_bounded` — one call, any ``k``/``machines``/``method``,
  always a :class:`SolveResult`;
* :func:`price_of_bounded_preemption` — the paper's headline quantity as a
  :class:`~repro.core.pricing.PriceMeasurement`.

The request side of that surface is a value object: :class:`SolveRequest`
is the **single request representation** shared by this facade, the
solver service (:mod:`repro.serve`), the sharded gateway
(:mod:`repro.gateway`) and the golden files — replacing the positional
``(jobs, k, machines, method, deadline_ms)`` tuples that used to thread
through ``submit``/``solve``.  Both :class:`SolveRequest`
and :class:`SolveResult` cross process and network boundaries through the
versioned ``repro-wire/1`` JSON schema (:data:`WIRE_FORMAT`):
``to_wire()`` emits a self-describing document with exact-rational
coordinates, ``from_wire()`` validates and reconstructs, and
``tests/test_wire.py`` pins the round-trip property
(``from_wire(to_wire(x)) == x``, permutation/re-typing invariance of
``canonical_key``).

Every solve runs under a tracer (the caller's, if one is active; a private
one otherwise) and reports its observability block in
``SolveResult.metrics`` — wall time, solver counters, and the method the
dispatcher chose.  The names and signatures exported here are snapshot-
tested (``tests/test_api.py``); changing them is an API break by
definition.

The facade is also a fuzz target: the differential correctness engine
(:mod:`repro.check`, ``python -m repro.cli fuzz``) re-verifies every
:class:`SolveResult` certificate and cross-checks the dispatcher against
the exact solvers and price bounds — see ``docs/TESTING.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.combined import schedule_k_bounded
from repro.core.lsa import lsa_cs
from repro.core.multimachine import (
    multimachine_k_bounded,
    multimachine_nonpreemptive,
    multimachine_opt_infty,
)
from repro.core.nonpreemptive import nonpreemptive_combined
from repro.core.pricing import PriceMeasurement, measured_price
from repro.core.reduction import reduce_schedule_to_k_preemptive
from repro.obs.tracer import Tracer, current_tracer
from repro.scheduling.exact import opt_infty_auto
from repro.scheduling.io import (
    jobset_from_dict,
    jobset_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.scheduling.job import JobSet, integral
from repro.scheduling.schedule import MultiMachineSchedule, Schedule

__all__ = [
    "WIRE_FORMAT",
    "SolveRequest",
    "SolveResult",
    "request_key",
    "solve_k_bounded",
    "price_of_bounded_preemption",
]

#: Dispatchable methods of :func:`solve_k_bounded`.  ``auto`` picks the
#: strongest pipeline for the instance; the named methods force one branch.
METHODS = ("auto", "combined", "reduction", "lsa")

#: Version tag of the JSON wire schema spoken by ``to_wire``/``from_wire``
#: on :class:`SolveRequest` and :class:`SolveResult`.  Bump only with a
#: compatibility shim: gateway clients and golden files pin this string.
WIRE_FORMAT = "repro-wire/1"


@dataclass(frozen=True)
class SolveResult:
    """The uniform outcome of a facade solve.

    ``value``/``preemptions_used`` are scalars for quick consumption;
    ``schedule`` is the full artifact (:class:`Schedule`, or
    :class:`MultiMachineSchedule` when ``machines > 1``); ``method`` is the
    concrete pipeline that produced it; ``metrics`` is the solve's
    observability block — ``wall_ms`` plus the tracer counters the solve
    incremented (``exact.nodes``, ``tm.nodes``, ``lsa.placed``, …).
    """

    value: float
    schedule: Union[Schedule, MultiMachineSchedule]
    preemptions_used: int
    method: str
    metrics: Dict[str, float] = field(default_factory=dict)

    @property
    def accepted_ids(self):
        """Ids of the jobs the schedule accepts (sorted)."""
        return list(self.schedule.scheduled_ids)

    @property
    def degraded(self) -> bool:
        """Whether this result came from a deadline-degraded serve fallback.

        Direct :func:`solve_k_bounded` results are never degraded; the
        :mod:`repro.serve` service sets ``metrics["served.degraded"]`` when
        a deadline forced the LSA fallback (see ``docs/SERVING.md``).
        """
        return bool(self.metrics.get("served.degraded", 0))

    def with_metrics(self, extra: Mapping[str, float]) -> "SolveResult":
        """A copy with ``extra`` merged into (and overriding) ``metrics``.

        The serve layer uses this to stamp its ``served.*`` block onto a
        result without mutating the instance other callers may share.
        """
        merged = dict(self.metrics)
        merged.update(extra)
        return SolveResult(
            value=self.value,
            schedule=self.schedule,
            preemptions_used=self.preemptions_used,
            method=self.method,
            metrics=merged,
        )

    def to_wire(self) -> Dict[str, Any]:
        """The ``repro-wire/1`` document for this result.

        Self-describing JSON: scalars in place, the schedule artifact as a
        nested ``repro.schedule/1`` (or ``repro.mmschedule/1``) document
        with exact-rational coordinates.  ``from_wire`` reconstructs an
        equivalent result; extra keys (a gateway's ``shard`` stamp, for
        example) are ignored on decode, so responses can be annotated in
        transit.
        """
        return {
            "format": WIRE_FORMAT,
            "kind": "solve_result",
            "value": self.value,
            "preemptions_used": self.preemptions_used,
            "method": self.method,
            "metrics": dict(self.metrics),
            "schedule": _schedule_to_wire(self.schedule),
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "SolveResult":
        """Decode a ``repro-wire/1`` ``solve_result`` document."""
        _check_wire_envelope(doc, "solve_result")
        return cls(
            value=float(doc["value"]),
            schedule=_schedule_from_wire(doc["schedule"]),
            preemptions_used=int(doc["preemptions_used"]),
            method=str(doc["method"]),
            metrics={str(k): float(v) for k, v in doc.get("metrics", {}).items()},
        )


def _schedule_to_wire(schedule: Union[Schedule, MultiMachineSchedule]) -> Dict[str, Any]:
    if isinstance(schedule, MultiMachineSchedule):
        return {
            "format": "repro.mmschedule/1",
            "jobs": jobset_to_dict(schedule.jobs),
            "machines": [schedule_to_dict(m) for m in schedule.machines],
        }
    return schedule_to_dict(schedule)


def _schedule_from_wire(doc: Mapping[str, Any]) -> Union[Schedule, MultiMachineSchedule]:
    if doc.get("format") == "repro.mmschedule/1":
        return MultiMachineSchedule(
            jobset_from_dict(doc["jobs"]),
            [schedule_from_dict(m) for m in doc["machines"]],
        )
    return schedule_from_dict(doc)


def _check_wire_envelope(doc: Mapping[str, Any], kind: str) -> None:
    if not isinstance(doc, Mapping):
        raise TypeError(f"wire document must be a mapping, got {type(doc).__name__}")
    if doc.get("format") != WIRE_FORMAT:
        raise ValueError(
            f"not a {WIRE_FORMAT} document: format={doc.get('format')!r}"
        )
    if doc.get("kind") != kind:
        raise ValueError(f"expected kind={kind!r}, got {doc.get('kind')!r}")


@dataclass(frozen=True, eq=False)
class SolveRequest:
    """One facade solve request, as a value object.

    The uniform request representation shared by :func:`solve_k_bounded`
    callers, :class:`repro.serve.SolverService` and the
    :mod:`repro.gateway` wire protocol — the fields are exactly the old
    positional ``(jobs, k, machines, method, deadline_ms)`` tuple, frozen
    and validated at construction.  ``deadline_ms`` is the per-request
    degradation budget (``None`` — no deadline; the serve layer may still
    apply its service-wide default).

    Equality compares the job sequence and every parameter (the round-trip
    contract ``from_wire(to_wire(x)) == x``); :meth:`canonical_key` and
    :meth:`key` are order- and representation-independent, which is what
    the serve cache and the gateway's shard router key on.
    """

    jobs: JobSet
    k: int
    machines: int = 1
    method: str = "auto"
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.jobs, JobSet):
            raise TypeError(
                f"jobs must be a JobSet, got {type(self.jobs).__name__}"
            )
        object.__setattr__(self, "k", integral(self.k, "k"))
        object.__setattr__(self, "machines", integral(self.machines, "machines"))
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if self.machines < 1:
            raise ValueError(f"machines must be >= 1, got {self.machines}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r} (want one of {METHODS})")
        if self.deadline_ms is not None:
            object.__setattr__(self, "deadline_ms", float(self.deadline_ms))
            if not 0 < self.deadline_ms < math.inf:
                raise ValueError(
                    f"deadline_ms must be finite and positive, got {self.deadline_ms}"
                )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SolveRequest):
            return NotImplemented
        return (
            self.jobs.jobs == other.jobs.jobs
            and self.k == other.k
            and self.machines == other.machines
            and self.method == other.method
            and self.deadline_ms == other.deadline_ms
        )

    def __hash__(self) -> int:
        # canonical_key() is order-independent while __eq__ is order-
        # sensitive; a coarser hash is fine (equal objects hash equal).
        return hash(
            (self.canonical_key(), self.k, self.machines, self.method, self.deadline_ms)
        )

    def canonical_key(self) -> str:
        """The instance hash (:meth:`JobSet.canonical_key`) — what the
        gateway shards on: same instance, same shard, for every ``k``."""
        return self.jobs.canonical_key()

    def key(self, canonical_key: Optional[str] = None) -> str:
        """The cache key (:func:`request_key`): instance hash plus the
        parameters that select the solver pipeline.

        A caller already holding :meth:`canonical_key` passes it in, so the
        instance is hashed once (the gateway routes on the same key).
        """
        if canonical_key is None:
            canonical_key = self.canonical_key()
        return _format_key(canonical_key, self.k, self.machines, self.method)

    def to_wire(self) -> Dict[str, Any]:
        """The ``repro-wire/1`` document for this request."""
        return {
            "format": WIRE_FORMAT,
            "kind": "solve_request",
            "jobs": jobset_to_dict(self.jobs),
            "k": self.k,
            "machines": self.machines,
            "method": self.method,
            "deadline_ms": self.deadline_ms,
        }

    @classmethod
    def from_wire(cls, doc: Mapping[str, Any]) -> "SolveRequest":
        """Decode a ``repro-wire/1`` ``solve_request`` document.

        Validation is the constructor's: a document with a negative ``k``,
        an unknown method or a malformed job record raises ``ValueError``
        (or ``TypeError``) rather than producing a half-valid request —
        the gateway maps those to HTTP 400.  Unknown envelope keys (e.g. a
        ``tenant`` annotation) are ignored.
        """
        _check_wire_envelope(doc, "solve_request")
        for field_name in ("jobs", "k"):
            if field_name not in doc:
                raise ValueError(f"solve_request document missing {field_name!r}")
        return cls(
            jobs=jobset_from_dict(doc["jobs"]),
            k=doc["k"],
            machines=doc.get("machines", 1),
            method=doc.get("method", "auto"),
            deadline_ms=doc.get("deadline_ms"),
        )


def request_key(jobs: JobSet, k: int, *, machines: int = 1, method: str = "auto") -> str:
    """Canonical cache key for one facade solve request.

    Combines :meth:`JobSet.canonical_key` (order-independent,
    representation-normalized instance hash) with the solver parameters
    that select the pipeline.  Two requests with equal keys are guaranteed
    to produce interchangeable :class:`SolveResult` artifacts, which is the
    contract the :mod:`repro.serve` cache and request coalescing rely on.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (want one of {METHODS})")
    return _format_key(jobs.canonical_key(), k, machines, method)


def _format_key(canonical_key: str, k: int, machines: int, method: str) -> str:
    return f"{canonical_key}:k={k}:m={machines}:method={method}"


def _solve_single(jobs: JobSet, k: int, method: str, enforce_laxity: bool) -> Schedule:
    if method in ("auto", "combined"):
        if k == 0:
            return nonpreemptive_combined(jobs)
        return schedule_k_bounded(jobs, k)
    if method == "reduction":
        if k == 0:
            raise ValueError("method='reduction' requires k >= 1")
        return reduce_schedule_to_k_preemptive(opt_infty_auto(jobs), k)
    if method == "lsa":
        if k == 0:
            return nonpreemptive_combined(jobs)
        return lsa_cs(jobs, k=k, enforce_laxity=enforce_laxity)
    raise ValueError(f"unknown method {method!r} (want one of {METHODS})")


def solve_k_bounded(
    jobs: JobSet,
    k: int,
    *,
    machines: int = 1,
    method: str = "auto",
    enforce_laxity: bool = True,
) -> SolveResult:
    """Solve the k-bounded-preemption throughput problem, uniformly.

    ``k`` is the preemption budget (``k = 0`` → non-preemptive, handled by
    the Section 5 algorithms); ``machines > 1`` uses the non-migrative
    iterated assignment of Section 4.3.4.  ``method``:

    * ``"auto"``/``"combined"`` — Algorithm 3 with the strongest available
      OPT_∞ input (the library's default pipeline);
    * ``"reduction"`` — the §4.1 schedule→forest→k-BAS reduction applied to
      the whole best ∞-preemptive schedule;
    * ``"lsa"`` — classify-and-select LSA only; by default rejects strict
      (λ < k+1) jobs so the Lemma 4.10 guarantee covers the whole
      instance.

    ``enforce_laxity`` applies to ``method="lsa"`` only (the other
    pipelines never require laxity): ``False`` admits strict jobs too —
    the greedy placement stays feasible on any input, the value guarantee
    then covers only the lax fraction.  That total-on-any-instance mode is
    what the serve layer degrades to when a deadline expires.

    The solve always runs traced: under the caller's tracer when one is
    active (spans join the caller's trace), else under a private tracer.
    Either way ``SolveResult.metrics`` carries ``wall_ms`` and the solver
    counters this solve produced.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if machines < 1:
        raise ValueError(f"machines must be >= 1, got {machines}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r} (want one of {METHODS})")

    caller_tracer = current_tracer()
    tracer = caller_tracer if caller_tracer is not None else Tracer()
    before = dict(tracer.counters)
    # Re-activating the caller's tracer is a harmless set/reset of the same
    # context variable, so one code path serves both ownership cases.
    with tracer.activate():
        with tracer.span(
            "api.solve", n=jobs.n, k=k, machines=machines, method=method
        ) as root:
            if machines > 1:
                if method != "auto":
                    raise ValueError(
                        "multi-machine solves dispatch the full pipeline; "
                        "use method='auto' with machines > 1"
                    )
                if k == 0:
                    schedule: Union[Schedule, MultiMachineSchedule] = (
                        multimachine_nonpreemptive(jobs, machines=machines)
                    )
                else:
                    schedule = multimachine_k_bounded(jobs, k=k, machines=machines)
                resolved = "multimachine"
            else:
                schedule = _solve_single(jobs, k, method, enforce_laxity)
                resolved = "combined" if method == "auto" else method
            root.attrs["resolved_method"] = resolved
        wall_ms = root.duration_ms

    metrics: Dict[str, float] = {"wall_ms": float(wall_ms)}
    for name, total in tracer.counters.items():
        delta = total - before.get(name, 0)
        if delta:
            metrics[name] = float(delta)
    return SolveResult(
        value=float(schedule.value),
        schedule=schedule,
        preemptions_used=int(schedule.max_preemptions),
        method=resolved,
        metrics=metrics,
    )


def price_of_bounded_preemption(
    jobs: JobSet,
    k: int,
    *,
    machines: int = 1,
) -> PriceMeasurement:
    """Realised price of bounded preemption on one instance.

    Measures ``OPT_∞ / ALG_k`` — the strongest available ∞-preemptive
    benchmark over the facade's k-bounded solve — packaged with the
    applicable theorem ceiling (Theorem 4.2 / 4.5 for ``k >= 1``, Section 5
    for ``k = 0``) as a :class:`~repro.core.pricing.PriceMeasurement`.
    """
    if jobs.n == 0:
        raise ValueError("price is undefined on an empty instance")
    if machines > 1:
        opt_value = multimachine_opt_infty(jobs, machines=machines).value
    else:
        opt_value = opt_infty_auto(jobs).value
    result = solve_k_bounded(jobs, k, machines=machines)
    return measured_price(
        opt_value,
        result.value,
        n=jobs.n,
        P=jobs.length_ratio,
        k=k,
    )
