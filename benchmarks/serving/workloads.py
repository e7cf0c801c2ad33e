"""The serving benchmark's traffic mixes and the inputs they generate.

``BENCHMARKS`` is the registry: one :class:`Workload` per traffic mix,
each carrying the reason it exists.  :func:`build_plan` turns a workload
and a seed into every request the run will send, serialised to HTTP bytes
before any timing starts.  Instances are drawn with the benchmark's own
seeded generator (integer coordinates, so every answer compares exactly),
not with a library generator a later change could alter.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.api import SolveRequest
from repro.scheduling.job import Job, JobSet

#: Share of ``--seconds`` given to the open-loop phase; the rest is the
#: closed-loop phase (15 s + 5 s at the default 20 s run).
OPEN_SHARE = 0.75

#: A run is this many rounds, each an open-loop then a closed-loop segment
#: against its own gateway launch.  On a shared two-vCPU machine one launch
#: can run a third slower than the next (process placement), so the
#: metrics pool several launches.
ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    ``corpus`` instances of ``n`` jobs form the working set; a share
    ``new_share`` of requests instead carry a never-seen instance.  The
    open-loop phase offers ``rate_rps`` Poisson arrivals.  ``presolve``
    solves the working set into the shard stores and relaunches the
    gateway before timing; otherwise a non-empty working set is warmed
    into the service caches after launch.  ``plan_rps`` only sizes the
    pre-generated closed-loop plan: a generous ceiling on the rate two
    back-to-back connections can reach on this mix.
    """

    name: str
    why: str
    n: int
    corpus: int
    rate_rps: float
    new_share: float = 0.0
    deadline_ms: Optional[float] = None
    presolve: bool = False
    plan_rps: float = 4000.0


BENCHMARKS: Tuple[Workload, ...] = (
    Workload(
        "hot-hits",
        "64 warmed n=12 instances at 100 rps: the time goes to HTTP, admission, "
        "the batch window, the shard hop, the wire codec and the service LRU",
        n=12, corpus=64, rate_rps=100.0,
    ),
    Workload(
        "deadline-hits",
        "hot-hits with deadline_ms=2000 on every request, which skips the batch "
        "window: the control for batch-window changes, isolating codec and hop",
        n=12, corpus=64, rate_rps=100.0, deadline_ms=2000.0,
    ),
    Workload(
        "cold-misses",
        "every request a never-seen n=20 instance at 20 rps: the time goes to "
        "the solver and store appends; hit ratio 0, the control for hit-path changes",
        n=20, corpus=0, rate_rps=20.0, new_share=1.0, plan_rps=400.0,
    ),
    Workload(
        "store-spill",
        "2000 pre-solved n=12 instances, 4x the fleet LRU, plus 10% new ones at "
        "100 rps: LRU misses served from the store, with writes beside reads",
        n=12, corpus=2000, rate_rps=100.0, new_share=0.1, presolve=True,
        plan_rps=1500.0,
    ),
)

WORKLOADS: Dict[str, Workload] = {w.name: w for w in BENCHMARKS}

#: Fresh instances solved right after launch so that lazy start-up work in
#: the shard processes happens before timing on the mixes that solve.
WARMUP_NEW = 16


@dataclass
class Instance:
    """One request: its solve request and the HTTP bytes that carry it."""

    request: SolveRequest
    payload: bytes


@dataclass
class Round:
    """One launch's open-loop segment and closed-loop segment."""

    open_due: List[float]  # seconds after the segment starts
    open_requests: List[Instance]
    closed_requests: List[Instance]


@dataclass
class Plan:
    """Everything a run sends, generated from the seed before timing."""

    workload: Workload
    corpus: List[Instance]
    warmup: List[Instance]
    rounds: List[Round]
    closed_seconds: float  # per round


def random_instance(rng: random.Random, n: int) -> JobSet:
    """An overloaded integer instance, so the exact solver branches.

    Half the jobs have slack at most 2 and the rest 3 to 20; releases pack
    into ``[0, 1.2 n]``.
    """
    jobs = []
    span = (6 * n) // 5
    for i in range(n):
        length = rng.randint(1, 8)
        slack = rng.randint(0, 2) if rng.random() < 0.5 else rng.randint(3, 20)
        release = rng.randint(0, span)
        jobs.append(Job(i, release, release + length + slack, length, rng.randint(1, 30)))
    return JobSet(jobs)


def http_request(body: dict) -> bytes:
    """A keep-alive ``POST /v1/solve`` carrying ``body`` as JSON."""
    data = json.dumps(body).encode()
    head = (
        "POST /v1/solve HTTP/1.1\r\n"
        "Host: 127.0.0.1\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(data)}\r\n\r\n"
    )
    return head.encode("latin-1") + data


class _Generator:
    """Distinct instances of one size, never repeating a canonical key."""

    def __init__(self, rng: random.Random, workload: Workload):
        self._rng = rng
        self._workload = workload
        self._seen = set()

    def next(self) -> Instance:
        while True:
            jobs = random_instance(self._rng, self._workload.n)
            key = jobs.canonical_key()
            if key not in self._seen:
                self._seen.add(key)
                break
        request = SolveRequest(
            jobs=jobs, k=self._rng.choice((1, 2)), deadline_ms=self._workload.deadline_ms
        )
        return Instance(request, http_request(request.to_wire()))


def build_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """Every request of one run, from ``seed``; the same seed, the same plan."""
    rng = random.Random(f"{workload.name}:{seed}")
    gen = _Generator(rng, workload)
    corpus = [gen.next() for _ in range(workload.corpus)]
    warmup = [gen.next() for _ in range(WARMUP_NEW if workload.new_share else 0)]

    def pick() -> Instance:
        if not corpus or rng.random() < workload.new_share:
            return gen.next()
        return corpus[rng.randrange(len(corpus))]

    open_s = seconds * OPEN_SHARE / ROUNDS
    closed_s = seconds * (1 - OPEN_SHARE) / ROUNDS
    rounds = []
    for _ in range(ROUNDS):
        open_due: List[float] = []
        due = rng.expovariate(workload.rate_rps)
        while due < open_s:
            open_due.append(due)
            due += rng.expovariate(workload.rate_rps)
        rounds.append(Round(
            open_due,
            [pick() for _ in open_due],
            [pick() for _ in range(math.ceil(workload.plan_rps * closed_s))],
        ))
    return Plan(workload, corpus, warmup, rounds, closed_s)
