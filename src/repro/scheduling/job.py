"""Job and JobSet: the paper's input model (Section 2.1).

A job is the quadruple ``⟨r_j, d_j, p_j, val(j)⟩`` — release time, deadline,
length (processing time) and value.  :class:`JobSet` wraps an immutable
collection of jobs and exposes the instance statistics the paper's bounds
are phrased in:

* ``n``        — number of jobs,
* ``P``        — ratio of maximal to minimal length (Section 1.3),
* ``rho``      — ratio of maximal to minimal value (Section 1.4),
* ``sigma``    — ratio of maximal to minimal density (Section 1.4),
* ``lambda_max`` — maximal relative laxity (Definition 4.4).

:class:`Job` is the one place numbers enter the model.  ``release``,
``deadline`` and ``length`` become exact rationals: an ``int`` (or a
``Fraction`` with denominator 1) is an ``int``, and a ``float`` is read as
its shortest decimal text, so JSON ``3.7`` is ``37/10``.  NaN, ±inf and
bools are rejected.  Everything downstream compares time with plain
operators, so no verdict depends on a tolerance.  Note that ``0.7 + 0.1``
is the float ``0.7999999999999999``, too short for length ``0.1``: build
zero-slack windows from ints or Fractions.  ``value`` keeps its type and
must be finite and positive, and not a bool.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Real
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple


def _canonical_number(x) -> str:
    """Exact rational token for a time/value coordinate (``p`` or ``p/q``).

    ``Fraction`` accepts int, float and Fraction and is exact for all of
    them (floats convert via their binary expansion), so numerically equal
    coordinates of different Python types produce the same token.  An
    ``int`` or a ``Fraction`` is tokenized as it is, without building a
    new ``Fraction``; its token is the same bytes either way, as it must
    be, since stores persist keys.
    """
    if type(x) is int:
        return str(x)
    f = x if type(x) is Fraction else Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _exact_coordinate(x, job_id, name):
    """``x`` as an exact rational: ``int`` when integral, else ``Fraction``."""
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise TypeError(f"job {job_id}: {name} must be a real number, got bool")
    if isinstance(x, Fraction):
        f = x
    elif isinstance(x, Integral):
        return int(x)
    elif isinstance(x, Real):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"job {job_id}: {name} must be finite, got {x}")
        f = Fraction(repr(x))
    else:
        raise TypeError(f"job {job_id}: {name} must be a real number, got {type(x).__name__}")
    return f.numerator if f.denominator == 1 else f


def integral(x, name: str) -> int:
    """``x`` as an ``int``, refusing anything that is not a whole number.

    An integral float or ``Fraction`` (``2.0``) is its ``int``; a bool, a
    non-integral number (``1.7``), NaN or ±inf is a ``ValueError`` instead
    of being truncated, and a non-number is a ``TypeError``.
    """
    if type(x) is int:
        return x
    if isinstance(x, bool):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    if isinstance(x, Integral):
        return int(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return x.numerator
    elif isinstance(x, Real):
        if float(x).is_integer():
            return int(x)
    else:
        raise TypeError(f"{name} must be an integer, got {type(x).__name__}")
    raise ValueError(f"{name} must be an integer, got {x!r}")


@dataclass(frozen=True)
class Job:
    """One job ``⟨r, d, p, value⟩`` with a stable integer identifier.

    Construction makes the time coordinates exact (module docstring) and
    enforces positive length, finite positive value, and a window at least
    as long as the job (``d - r >= p``) — a narrower window can never be
    scheduled and is almost always a generator bug.
    """

    id: int
    release: object
    deadline: object
    length: object
    value: object = 1.0

    def __post_init__(self) -> None:
        if not type(self.release) is type(self.deadline) is type(self.length) is int:
            for name in ("release", "deadline", "length"):
                object.__setattr__(
                    self, name, _exact_coordinate(getattr(self, name), self.id, name)
                )
        if isinstance(self.value, bool):
            raise TypeError(f"job {self.id}: value must be a real number, got bool")
        if self.length <= 0:
            raise ValueError(f"job {self.id}: length must be positive, got {self.length}")
        if not 0 < self.value < math.inf:
            raise ValueError(f"job {self.id}: value must be finite and positive, got {self.value}")
        if self.deadline - self.release < self.length:
            raise ValueError(
                f"job {self.id}: window [{self.release}, {self.deadline}] is shorter "
                f"than length {self.length}"
            )

    @property
    def window(self):
        """Window length ``d - r`` (denoted ``w(j)`` in Section 4.3.1)."""
        return self.deadline - self.release

    @property
    def laxity(self) -> float:
        """Relative laxity ``λ_j = (d_j - r_j) / p_j`` (Definition 4.4)."""
        return self.window / self.length

    @property
    def density(self) -> float:
        """Value density ``σ_j = val(j) / p_j`` (Section 4.3.2)."""
        return self.value / self.length

    def is_strict(self, k: int) -> bool:
        """Whether the job belongs to the strict class ``λ_j <= k + 1``.

        The strict/lax partition is how Algorithm 3 (k-PreemptionCombined)
        routes jobs: strict jobs go through the k-BAS reduction, lax jobs
        through LSA_CS.  Cross-multiplied, so the test is exact.
        """
        return self.window <= (k + 1) * self.length

    def shifted(self, dt) -> "Job":
        """A copy of the job with both window endpoints translated by ``dt``."""
        return Job(self.id, self.release + dt, self.deadline + dt, self.length, self.value)

    def with_id(self, new_id: int) -> "Job":
        """A copy of the job under a different identifier."""
        return Job(new_id, self.release, self.deadline, self.length, self.value)


class JobSet:
    """An immutable, id-indexed collection of jobs with instance statistics.

    Job ids must be unique; iteration order is the insertion order of the
    constructing sequence (generators emit deterministic orders so that the
    whole pipeline is reproducible).
    """

    def __init__(self, jobs: Iterable[Job]):
        self._jobs: Tuple[Job, ...] = tuple(jobs)
        self._by_id: Dict[int, Job] = {}
        for job in self._jobs:
            if job.id in self._by_id:
                raise ValueError(f"duplicate job id {job.id}")
            self._by_id[job.id] = job

    # -- container protocol -------------------------------------------------

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __getitem__(self, job_id: int) -> Job:
        return self._by_id[job_id]

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._by_id

    def __repr__(self) -> str:
        return f"JobSet(n={len(self)}, value={self.total_value})"

    @property
    def jobs(self) -> Tuple[Job, ...]:
        return self._jobs

    @property
    def ids(self) -> List[int]:
        return [j.id for j in self._jobs]

    # -- statistics the bounds are phrased in --------------------------------

    @property
    def n(self) -> int:
        """Number of jobs, the ``n`` of the ``log_{k+1} n`` bound."""
        return len(self._jobs)

    @property
    def total_value(self):
        """Sum of all job values, ``val(J)``."""
        return sum(j.value for j in self._jobs)

    @property
    def p_min(self):
        return min(j.length for j in self._jobs)

    @property
    def p_max(self):
        return max(j.length for j in self._jobs)

    @property
    def length_ratio(self):
        """``P = max_j p_j / min_j p_j`` — the paper's length ratio."""
        return self.p_max / self.p_min

    @property
    def value_ratio(self):
        """``ρ = max_j val(j) / min_j val(j)`` (Section 1.4)."""
        return max(j.value for j in self._jobs) / min(j.value for j in self._jobs)

    @property
    def density_ratio(self):
        """``σ-ratio = max_j σ_j / min_j σ_j`` (Section 1.4)."""
        return max(j.density for j in self._jobs) / min(j.density for j in self._jobs)

    @property
    def lambda_max(self):
        """Maximal relative laxity in the instance (Definition 4.4)."""
        return max(j.laxity for j in self._jobs)

    @property
    def horizon(self) -> Tuple[float, float]:
        """Smallest time interval containing every job's window."""
        return (
            min(j.release for j in self._jobs),
            max(j.deadline for j in self._jobs),
        )

    def canonical_key(self) -> str:
        """Order-independent, representation-normalized instance hash.

        The key is the SHA-256 of the job multiset serialised in a canonical
        form: jobs sorted by ``(release, deadline, length, value, id)`` and
        every coordinate normalized to an exact rational (so ``3``, ``3.0``
        and ``Fraction(3)`` — numerically indistinguishable to every solver
        — hash identically).  Job ids participate, since schedules reference
        them; two instances that differ only in job *order* share a key,
        which is what makes the serve-layer cache
        (:mod:`repro.serve`) safe: any cached result is verbatim valid for
        every instance mapping to the same key.

        Collision resistance is inherited from SHA-256 over an injective
        encoding (field- and job-separators cannot appear inside the exact
        rational tokens); ``tests/test_serve.py`` fuzzes for collisions.
        """
        parts = []
        for j in sorted(
            self._jobs,
            key=lambda j: (j.release, j.deadline, j.length, j.value, j.id),
        ):
            parts.append(
                ",".join(
                    (
                        _canonical_number(j.release),
                        _canonical_number(j.deadline),
                        _canonical_number(j.length),
                        _canonical_number(j.value),
                        str(j.id),
                    )
                )
            )
        digest = hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()
        return digest

    # -- derived sets ---------------------------------------------------------

    def subset(self, ids: Iterable[int]) -> "JobSet":
        """The sub-instance with the given job ids (original order kept)."""
        wanted = set(ids)
        missing = wanted - set(self._by_id)
        if missing:
            raise KeyError(f"unknown job ids {sorted(missing)}")
        return JobSet(j for j in self._jobs if j.id in wanted)

    def without(self, ids: Iterable[int]) -> "JobSet":
        """The sub-instance with the given job ids removed."""
        drop = set(ids)
        return JobSet(j for j in self._jobs if j.id not in drop)

    def split_by_laxity(self, k: int) -> Tuple["JobSet", "JobSet"]:
        """Partition into (strict, lax) job sets at the ``λ = k + 1`` threshold.

        This is line 1–2 of Algorithm 3: strict jobs satisfy ``λ_j <= k+1``
        and are handled by the k-BAS reduction, lax jobs satisfy
        ``λ_j > k+1`` and are handled by LSA_CS.
        """
        strict = [j for j in self._jobs if j.is_strict(k)]
        lax = [j for j in self._jobs if not j.is_strict(k)]
        return JobSet(strict), JobSet(lax)

    def sorted_by_density(self) -> List[Job]:
        """Jobs in the LSA processing order: density descending, id ascending.

        Deterministic tie-breaking keeps every run of the pipeline
        reproducible (the paper's analysis only requires *some* fixed
        density order).
        """
        return sorted(self._jobs, key=lambda j: (-j.density, j.id))

    def sorted_by_value(self) -> List[Job]:
        """Jobs by value descending — the original order of the LSA in [1],
        kept as an ablation baseline (the paper changes it to density)."""
        return sorted(self._jobs, key=lambda j: (-j.value, j.id))

    def length_classes(self, base) -> Dict[int, "JobSet"]:
        """Partition jobs into geometric length classes (Classify step).

        Class ``c`` holds jobs with ``p_min * base**c < p_j <= p_min *
        base**(c+1)``, and class 0 also ``p_min`` itself (the paper's
        indexing in Algorithm 2 is 1-based with closed boundaries; sending
        a boundary hit to the lower class makes the partition exact while
        preserving the property ``P(J_c) <= base`` the analysis needs).
        """
        if base <= 1:
            raise ValueError(f"class base must exceed 1, got {base}")
        if not self._jobs:
            return {}
        p_min = self.p_min
        classes: Dict[int, List[Job]] = {}
        for job in self._jobs:
            c = 0
            bound = p_min * base
            # Advance while p_j > p_min * base**(c+1); an exact boundary hit
            # stays in the lower class, keeping the intra-class ratio <= base.
            while job.length > bound:
                c += 1
                bound = bound * base
            classes.setdefault(c, []).append(job)
        return {c: JobSet(js) for c, js in sorted(classes.items())}


def make_jobs(triples: Sequence[Tuple], start_id: int = 0) -> JobSet:
    """Convenience constructor from ``(release, deadline, length[, value])``.

    Ids are assigned sequentially from ``start_id``; value defaults to 1.
    """
    jobs = []
    for i, t in enumerate(triples):
        if len(t) == 3:
            r, d, p = t
            v = 1.0
        elif len(t) == 4:
            r, d, p, v = t
        else:
            raise ValueError(f"expected (r, d, p[, value]) tuples, got {t!r}")
        jobs.append(Job(start_id + i, r, d, p, v))
    return JobSet(jobs)
