"""Execution segments (Section 2.2).

A segment ``g = [s, t)`` is a maximal contiguous stretch of time in which a
single job executes.  We use half-open intervals so that back-to-back
segments neither overlap nor leave gaps; the paper's closed-interval
notation and ours describe the same schedules because all intervals have
positive measure.

The precedence relation of Section 2.2 — ``g1 ≺ g2  ⟺  t1 <= s2`` — induces
a total order on the (pairwise-disjoint) segments of a feasible schedule;
:func:`Segment.precedes` implements it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple



@dataclass(frozen=True, order=True)
class Segment:
    """A half-open time interval ``[start, end)`` with positive length."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(f"segment [{self.start}, {self.end}) must have positive length")

    @property
    def length(self):
        return self.end - self.start

    def precedes(self, other: "Segment") -> bool:
        """The ``≺`` relation of Section 2.2: this segment ends no later than
        ``other`` starts."""
        return self.end <= other.start

    def overlaps(self, other: "Segment") -> bool:
        """Whether the two segments share an interval of positive length."""
        return max(self.start, other.start) < min(self.end, other.end)

    def contains_point(self, t) -> bool:
        return self.start <= t < self.end

    def contains(self, other: "Segment") -> bool:
        """Whether ``other`` lies entirely inside this segment."""
        return self.start <= other.start and self.end >= other.end

    def intersect(self, other: "Segment"):
        """The overlap of two segments, or ``None`` if it has zero length."""
        s = max(self.start, other.start)
        e = min(self.end, other.end)
        if e > s:
            return Segment(s, e)
        return None

    def clip(self, lo, hi):
        """The part of the segment inside ``[lo, hi)``, or ``None``."""
        return self.intersect(Segment(lo, hi)) if hi > lo else None

    def shifted(self, dt) -> "Segment":
        return Segment(self.start + dt, self.end + dt)

    def touches(self, other: "Segment") -> bool:
        """Whether the segments are adjacent (end of one equals start of the other)."""
        return self.end == other.start or other.end == self.start


def total_length(segments: Iterable[Segment]):
    """Sum of segment lengths (they are assumed pairwise disjoint)."""
    return sum(s.length for s in segments)


def sort_segments(segments: Iterable[Segment]) -> List[Segment]:
    """Segments in increasing time order."""
    return sorted(segments, key=lambda s: (s.start, s.end))


def merge_touching(segments: Iterable[Segment]) -> List[Segment]:
    """Coalesce adjacent/overlapping segments into maximal runs.

    Used after the left-merge compaction of the reduction (Section 4.1):
    when removed sub-jobs leave two segments of the same job back to back,
    they count as a single segment for the preemption budget.
    """
    out: List[Segment] = []
    for seg in sort_segments(segments):
        if out and out[-1].end >= seg.start:
            last = out[-1]
            out[-1] = Segment(last.start, max(last.end, seg.end))
        else:
            out.append(seg)
    return out


def disjoint(segments: Sequence[Segment]) -> bool:
    """Whether a collection of segments is pairwise disjoint."""
    ordered = sort_segments(segments)
    return all(a.end <= b.start for a, b in zip(ordered, ordered[1:]))


def complement_within(segments: Sequence[Segment], lo, hi) -> List[Segment]:
    """The idle intervals of ``[lo, hi)`` not covered by ``segments``.

    ``segments`` must be pairwise disjoint; zero-length residues are
    dropped.  This is the primitive behind the busy/idle decomposition used
    throughout Section 4.3.
    """
    if hi <= lo:
        return []
    gaps: List[Segment] = []
    cursor = lo
    for seg in sort_segments(segments):
        clipped = seg.clip(lo, hi)
        if clipped is None:
            continue
        if clipped.start > cursor:
            gaps.append(Segment(cursor, clipped.start))
        cursor = max(cursor, clipped.end)
    if hi > cursor:
        gaps.append(Segment(cursor, hi))
    return gaps


def coverage_hull(segments: Sequence[Segment]) -> Tuple[float, float]:
    """The smallest interval containing every segment (their *hull*).

    In a laminar schedule the hulls of the jobs form a laminar family; the
    schedule-forest construction of Section 4.1 is built on exactly this
    observation.
    """
    if not segments:
        raise ValueError("hull of an empty segment list is undefined")
    return min(s.start for s in segments), max(s.end for s in segments)


def drop_zero_length(segments: Iterable[Tuple]) -> List[Segment]:
    """Build segments from raw (start, end) pairs, discarding empty ones."""
    out = []
    for s, e in segments:
        if e > s:
            out.append(Segment(s, e))
    return out
