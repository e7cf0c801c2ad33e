"""Timeline: the busy/idle interval structure behind LSA and the k = 0
algorithm (Sections 4.3.2 and 5).

A :class:`Timeline` tracks the busy intervals of one machine as scheduling
proceeds.  The two queries the paper's algorithms need are

* the *idle segments* inside a job's window ``[r_j, d_j)`` in left-to-right
  order (LSA scans "the leftmost k+1 idle segments" and then swaps the
  shortest for "the next idle segment"), and
* *booking* a set of segments, i.e. marking them busy.

The structure is a sorted list of disjoint busy intervals with binary-search
insertion; with ``n`` jobs the whole of LSA costs ``O(n^2)`` in the worst
case, which matches the simple list-based implementation the paper's
``O(n log n)``-flavoured accounting assumes away and is ample for the
laptop-scale experiments here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterable, List, Optional, Tuple

from repro.scheduling.segment import Segment, complement_within, merge_touching


class Timeline:
    """Sorted disjoint busy intervals with idle-window queries."""

    def __init__(self, busy: Optional[Iterable[Segment]] = None):
        self._busy: List[Segment] = merge_touching(list(busy)) if busy else []

    # -- inspection -----------------------------------------------------------

    @property
    def busy(self) -> List[Segment]:
        """The current busy intervals (sorted, disjoint, maximal)."""
        return list(self._busy)

    def total_busy(self):
        return sum(s.length for s in self._busy)

    def is_idle(self, seg: Segment) -> bool:
        """Whether ``seg`` intersects no busy interval."""
        i = bisect_left(self._busy, (seg.start,), key=lambda b: (b.start,))
        # Check the neighbour on each side of the insertion point.
        for j in (i - 1, i):
            if 0 <= j < len(self._busy) and self._busy[j].overlaps(seg):
                return False
        return True

    def idle_in(self, lo, hi) -> List[Segment]:
        """The maximal idle intervals inside ``[lo, hi)``, left to right.

        This realises the paper's "idle segments in ``[r_j, d_j]``"
        (Algorithm 2, line 12): the complement of the busy set within the
        window, clipped to it.
        """
        if hi <= lo:
            return []
        return complement_within(self._busy, lo, hi)

    def busy_in(self, lo, hi) -> List[Segment]:
        """Busy intervals clipped to ``[lo, hi)``."""
        out = []
        for b in self._busy:
            c = b.clip(lo, hi)
            if c is not None:
                out.append(c)
        return out

    def load_in(self, lo, hi):
        """Fraction of ``[lo, hi)`` that is busy — the ``b_0``-loadedness of
        Lemma 4.12."""
        width = hi - lo
        if width <= 0:
            return 0
        return sum(s.length for s in self.busy_in(lo, hi)) / width

    # -- mutation ---------------------------------------------------------------

    def book(self, segments: Iterable[Segment]) -> None:
        """Mark segments busy.  Raises if any overlaps existing busy time.

        Overlap here is a programming error in the caller (LSA only books
        idle intervals it was just handed), so we fail fast rather than
        silently merging.
        """
        for seg in segments:
            if not self.is_idle(seg):
                raise ValueError(f"segment [{seg.start}, {seg.end}) overlaps busy time")
        self._busy = merge_touching(self._busy + list(segments))

    def copy(self) -> "Timeline":
        clone = Timeline()
        clone._busy = list(self._busy)
        return clone


def allocate_leftmost(
    idles: List[Segment], length, *, max_pieces: Optional[int] = None
) -> Optional[List[Segment]]:
    """Greedily fill idle intervals left to right with ``length`` units.

    Returns the booked pieces (at most one partial piece, the last), or
    ``None`` when the intervals cannot hold ``length`` — or when doing so
    would need more than ``max_pieces`` pieces.  This is the "schedule j in
    members of S in the leftmost possible way" step of Algorithm 2, line 15.
    """
    remaining = length
    pieces: List[Segment] = []
    for idle in idles:
        if max_pieces is not None and len(pieces) >= max_pieces:
            break
        if remaining <= 0:
            break
        take = min(idle.length, remaining)
        if take > 0:
            pieces.append(Segment(idle.start, idle.start + take))
            remaining = remaining - take
    if remaining > 0:
        return None
    return pieces


def leftmost_fit_single(idles: List[Segment], length) -> Optional[Segment]:
    """The leftmost idle interval that can hold ``length`` en bloc.

    The k = 0 variant of LSA (Section 5) mandates en-bloc scheduling; this
    returns the placement (anchored at the interval's left end) or ``None``.
    """
    for idle in idles:
        if idle.length >= length:
            return Segment(idle.start, idle.start + length)
    return None
