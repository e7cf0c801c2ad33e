"""Laminar rearrangement of schedules (Figure 1 / Section 4.1).

The reduction to k-BAS needs the *preempts* relation of a schedule to be
laminar: a segment of B lies between two segments of A **iff** no segment
of A lies between two segments of B.  The paper observes that any feasible
schedule can be rearranged into this form without losing value — if A and B
interleave as ``a1 ≺ b1 ≺ a2 ≺ b2``, the work inside those segments can be
re-packed as ``a1 ≺ a2 ≺ b1 ≺ b2``: A's work moves earlier (still after
``a1``'s start ≥ r_A), B's moves later but never past ``b2``'s end ≤ d_B.

Two implementations are provided:

* :func:`laminarize` — re-run EDF on the accepted subset.  The subset is
  EDF-feasible (a feasible schedule for it exists), and deterministic EDF
  output is laminar (see :mod:`repro.scheduling.edf`).  This is the fast
  path used by the pipeline.
* :func:`laminarize_local` — the literal Figure 1 procedure: repeatedly
  find an interleaving pair and exchange work inside the interleaving
  range.  Quadratic, but it demonstrates the paper's argument exactly and
  serves as an independent cross-check in the test suite.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.scheduling.edf import edf_schedule
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment, merge_touching, sort_segments


def is_laminar(schedule: Schedule) -> bool:
    """Whether no two jobs interleave as ``a ≺ b ≺ a' ≺ b'``.

    Checked via hulls: in a schedule with pairwise-disjoint segments, two
    jobs interleave in the forbidden pattern exactly when their hulls
    overlap without one containing the other.
    """
    hulls = []
    for job_id in schedule.scheduled_ids:
        lo, hi = schedule.hull(job_id)
        hulls.append((lo, hi, job_id))
    hulls.sort(key=lambda h: (h[0], -h[1]))
    stack: List[Tuple[float, float]] = []
    for lo, hi, _ in hulls:
        while stack and stack[-1][1] <= lo:
            stack.pop()
        if stack and hi > stack[-1][1]:
            # Partial overlap: starts inside the top hull but ends outside.
            return False
        stack.append((lo, hi))
    return True


def laminarize(schedule: Schedule) -> Schedule:
    """Rearrange a feasible schedule into laminar form via EDF re-scheduling.

    Value and the accepted job set are preserved exactly; the output is
    feasible and laminar.  (The existence of ``schedule`` certifies that the
    accepted subset is ∞-preemptively feasible, hence EDF succeeds on it.)
    """
    accepted = schedule.scheduled_subset()
    result = edf_schedule(accepted)
    if not result.feasible:  # pragma: no cover - impossible for feasible input
        raise ValueError(
            "input schedule's accepted set is not EDF-feasible; "
            "was the input actually feasible?"
        )
    return Schedule(
        schedule.jobs,
        {i: list(result.schedule[i]) for i in result.schedule.scheduled_ids},
    )


def _interleaving_pair(schedule: Schedule) -> Optional[Tuple[int, int]]:
    """Find jobs (A, B) interleaved as ``a ≺ b ≺ a' ≺ b'``, or ``None``.

    Detected through partially-overlapping hulls, like :func:`is_laminar`,
    but returning the offending pair ordered so that A's hull starts first.
    """
    hulls = []
    for job_id in schedule.scheduled_ids:
        lo, hi = schedule.hull(job_id)
        hulls.append((lo, hi, job_id))
    hulls.sort(key=lambda h: (h[0], -h[1]))
    stack: List[Tuple[float, float, int]] = []
    for lo, hi, job_id in hulls:
        while stack and stack[-1][1] <= lo:
            stack.pop()
        if stack and hi > stack[-1][1]:
            return stack[-1][2], job_id
        stack.append((lo, hi, job_id))
    return None


def laminarize_local(schedule: Schedule, *, max_rounds: Optional[int] = None) -> Schedule:
    """The literal Figure 1 exchange procedure.

    While some pair (A, B) interleaves, re-pack the union of their segments
    inside the interleaving range: A receives the earliest slots, B the
    latest.  Each exchange strictly reduces the number of
    partially-overlapping hull pairs, so the procedure terminates within
    ``n^2`` rounds.
    """
    segments: Dict[int, List[Segment]] = {
        i: list(schedule[i]) for i in schedule.scheduled_ids
    }
    n = len(segments)
    rounds_left = max_rounds if max_rounds is not None else max(1, n * n)

    current = schedule
    for _ in range(rounds_left):
        pair = _interleaving_pair(current)
        if pair is None:
            return current
        a_id, b_id = pair
        segments = {i: list(current[i]) for i in current.scheduled_ids}
        a_segs, b_segs = segments[a_id], segments[b_id]
        # Work pool: all slots of both jobs, in time order.  A's hull starts
        # first, so giving A the earliest slots can only move A's work
        # earlier (never before its first original start >= r_A); B ends
        # last, so giving B the latest slots never pushes B past its
        # original last end <= d_B.
        pool = sort_segments(a_segs + b_segs)
        a_need = sum(s.length for s in a_segs)
        new_a: List[Segment] = []
        new_b: List[Segment] = []
        for slot in pool:
            if a_need > 0:
                take = min(slot.length, a_need)
                new_a.append(Segment(slot.start, slot.start + take))
                a_need = a_need - take
                if slot.length > take:
                    new_b.append(Segment(slot.start + take, slot.end))
            else:
                new_b.append(slot)
        segments[a_id] = merge_touching(new_a)
        segments[b_id] = merge_touching(new_b)
        current = Schedule(current.jobs, segments)

    if _interleaving_pair(current) is not None:  # pragma: no cover
        raise RuntimeError("laminarization did not converge within the round budget")
    return current
