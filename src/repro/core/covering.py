"""The §4.3.2 proof machinery, executable: interval double covers (Lemma
4.7), the parity split (Corollary 4.8), the prefix-dominance transfer
(Lemma 4.9 of Azar–Regev) and the LSA loadedness invariants (Lemmas
4.11–4.12).

The charging argument behind Lemma 4.10 is entirely constructive: rejected
jobs' windows are covered twice-at-most by a greedy sub-family, split by
parity into two *disjoint* families, and the heavier family's windows —
each at least ``b₀``-loaded with accepted work — pay for the rejected
value.  Everything in that chain is implemented and checkable here, and
experiment E13 runs the chain on real LSA executions.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.scheduling.segment import Segment, merge_touching, sort_segments


def double_cover(intervals: Sequence[Segment]) -> List[Segment]:
    """Lemma 4.7: a sub-family covering the union with multiplicity ≤ 2.

    Greedy per connected component of the union: start from the interval
    with the leftmost left endpoint; while the component is not exhausted,
    add the interval reaching farthest right among those intersecting the
    covered prefix.  Consecutive picks overlap, non-consecutive picks are
    disjoint — hence every point is covered once or twice.
    """
    if not intervals:
        return []
    items = sort_segments(intervals)
    components = merge_touching(items)
    chosen: List[Segment] = []
    idx = 0  # pointer into items (sorted by start)
    for comp in components:
        # Intervals belonging to this component.
        members: List[Segment] = []
        while idx < len(items) and items[idx].start <= comp.end:
            if items[idx].start >= comp.start or items[idx].end > comp.start:
                members.append(items[idx])
            idx += 1
        if not members:  # pragma: no cover - components come from the items
            continue
        # Greedy farthest-reach cover of [comp.start, comp.end).
        covered_to = comp.start
        j = 0
        while covered_to < comp.end:
            best = None
            while j < len(members) and members[j].start <= covered_to:
                if best is None or members[j].end > best.end:
                    best = members[j]
                j += 1
            if best is None:  # pragma: no cover - union is connected
                raise RuntimeError("gap inside a connected component")
            chosen.append(best)
            covered_to = best.end
    return chosen


def verify_double_cover(intervals: Sequence[Segment], chosen: Sequence[Segment]) -> bool:
    """Check Lemma 4.7's guarantee: every point of the union is covered by
    at least one and at most two chosen intervals.

    Verified at the finitely many "critical" coordinates (all endpoints and
    midpoints between consecutive endpoints), which is sufficient for
    piecewise-constant coverage functions.
    """
    union = merge_touching(list(intervals))
    if not union:
        return not chosen
    points = sorted({s.start for s in chosen} | {s.end for s in chosen}
                    | {s.start for s in union} | {s.end for s in union})
    probes = []
    for a, b in zip(points, points[1:]):
        probes.append((a + b) / 2)
    for p in probes:
        inside_union = any(seg.contains_point(p) for seg in union)
        count = sum(1 for seg in chosen if seg.contains_point(p))
        if inside_union and not (1 <= count <= 2):
            return False
        if not inside_union and count > 0:
            return False
    return True


def parity_split(chosen: Sequence[Segment]) -> Tuple[List[Segment], List[Segment]]:
    """Corollary 4.8: number the cover by left endpoint and split by parity;
    each class is pairwise disjoint."""
    ordered = sort_segments(chosen)
    return ordered[0::2], ordered[1::2]


def heavier_parity_class(chosen: Sequence[Segment]) -> List[Segment]:
    """The parity class of larger total length — the ``U*`` of Lemma 4.10's
    charging step (its total is at least half the cover's span)."""
    evens, odds = parity_split(chosen)
    le = sum(s.length for s in evens)
    lo = sum(s.length for s in odds)
    return list(evens) if le >= lo else list(odds)


def prefix_dominance(
    a: Sequence[float],
    b: Sequence[float],
    X: Sequence[int],
    Y: Sequence[int],
    alpha: float,
) -> bool:
    """Lemma 4.9 (Azar–Regev): given a sequence ``a``, a non-increasing
    non-negative sequence ``b`` and index sets X, Y, if every prefix
    satisfies ``Σ_{X∩[i]} a > α·Σ_{Y∩[i]} a`` then
    ``Σ_X a·b > α·Σ_Y a·b``.

    This function checks the *premise* on every prefix and returns whether
    it holds; the test-suite uses it to validate the conclusion empirically
    (the transfer itself is a two-line summation).
    """
    if len(a) != len(b):
        raise ValueError("a and b must have equal length")
    if any(b[i] < b[i + 1] for i in range(len(b) - 1)):
        raise ValueError("b must be non-increasing")
    if any(x < 0 for x in b):
        raise ValueError("b must be non-negative")
    Xs, Ys = set(X), set(Y)
    sx = sy = 0.0
    for i in range(len(a)):
        if i in Xs:
            sx += a[i]
        if i in Ys:
            sy += a[i]
        if not sx > alpha * sy:
            return False
    return True


def weighted_sums(a, b, X, Y) -> Tuple[float, float]:
    """The two sides of Lemma 4.9's conclusion: ``(Σ_X a·b, Σ_Y a·b)``."""
    sx = sum(a[i] * b[i] for i in X)
    sy = sum(a[i] * b[i] for i in Y)
    return sx, sy


# ---------------------------------------------------------------------------
# LSA loadedness invariants (Lemmas 4.11 / 4.12)
# ---------------------------------------------------------------------------


def lsa_busy_segment_floor(schedule, jobs) -> bool:
    """Lemma 4.11: every busy segment of an LSA schedule is at least as long
    as the shortest job of the instance."""
    if len(schedule) == 0:
        return True
    p_min = min(jobs[i].length for i in schedule.scheduled_ids)
    return all(seg.length >= p_min for seg in schedule.busy_segments())


def rejected_window_load(schedule, job) -> float:
    """Fraction of a rejected job's window occupied by accepted work — the
    quantity Lemma 4.12 lower-bounds by ``b₀ = (k+1)/(2P + k + 1)``."""
    window = float(job.deadline - job.release)
    if window <= 0:
        return 0.0
    busy = 0.0
    for seg, _ in schedule.all_segments():
        clipped = seg.clip(job.release, job.deadline)
        if clipped is not None:
            busy += float(clipped.length)
    return busy / window


def lemma_4_12_b0(P: float, k: int) -> float:
    """``b₀ = (k+1)/(2P + k + 1)`` — within a length class (P ≤ k+1) this is
    at least 1/3 (the remark after Lemma 4.12)."""
    return (k + 1) / (2 * P + k + 1)
