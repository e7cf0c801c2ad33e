"""ASCII Gantt rendering for schedules.

Debugging a scheduler means *looking* at the timeline.  This renderer draws
one row per job over a discretised time axis — segments as ``█``, the open
window as ``·``, idle as space — entirely in text (the sandbox has no
plotting stack, and text diffs nicely in tests and bug reports).
"""

from __future__ import annotations

from typing import List

from repro.scheduling.schedule import Schedule


def render_gantt(
    schedule: Schedule,
    *,
    width: int = 72,
    include_unscheduled: bool = False,
) -> str:
    """Render a single-machine schedule as an ASCII Gantt chart.

    ``width`` is the number of character cells for the time axis; each cell
    covers an equal slice of the instance horizon.  A cell shows ``█`` when
    the job executes at the cell's midpoint-containing slice (any overlap
    counts), ``·`` when the cell lies inside the job's window, and space
    otherwise.
    """
    jobs = schedule.jobs
    if jobs.n == 0:
        return "(empty instance)"
    lo, hi = jobs.horizon
    span = float(hi - lo)
    if span <= 0:
        return "(degenerate horizon)"
    cell = span / width

    ids = list(jobs.ids) if include_unscheduled else schedule.scheduled_ids
    if not ids:
        return "(nothing scheduled)"
    label_w = max(len(f"j{job_id}") for job_id in ids) + 1

    lines: List[str] = []
    header = " " * label_w + f"t ∈ [{lo}, {hi}]  ({width} cells, {cell:.3g}/cell)"
    lines.append(header)
    for job_id in ids:
        job = jobs[job_id]
        row = []
        segs = schedule[job_id] if job_id in schedule else ()
        for c in range(width):
            a = lo + c * cell
            b = a + cell
            busy = any(float(s.start) < b and a < float(s.end) for s in segs)
            if busy:
                row.append("█")
            elif float(job.release) < b and a < float(job.deadline):
                row.append("·")
            else:
                row.append(" ")
        label = f"j{job_id}".ljust(label_w)
        suffix = "" if job_id in schedule else "  (rejected)"
        lines.append(label + "".join(row) + suffix)
    return "\n".join(lines)

