"""JSON (de)serialisation for job sets, schedules and forests.

A reproduction library gets adopted when instances and results can leave
the process: experiment configs are checked in, worst-case instances are
shared in bug reports, schedules are diffed across versions.  The format
is plain JSON with exact rationals encoded as ``"p/q"`` strings so the
zero-slack lower-bound instances round-trip losslessly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any, Dict, List, Union

from repro.core.bas.forest import Forest
from repro.scheduling.job import Job, JobSet, integral
from repro.scheduling.schedule import Schedule
from repro.scheduling.segment import Segment

Number = Union[int, float, Fraction]


def _encode_number(x: Number) -> Any:
    if type(x) is int:
        return x
    if isinstance(x, bool):  # bool is an int; reject to avoid silent weirdness
        raise TypeError("booleans are not valid time/value coordinates")
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x


def _decode_number(x: Any) -> Number:
    if isinstance(x, str):
        num, _, den = x.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    return x


# ---------------------------------------------------------------------------
# JobSet
# ---------------------------------------------------------------------------


def jobset_to_dict(jobs: JobSet) -> Dict[str, Any]:
    return {
        "format": "repro.jobset/1",
        "jobs": [
            {
                "id": j.id,
                "release": _encode_number(j.release),
                "deadline": _encode_number(j.deadline),
                "length": _encode_number(j.length),
                "value": _encode_number(j.value),
            }
            for j in jobs
        ],
    }


def jobset_from_dict(data: Dict[str, Any]) -> JobSet:
    if data.get("format") != "repro.jobset/1":
        raise ValueError(f"not a repro.jobset/1 document: {data.get('format')!r}")
    return JobSet(
        Job(
            id=integral(rec["id"], "job id"),
            release=_decode_number(rec["release"]),
            deadline=_decode_number(rec["deadline"]),
            length=_decode_number(rec["length"]),
            value=_decode_number(rec["value"]),
        )
        for rec in data["jobs"]
    )


def dump_jobset(jobs: JobSet, path) -> None:
    with open(path, "w") as fh:
        json.dump(jobset_to_dict(jobs), fh, indent=2)


def load_jobset(path) -> JobSet:
    with open(path) as fh:
        return jobset_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Schedule
# ---------------------------------------------------------------------------


def schedule_to_dict(schedule: Schedule) -> Dict[str, Any]:
    return {
        "format": "repro.schedule/1",
        "jobs": jobset_to_dict(schedule.jobs),
        "assignment": {
            str(job_id): [
                [_encode_number(s.start), _encode_number(s.end)] for s in segs
            ]
            for job_id, segs in schedule.items()
        },
    }


def schedule_from_dict(data: Dict[str, Any]) -> Schedule:
    if data.get("format") != "repro.schedule/1":
        raise ValueError(f"not a repro.schedule/1 document: {data.get('format')!r}")
    jobs = jobset_from_dict(data["jobs"])
    assignment = {
        int(job_id): [Segment(_decode_number(a), _decode_number(b)) for a, b in segs]
        for job_id, segs in data["assignment"].items()
    }
    return Schedule(jobs, assignment)


def dump_schedule(schedule: Schedule, path) -> None:
    with open(path, "w") as fh:
        json.dump(schedule_to_dict(schedule), fh, indent=2)


def load_schedule(path) -> Schedule:
    with open(path) as fh:
        return schedule_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Forest
# ---------------------------------------------------------------------------


def forest_to_dict(forest: Forest) -> Dict[str, Any]:
    return {
        "format": "repro.forest/1",
        "parents": [forest.parent(v) for v in range(forest.n)],
        "values": [_encode_number(forest.value(v)) for v in range(forest.n)],
    }


def forest_from_dict(data: Dict[str, Any]) -> Forest:
    if data.get("format") != "repro.forest/1":
        raise ValueError(f"not a repro.forest/1 document: {data.get('format')!r}")
    return Forest(data["parents"], [_decode_number(v) for v in data["values"]])


def dump_forest(forest: Forest, path) -> None:
    with open(path, "w") as fh:
        json.dump(forest_to_dict(forest), fh, indent=2)


def load_forest(path) -> Forest:
    with open(path) as fh:
        return forest_from_dict(json.load(fh))
