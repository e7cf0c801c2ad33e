"""Compare serving-benchmark runs of a parent commit and a change.

    python benchmarks/serving/compare.py --parent P1.json P2.json ... \\
                                         --change C1.json C2.json ...

Each file is one ``run.py --out`` file.  Parent and change runs pair up
in the order given, so alternate which side runs first.  For every
workload and metric the table gives each side's median and quartiles, the
share of pairs the change won (ties count for neither) and a verdict:

* ``improved``: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
* ``unresolved``: either side's interquartile range, as a share of its
  median, is wider than the bound;
* ``unchanged``: none of these.

Bounds and directions come from the ``end_to_end`` entries of the
repository's ``BENCHMARK.json``; a metric without one gets no verdict.
Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: Share of pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9


def load_bounds(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> Dict[str, Tuple[str, float]]:
    """``{metric: (better, bound)}`` from a BENCHMARK.json's end-to-end list."""
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], float(m["bound"])) for m in spec["end_to_end"]}


def load_runs(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    """``{(workload, metric): [value per file, in order]}``."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        with open(path) as fh:
            records = json.load(fh)
        for record in records if isinstance(records, list) else [records]:
            for name, metric in record["metrics"].items():
                values.setdefault((record["workload"], name), []).append(float(metric["value"]))
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: Optional[str],
    bound: Optional[float],
) -> Dict[str, object]:
    """One metric on one workload: quartiles, share of pairs won, verdict."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    row: Dict[str, object] = {
        "parent": (p_q1, p_med, p_q3),
        "change": (c_q1, c_med, c_q3),
        "won": None,
        "verdict": "-",
    }
    if better is None or bound is None:
        return row
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    won = sum(sign * (c - p) > 0 for p, c in pairs) / len(pairs)
    row["won"] = won
    gain = sign * (c_med - p_med)
    if won >= WIN_SHARE and gain > p_q3 - p_q1:
        row["verdict"] = "improved"
    elif -gain > bound * abs(p_med):
        row["verdict"] = "worse"
    elif (p_q3 - p_q1) > bound * abs(p_med) or (c_q3 - c_q1) > bound * abs(c_med):
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def compare(
    parent_paths: Sequence[str],
    change_paths: Sequence[str],
    bounds: Dict[str, Tuple[str, float]],
) -> List[Tuple[str, str, Dict[str, object]]]:
    """Rows ``(workload, metric, verdict row)`` for metrics both sides have."""
    parent = load_runs(parent_paths)
    change = load_runs(change_paths)
    rows = []
    for key in sorted(parent):
        if key not in change:
            continue
        better, bound = bounds.get(key[1], (None, None))
        rows.append((key[0], key[1], verdict(parent[key], change[key], better, bound)))
    return rows


def _fmt(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="run files of the parent")
    parser.add_argument("--change", nargs="+", required=True, help="run files of the change")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, load_bounds())
    print(f"{'workload':14s} {'metric':34s} {'parent median [q1, q3]':30s} "
          f"{'change median [q1, q3]':30s} {'won':>5s}  verdict")
    for workload, metric, row in rows:
        won = "-" if row["won"] is None else f"{row['won']:.2f}"
        print(f"{workload:14s} {metric:34s} {_fmt(row['parent']):30s} "
              f"{_fmt(row['change']):30s} {won:>5s}  {row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for _, _, row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
