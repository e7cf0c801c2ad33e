"""One-shot reproduction report: run every experiment, collect verdicts.

``python -m repro report`` executes the full E1–E17 suite (each experiment
re-asserts its own paper bounds as it runs), times each, and writes a
single ``REPORT.md`` with the rendered tables and a verdict summary.  A
clean exit — no assertion fired — *is* the reproduction statement.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.experiments import EXPERIMENTS
from repro.analysis.tables import Table


@dataclass
class ExperimentOutcome:
    """One experiment's run record."""

    name: str
    ok: bool
    seconds: float
    table: Optional[Table]
    error: Optional[str]


def run_full_report(
    *,
    names: Optional[List[str]] = None,
    keep_going: bool = True,
) -> List[ExperimentOutcome]:
    """Run the selected experiments (default: all), capturing outcomes.

    ``keep_going=False`` re-raises the first failure, which is what CI
    wants; the default records it and continues so a report is always
    produced.
    """
    selected = sorted(EXPERIMENTS) if names is None else list(names)
    outcomes: List[ExperimentOutcome] = []
    for name in selected:
        fn = EXPERIMENTS[name]
        t0 = time.perf_counter()
        try:
            table = fn()
            outcomes.append(
                ExperimentOutcome(name, True, time.perf_counter() - t0, table, None)
            )
        except Exception as exc:  # noqa: BLE001 - report must survive failures
            if not keep_going:
                raise
            outcomes.append(
                ExperimentOutcome(
                    name, False, time.perf_counter() - t0, None,
                    "".join(traceback.format_exception_only(type(exc), exc)).strip(),
                )
            )
    return outcomes


def render_report(outcomes: List[ExperimentOutcome]) -> str:
    """Assemble the markdown report."""
    lines: List[str] = [
        "# Reproduction report",
        "",
        "Each experiment re-asserts its paper bounds while running; a ✓ row",
        "means every assertion held on this machine, this run.",
        "",
        "| experiment | verdict | seconds |",
        "|---|---|---|",
    ]
    for o in outcomes:
        verdict = "✓ bounds held" if o.ok else f"✗ FAILED: {o.error}"
        lines.append(f"| {o.name} | {verdict} | {o.seconds:.2f} |")
    lines.append("")
    passed = sum(1 for o in outcomes if o.ok)
    lines.append(f"**{passed}/{len(outcomes)} experiments passed.**")
    lines.append("")
    for o in outcomes:
        if o.table is not None:
            lines.append(o.table.render_markdown())
            lines.append("")
    return "\n".join(lines)


def write_report(path: str = "REPORT.md", **kwargs) -> List[ExperimentOutcome]:
    """Run, render and write the report; returns the outcomes."""
    outcomes = run_full_report(**kwargs)
    with open(path, "w") as fh:
        fh.write(render_report(outcomes))
    return outcomes
