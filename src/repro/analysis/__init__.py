"""Analysis layer: metrics, sweeps, table rendering and the experiment
entry points (E1–E17 of DESIGN.md).

The benchmark files under ``benchmarks/`` and the CLI both call into
:mod:`repro.analysis.experiments`; each experiment returns a
:class:`~repro.analysis.tables.Table` so the same rows are printed,
benchmarked and recorded in EXPERIMENTS.md.
"""

from repro.analysis.tables import Table
from repro.analysis.metrics import (
    loss_factor,
    realized_price,
    series_slope_vs_log,
)
from repro.analysis.sweep import Sweep, SweepResult, run_sweep

__all__ = [
    "Table",
    "loss_factor",
    "realized_price",
    "series_slope_vs_log",
    "Sweep",
    "SweepResult",
    "run_sweep",
]
