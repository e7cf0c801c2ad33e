"""JSON-config-driven sweeps: ``repro-bench sweep config.json``.

Reproduction studies outgrow hard-coded experiment parameters; this module
lets a study live in a checked-in JSON file::

    {
      "cell": "price_mixed",
      "axes": {"n": [20, 40], "k": [1, 2]},
      "repeats": 3,
      "seed": 7
    }

``cell`` names a registered measurement function (below); ``axes`` spans
the grid; results print as a table (and are returned structurally for
tests).  Cells receive an independent RNG per repetition via the sweep
harness, so adding axes or repeats never perturbs existing cells.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.analysis.sweep import Sweep, SweepResult, run_sweep
from repro.analysis.tables import Table

CellFunction = Callable[..., Mapping[str, float]]

#: Registered measurement cells (name -> callable taking rng + axis params).
CELL_REGISTRY: Dict[str, CellFunction] = {}

#: The keys a sweep config may carry; anything else is a typo to reject.
CONFIG_KEYS = frozenset({"cell", "axes", "repeats", "seed", "workers"})


def register_cell(name: str) -> Callable[[CellFunction], CellFunction]:
    """Decorator adding a measurement function to the registry."""

    def deco(fn: CellFunction) -> CellFunction:
        if name in CELL_REGISTRY:
            raise ValueError(f"cell {name!r} already registered")
        CELL_REGISTRY[name] = fn
        return fn

    return deco


@register_cell("price_mixed")
def _price_mixed(rng, n: int = 30, k: int = 2) -> Mapping[str, float]:
    """Realised price of the pipeline on a mixed-server workload."""
    from repro.core.combined import schedule_k_bounded
    from repro.instances.workloads import mixed_server_workload
    from repro.scheduling.edf import edf_accept_max_subset

    jobs = mixed_server_workload(int(n), seed=rng)
    opt = edf_accept_max_subset(jobs)
    alg = schedule_k_bounded(jobs, int(k), exact_opt=False)
    return {"price": float(opt.value) / float(alg.value), "alg_value": float(alg.value)}


@register_cell("bas_loss_random")
def _bas_loss_random(rng, n: int = 200, k: int = 2, shape: str = "attachment") -> Mapping[str, float]:
    """TM loss factor on a random forest."""
    from repro.core.bas.tm import tm_optimal_value
    from repro.instances.random_trees import random_forest

    forest = random_forest(int(n), shape=shape, seed=rng)
    return {"loss": float(forest.total_value) / float(tm_optimal_value(forest, int(k)))}


@register_cell("k0_price_random")
def _k0_price_random(rng, n: int = 30, P: float = 16.0) -> Mapping[str, float]:
    """k = 0 realised price on random instances with controlled P."""
    from repro.core.nonpreemptive import nonpreemptive_combined
    from repro.instances.random_jobs import random_jobs
    from repro.scheduling.edf import edf_accept_max_subset

    jobs = random_jobs(
        int(n), horizon=20.0 * float(P) ** 0.5, length_range=(1.0, float(P)),
        laxity_range=(2.0, 5.0), seed=rng,
    )
    opt = edf_accept_max_subset(jobs)
    alg = nonpreemptive_combined(jobs)
    return {"price": float(opt.value) / float(alg.value)}


@register_cell("budget_vs_pipeline")
def _budget_vs_pipeline(rng, n: int = 30, k: int = 2) -> Mapping[str, float]:
    """Budget-EDF vs the pipeline on one workload draw."""
    from repro.core.budget_edf import budget_edf
    from repro.core.combined import schedule_k_bounded
    from repro.instances.workloads import mixed_server_workload

    jobs = mixed_server_workload(int(n), seed=rng)
    return {
        "pipeline": float(schedule_k_bounded(jobs, int(k), exact_opt=False).value),
        "budget_edf": float(budget_edf(jobs, int(k)).value),
    }


def load_config(path_or_dict) -> Dict[str, Any]:
    """Load and validate a sweep config from a path or an already-parsed dict."""
    if isinstance(path_or_dict, (str, bytes)) or hasattr(path_or_dict, "__fspath__"):
        with open(path_or_dict) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{os.fsdecode(path_or_dict)}: invalid JSON: {exc}") from exc
        if not isinstance(config, dict):
            raise ValueError(f"config must be a JSON object, got {type(config).__name__}")
    else:
        config = dict(path_or_dict)
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; allowed: {sorted(CONFIG_KEYS)}")
    if "cell" not in config:
        raise ValueError("config needs a 'cell' key naming a registered cell")
    if config["cell"] not in CELL_REGISTRY:
        raise ValueError(
            f"unknown cell {config['cell']!r}; registered: {sorted(CELL_REGISTRY)}"
        )
    axes = config.setdefault("axes", {})
    if not isinstance(axes, dict) or not all(isinstance(v, list) for v in axes.values()):
        raise ValueError("'axes' must map parameter names to value lists")
    for key, default, least in (("repeats", 1, 1), ("seed", 0, 0), ("workers", 1, 1)):
        value = config.setdefault(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{key!r} must be >= {least}, got {value}")
    return config


def run_config(path_or_dict, *, workers: Optional[int] = None) -> Table:
    """Execute a sweep config and render its results as a table.

    ``workers`` overrides the config's own ``"workers"`` key (the CLI's
    ``--workers`` flag lands here).  Results are bit-identical across
    worker counts — see :func:`repro.analysis.sweep.run_sweep`.
    """
    config = load_config(path_or_dict)
    cell = CELL_REGISTRY[config["cell"]]
    sweep = Sweep(axes=config["axes"], repeats=int(config["repeats"]))
    if workers is None:
        workers = int(config["workers"])
    results: List[SweepResult] = run_sweep(
        sweep, cell, seed=int(config["seed"]), workers=workers
    )

    axis_names = list(config["axes"])
    metric_names = sorted(
        {m for r in results for m in r.metrics if not m.endswith("_max")}
    )
    table = Table(
        title=f"sweep: {config['cell']} "
        f"(repeats={config['repeats']}, seed={config['seed']})",
        columns=axis_names + metric_names + [f"{m} (worst)" for m in metric_names],
    )
    for r in results:
        row = [r.params[a] for a in axis_names]
        row += [r.metrics[m] for m in metric_names]
        row += [r.metrics[f"{m}_max"] for m in metric_names]
        table.add_row(*row)
    return table
