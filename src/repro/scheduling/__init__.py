"""Scheduling substrate: jobs, segments, schedules, timelines, EDF, exact
solvers and feasibility verification.

This package implements everything the paper takes for granted about
real-time throughput scheduling on one machine (Section 2) plus the
classical results it builds on: the preemptive EDF feasibility test, the
laminar rearrangement of Figure 1, exact optimal solvers used as the
"adversary" OPT, and the cited non-preemptive baselines (Moore–Hodgson,
Lawler–Moore).
"""

from repro.scheduling.job import Job, JobSet
from repro.scheduling.segment import Segment, merge_touching, total_length
from repro.scheduling.schedule import Schedule, MultiMachineSchedule
from repro.scheduling.timeline import Timeline
from repro.scheduling.edf import edf_schedule, edf_feasible, edf_accept_max_subset
from repro.scheduling.laminar import is_laminar, laminarize, laminarize_local
from repro.scheduling.exact import (
    opt_infty_exact,
    opt_infty_value,
    opt_k_exact_small,
    k_feasible_subset_small,
)
from repro.scheduling.lawler import (
    moore_hodgson,
    lawler_moore_weighted,
    greedy_nonpreemptive,
)
from repro.scheduling.unit_jobs import unit_jobs_optimal, unit_jobs_optimal_value
from repro.scheduling.lawler_dp import (
    lawler_optimal_value,
    lawler_optimal_schedule,
    demand_bound_feasible,
)
from repro.scheduling.verify import (
    FeasibilityReport,
    verify_schedule,
    verify_multimachine,
)

__all__ = [
    "Job",
    "JobSet",
    "Segment",
    "merge_touching",
    "total_length",
    "Schedule",
    "MultiMachineSchedule",
    "Timeline",
    "edf_schedule",
    "edf_feasible",
    "edf_accept_max_subset",
    "is_laminar",
    "laminarize",
    "laminarize_local",
    "opt_infty_exact",
    "opt_infty_value",
    "opt_k_exact_small",
    "k_feasible_subset_small",
    "moore_hodgson",
    "lawler_moore_weighted",
    "greedy_nonpreemptive",
    "unit_jobs_optimal",
    "unit_jobs_optimal_value",
    "lawler_optimal_value",
    "lawler_optimal_schedule",
    "demand_bound_feasible",
    "FeasibilityReport",
    "verify_schedule",
    "verify_multimachine",
]
