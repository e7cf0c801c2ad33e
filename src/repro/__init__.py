"""repro — an executable reproduction of *The Price of Bounded Preemption*
(Noga Alon, Yossi Azar, Mark Berlin; SPAA 2018).

The library implements, from scratch:

* the real-time throughput scheduling substrate (jobs, segments, feasible
  schedules, EDF, exact optimal solvers, classical baselines);
* the paper's core contribution — optimal **k-BAS** computation (procedure
  TM), the **LevelledContraction** analysis algorithm, the schedule⇄forest
  reduction, **LSA / LSA_CS** for lax jobs, the combined algorithm, and the
  k = 0 special case;
* every lower-bound construction (Figure 2, Appendix A, Appendix B) with
  its analytic optimum;
* generators, sweeps and table rendering for the full experiment suite
  (see DESIGN.md / EXPERIMENTS.md).

Quickstart::

    from repro import make_jobs, schedule_k_bounded, verify_schedule

    jobs = make_jobs([(0, 10, 4, 5.0), (1, 6, 3, 4.0), (2, 9, 2, 2.0)])
    sched = schedule_k_bounded(jobs, k=1)
    verify_schedule(sched, k=1).assert_ok()
    print(sched.value)
"""

from repro.scheduling import (
    Job,
    JobSet,
    Segment,
    Schedule,
    MultiMachineSchedule,
    Timeline,
    edf_schedule,
    edf_feasible,
    edf_accept_max_subset,
    is_laminar,
    laminarize,
    opt_infty_exact,
    opt_k_exact_small,
    verify_schedule,
    verify_multimachine,
)
from repro.scheduling.job import make_jobs
from repro.core import (
    Forest,
    SubForest,
    tm_optimal_bas,
    levelled_contraction,
    verify_bas,
    bas_loss_bound,
    schedule_to_forest,
    forest_to_schedule,
    reduce_schedule_to_k_preemptive,
    lsa,
    lsa_cs,
    k_preemption_combined,
    schedule_k_bounded,
    nonpreemptive_lsa_cs,
    nonpreemptive_combined,
    iterated_assignment,
    multimachine_k_bounded,
    measured_price,
    price_bound_n,
    price_bound_P,
    price_bound_k0,
)
from repro.core.pricing import PriceMeasurement
from repro.api import SolveResult, price_of_bounded_preemption, request_key, solve_k_bounded
from repro.obs import JsonlSink, MemorySink, Tracer, TreeSink
from repro.serve import SolverService

__version__ = "1.1.0"

__all__ = [
    "Job",
    "JobSet",
    "make_jobs",
    "Segment",
    "Schedule",
    "MultiMachineSchedule",
    "Timeline",
    "edf_schedule",
    "edf_feasible",
    "edf_accept_max_subset",
    "is_laminar",
    "laminarize",
    "opt_infty_exact",
    "opt_k_exact_small",
    "verify_schedule",
    "verify_multimachine",
    "Forest",
    "SubForest",
    "tm_optimal_bas",
    "levelled_contraction",
    "verify_bas",
    "bas_loss_bound",
    "schedule_to_forest",
    "forest_to_schedule",
    "reduce_schedule_to_k_preemptive",
    "lsa",
    "lsa_cs",
    "k_preemption_combined",
    "schedule_k_bounded",
    "nonpreemptive_lsa_cs",
    "nonpreemptive_combined",
    "iterated_assignment",
    "multimachine_k_bounded",
    "measured_price",
    "price_bound_n",
    "price_bound_P",
    "price_bound_k0",
    "SolveResult",
    "PriceMeasurement",
    "request_key",
    "solve_k_bounded",
    "price_of_bounded_preemption",
    "SolverService",
    "Tracer",
    "MemorySink",
    "JsonlSink",
    "TreeSink",
    "__version__",
]
