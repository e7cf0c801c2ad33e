"""Instance generators.

* :mod:`repro.instances.lower_bounds` — the paper's three worst-case
  families (Figure 2, Appendix A, Appendix B) with their analytic optima;
* :mod:`repro.instances.random_trees` — random forests for the k-BAS
  upper-bound experiments;
* :mod:`repro.instances.random_jobs` — random job sets with controlled
  laxity, length spread and value models;
* :mod:`repro.instances.workloads` — the three synthetic "motivation"
  workloads used by the examples (real-time control, batch analytics,
  mixed server).
"""

from repro.instances.lower_bounds import (
    geometric_chain,
    geometric_chain_one_preemption_schedule,
    appendix_a_forest,
    appendix_b_jobs,
    AppendixBInstance,
    replicate_for_machines,
)
from repro.instances.random_trees import (
    random_forest,
    random_attachment_tree,
    preferential_attachment_tree,
    caterpillar,
    random_values,
)
from repro.instances.random_jobs import (
    random_jobs,
    random_integral_jobs,
    random_lax_jobs,
    random_strict_jobs,
    laminar_job_chain,
)
from repro.instances.workloads import (
    realtime_control_workload,
    batch_analytics_workload,
    mixed_server_workload,
)
from repro.instances.adversarial import (
    dhall_instance,
    anti_budget_edf,
    anti_density_greedy,
)
from repro.instances.periodic import (
    PeriodicTask,
    uunifast,
    random_task_set,
    hyperperiod,
    total_utilization,
    unroll,
)

__all__ = [
    "geometric_chain",
    "geometric_chain_one_preemption_schedule",
    "appendix_a_forest",
    "appendix_b_jobs",
    "AppendixBInstance",
    "replicate_for_machines",
    "random_forest",
    "random_attachment_tree",
    "preferential_attachment_tree",
    "caterpillar",
    "random_values",
    "random_jobs",
    "random_integral_jobs",
    "random_lax_jobs",
    "random_strict_jobs",
    "laminar_job_chain",
    "realtime_control_workload",
    "batch_analytics_workload",
    "mixed_server_workload",
    "dhall_instance",
    "anti_budget_edf",
    "anti_density_greedy",
    "PeriodicTask",
    "uunifast",
    "random_task_set",
    "hyperperiod",
    "total_utilization",
    "unroll",
]
