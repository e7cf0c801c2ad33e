#!/usr/bin/env python
"""Mixed interactive/batch server on multiple machines.

A server mix pits the two branches of Algorithm 3 against each other:
interactive requests are short and strict (reduction branch), background
jobs are long and lax (LSA_CS branch).  This example

* shows the strict/lax split and which branch wins at each k, and
* scales the fleet from 1 to 4 non-migrative machines via iterated
  assignment (§4.3.4), showing value captured per machine count.

Run: ``python examples/mixed_server_multimachine.py``
"""

from repro import verify_multimachine
from repro.analysis.tables import Table
from repro.core.combined import k_preemption_combined
from repro.core.multimachine import multimachine_k_bounded, multimachine_opt_infty
from repro.instances.workloads import mixed_server_workload
from repro.scheduling.edf import edf_accept_max_subset


def main() -> None:
    jobs = mixed_server_workload(60, seed=4)
    print(f"workload: n={jobs.n}, P={float(jobs.length_ratio):.1f}, "
          f"total value={float(jobs.total_value):.1f}")

    # --- single machine: which branch of Algorithm 3 wins? -----------------
    opt = edf_accept_max_subset(jobs)
    print(f"single-machine OPT_∞ estimate: {float(opt.value):.1f}\n")

    branches = Table(
        title="Algorithm 3 branch anatomy (single machine)",
        columns=["k", "strict jobs", "lax jobs", "strict value", "lax value", "winner"],
    )
    for k in (1, 2, 4):
        res = k_preemption_combined(jobs, opt, k)
        winner = "strict" if res.schedule.value == res.strict_schedule.value else "lax"
        branches.add_row(
            k, res.strict_jobs.n, res.lax_jobs.n,
            round(res.strict_schedule.value, 1), round(res.lax_schedule.value, 1),
            winner,
        )
    print(branches.render())

    # --- machine scaling ----------------------------------------------------
    fleet = Table(
        title="Fleet scaling (k = 2, non-migrative iterated assignment)",
        columns=["machines", "OPT_∞ (iterated)", "ALG value", "share", "jobs placed"],
    )
    for m in (1, 2, 3, 4):
        opt_m = multimachine_opt_infty(jobs, machines=m)
        alg_m = multimachine_k_bounded(jobs, k=2, machines=m)
        verify_multimachine(alg_m, k=2).assert_ok()
        fleet.add_row(
            m, round(opt_m.value, 1), round(alg_m.value, 1),
            alg_m.value / opt_m.value, len(alg_m.scheduled_ids),
        )
    fleet.add_note("each machine runs the full single-machine pipeline on the residue")
    print()
    print(fleet.render())


if __name__ == "__main__":
    main()
