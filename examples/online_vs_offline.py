#!/usr/bin/env python
"""Online policies vs the offline k-bounded pipeline: the preemption bill.

The paper's motivation in one experiment: an online scheduler that may
preempt freely (admission-EDF, value-abort EDF — the §1.4 online setting)
captures nearly all value but charges an unbounded number of context
switches to individual jobs.  Capping preemptions at k costs value — and
the paper's theorems say exactly how much, in the worst case.

This example sweeps k and prints, side by side:

* the two online policies' value and worst per-job preemption count;
* the offline pipeline's value at each k (budget never exceeded);
* the theorem floor the pipeline is guaranteed to clear.

Run: ``python examples/online_vs_offline.py``
"""

import math

from repro import verify_schedule
from repro.analysis.tables import Table
from repro.core.combined import schedule_k_bounded
from repro.core.nonpreemptive import nonpreemptive_combined
from repro.instances.workloads import mixed_server_workload
from repro.scheduling.edf import edf_accept_max_subset
from repro.scheduling.online import online_edf_admission, online_value_abort


def main() -> None:
    jobs = mixed_server_workload(50, seed=29)
    opt = edf_accept_max_subset(jobs)
    print(f"workload: n={jobs.n}, P={float(jobs.length_ratio):.1f}; "
          f"offline OPT_∞ estimate = {float(opt.value):.1f}\n")

    table = Table(
        title="Value vs preemption budget",
        columns=["scheduler", "value", "share of OPT_∞", "max preemptions", "floor"],
    )

    for name, policy in [
        ("online admission-EDF", online_edf_admission),
        ("online value-abort EDF", online_value_abort),
    ]:
        sched = policy(jobs)
        verify_schedule(sched).assert_ok()
        table.add_row(
            name, round(sched.value, 1), sched.value / opt.value,
            sched.max_preemptions, float("nan"),
        )

    for k in (0, 1, 2, 4):
        if k == 0:
            sched = nonpreemptive_combined(jobs)
            floor = 1.0 / min(jobs.n, 3 * max(1.0, math.log2(jobs.length_ratio)))
        else:
            sched = schedule_k_bounded(jobs, k, exact_opt=False)
            floor = 1.0 / (2 * 6 * max(1.0, math.log(jobs.length_ratio) / math.log(k + 1)))
        verify_schedule(sched, k=k).assert_ok()
        assert sched.value / opt.value >= floor - 1e-9
        table.add_row(
            f"offline pipeline k={k}", round(sched.value, 1),
            sched.value / opt.value, sched.max_preemptions, floor,
        )

    table.add_note("floor = the theorem guarantee relative to OPT_∞; '-' = no bound exists")
    print(table.render())


if __name__ == "__main__":
    main()
