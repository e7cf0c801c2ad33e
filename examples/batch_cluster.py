#!/usr/bin/env python
"""Batch-analytics cluster: how much throughput does limiting context
switches cost?

The paper's motivation (§1.2) is that preemption has a real price — a
context switch on a data-crunching node costs cache state and scheduler
work — so operators cap per-job preemptions.  This example quantifies the
trade on a heavy-tailed batch workload (lengths spanning ~2 orders of
magnitude, generous deadlines — the *lax* regime where LSA_CS operates):

* sweep the budget k from 0 to 8,
* schedule with the paper's algorithms at each k,
* report kept value, its share of the unbounded optimum, and the theorem
  ceiling ``6·log_{k+1} P`` it is guaranteed to beat.

Run: ``python examples/batch_cluster.py``
"""

import math

from repro import verify_schedule
from repro.analysis.tables import Table
from repro.core.combined import schedule_k_bounded
from repro.core.nonpreemptive import nonpreemptive_combined
from repro.instances.workloads import batch_analytics_workload
from repro.scheduling.edf import edf_accept_max_subset, edf_feasible, edf_schedule


def main() -> None:
    jobs = batch_analytics_workload(80, horizon=2000.0, seed=2018)
    P = jobs.length_ratio
    print(f"workload: n={jobs.n}, P={float(P):.1f}, total value={float(jobs.total_value):.1f}")

    if edf_feasible(jobs):
        opt = edf_schedule(jobs).schedule
        print("OPT_∞: the whole workload fits with unlimited preemption")
    else:
        opt = edf_accept_max_subset(jobs)
        print("OPT_∞ estimate: greedy EDF admission (set is overloaded)")
    print(f"OPT_∞ value: {float(opt.value):.1f}\n")

    table = Table(
        title="Throughput kept vs preemption budget",
        columns=["k", "value", "share of OPT_∞", "guarantee 1/(2·6·log_{k+1}P)"],
    )
    for k in (0, 1, 2, 4, 8):
        if k == 0:
            sched = nonpreemptive_combined(jobs)
            guarantee = 1.0 / (3 * max(1.0, math.log2(P)))
        else:
            sched = schedule_k_bounded(jobs, k, exact_opt=False)
            guarantee = 1.0 / (2 * 6 * max(1.0, math.log(P) / math.log(k + 1)))
        verify_schedule(sched, k=k).assert_ok()
        table.add_row(k, round(sched.value, 1), sched.value / opt.value, guarantee)
    table.add_note(
        "share always clears the guarantee by a wide margin on non-adversarial "
        "workloads; the guarantee is the paper's worst-case floor"
    )
    print(table.render())


if __name__ == "__main__":
    main()
