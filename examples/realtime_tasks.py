#!/usr/bin/env python
"""Real-time control tasks through the k-BAS reduction, step by step.

Tight-laxity (strict) jobs are the regime where the paper's schedule-forest
reduction does the work: an optimal ∞-preemptive schedule is laminarised
(Figure 1), read as a forest (§4.1), pruned to an optimal k-BAS (procedure
TM, §3.2), and compacted back into a k-bounded schedule (Lemma 4.1).

This example makes every intermediate visible on a quasi-periodic control
workload: the forest's shape, the DP's t/m aggregates at the roots, the
retained job set, and the final schedule's preemption counts.

Run: ``python examples/realtime_tasks.py``
"""

from repro import verify_schedule
from repro.core.bas.tm import tm_optimal_bas, tm_values
from repro.core.reduction import forest_to_schedule, schedule_to_forest
from repro.instances.workloads import realtime_control_workload
from repro.scheduling.edf import edf_accept_max_subset
from repro.scheduling.laminar import is_laminar


def main() -> None:
    jobs = realtime_control_workload(18, period=8.0, seed=7)
    print(f"workload: n={jobs.n}, λ_max={float(jobs.lambda_max):.2f} (all strict for k=1)")

    # Step 1: a strong ∞-preemptive schedule (greedy EDF admission).
    opt = edf_accept_max_subset(jobs)
    print(f"∞-preemptive schedule: {len(opt)} jobs, value {float(opt.value):.1f}, "
          f"max preemptions {opt.max_preemptions}")
    assert is_laminar(opt), "EDF schedules are laminar — no Fig. 1 pass needed"

    # Step 2: the schedule forest.
    forest, node_to_job = schedule_to_forest(opt)
    print(f"\nschedule forest: {forest.n} nodes, {len(forest.roots)} roots, "
          f"max degree {forest.max_degree}")
    depths = forest.depths()
    print(f"preemption nesting depth: {max(depths)}")

    # Step 3: the TM dynamic program.
    for k in (1, 2):
        t, m = tm_values(forest, k)
        bas = tm_optimal_bas(forest, k)
        kept_jobs = sorted(node_to_job[v] for v in bas.retained)
        print(f"\nk={k}: optimal k-BAS keeps {len(bas)}/{forest.n} jobs "
              f"(value {float(bas.value):.1f} of {float(forest.total_value):.1f})")
        for r in forest.roots[:3]:
            print(f"  root node {r} (job {node_to_job[r]}): "
                  f"t={float(t[r]):.1f}, m={float(m[r]):.1f} → "
                  f"{'retain' if t[r] >= m[r] else 'prune up'}")

        # Step 4: compaction back to a schedule.
        sched = forest_to_schedule(opt, node_to_job, bas)
        verify_schedule(sched, k=k).assert_ok()
        print(f"  final schedule: value {float(sched.value):.1f}, "
              f"max preemptions {sched.max_preemptions} (budget {k})")
        assert abs(sched.value - bas.value) < 1e-9 * max(1.0, bas.value)


if __name__ == "__main__":
    main()
