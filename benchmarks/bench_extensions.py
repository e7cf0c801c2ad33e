"""E11 — extensions: §1.4 classification axes and heuristic baselines.

Times the generic classify-and-select combinator over the three axes
(length/value/density) and the budget-EDF heuristic, and regenerates the
comparison table whose headline shape is: heuristics are competitive on
benign mixes but collapse on the Appendix-B adversarial family where only
the pipeline carries a bound.
"""

import pytest

from benchmarks.conftest import emit
from repro.analysis.experiments import e11_extensions
from repro.core.budget_edf import budget_edf
from repro.core.classify import classify_and_select
from repro.instances.lower_bounds import appendix_b_jobs
from repro.instances.workloads import mixed_server_workload


@pytest.fixture(scope="module")
def workload():
    return mixed_server_workload(40, seed=23)


@pytest.mark.parametrize("key", ["length", "value", "density"])
def test_bench_classify_axes(benchmark, workload, key):
    s = benchmark(classify_and_select, workload, 2, key=key)
    assert s.max_preemptions <= 2
    assert s.value > 0


def test_bench_budget_edf(benchmark, workload):
    s = benchmark(budget_edf, workload, 2)
    assert s.max_preemptions <= 2


def test_bench_e12_table(benchmark):
    from repro.analysis.experiments import e12_strict_windows

    table = benchmark.pedantic(e12_strict_windows, rounds=1, iterations=1)
    emit(table, "e12_strict_windows")
    # Shape: layer counts within the log_{k+1}(P·λmax) bound, kept ratios
    # above the Lemma 4.6 floor, window growth well past k+1.
    for L, bound in zip(table.column("layers L"), table.column("bound log_{k+1}(P·λmax)")):
        assert L <= bound + 1
    for kept, floor in zip(table.column("kept ratio"), table.column("floor 1/log_{k+1} P")):
        assert kept >= floor - 1e-9


def test_bench_e13_table(benchmark):
    from repro.analysis.experiments import e13_charging_argument

    table = benchmark.pedantic(
        e13_charging_argument, kwargs=dict(k_values=(1, 2), n=60, repeats=2),
        rounds=1, iterations=1,
    )
    emit(table, "e13_charging_argument")
    # Shape: every proof-step check passes and rejected loads clear b0.
    assert all(table.column("busy-floor ok"))
    assert all(table.column("cover ok"))
    assert all(table.column("parity disjoint"))
    loads = [x for x in table.column("min rejected load") if x == x]
    floors = [x for x in table.column("b0 floor") if x == x]
    assert all(l >= f - 1e-9 for l, f in zip(loads, floors))


def test_bench_e11_table(benchmark):
    table = benchmark.pedantic(
        e11_extensions, kwargs=dict(k=2, n=30, repeats=2), rounds=1, iterations=1
    )
    emit(table, "e11_extensions")
    rows = {(r[0], r[1]): r[4] for r in table.rows}
    # Shape: on the adversarial family the pipeline's share strictly beats
    # every unbounded-loss competitor.
    adv = "appendix-B (adversarial)"
    pipeline = rows[(adv, "pipeline (Alg 3)")]
    for method in ("classify value (log rho)", "classify density (log sigma)",
                   "budget-EDF (no bound)"):
        assert pipeline >= rows[(adv, method)] - 1e-9
