"""Property-based tests for the extension modules: budget-EDF,
classify-and-select and serialisation round-trips."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.budget_edf import budget_edf, budget_edf_simulate
from repro.core.classify import classify_and_select, classify_jobs
from repro.scheduling.edf import edf_feasible, edf_schedule
from repro.scheduling.io import (
    jobset_from_dict,
    jobset_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.scheduling.verify import verify_schedule
from tests.strategies import jobsets as _shared_jobsets


def jobsets(max_jobs: int = 8):
    """This suite's historical distribution: wider windows, smaller values."""
    return _shared_jobsets(
        max_jobs=max_jobs, max_release=25, max_length=8, max_slack=12, max_value=20
    )


# -- budget-EDF ----------------------------------------------------------------


@given(jobsets(), st.integers(min_value=0, max_value=3))
def test_budget_edf_output_is_k_feasible(jobs, k):
    s = budget_edf(jobs, k)
    verify_schedule(s, k=k).assert_ok()


@given(jobsets(), st.integers(min_value=0, max_value=3))
def test_budget_edf_never_beats_total(jobs, k):
    s = budget_edf(jobs, k)
    assert s.value <= jobs.total_value


@given(jobsets())
def test_budget_edf_large_k_matches_edf_on_feasible_sets(jobs):
    if edf_feasible(jobs):
        s, missed = budget_edf_simulate(jobs, k=jobs.n + 5)
        # With an effectively unlimited budget the simulator IS plain EDF.
        assert missed == []
        assert s.value == jobs.total_value


@given(jobsets())
def test_budget_edf_simulate_schedule_always_verifies(jobs):
    s, _missed = budget_edf_simulate(jobs, 1)
    verify_schedule(s, k=1).assert_ok()


# -- classify-and-select ---------------------------------------------------------


@given(jobsets(), st.sampled_from(["length", "value", "density"]))
def test_classify_partition_properties(jobs, key):
    classes = classify_jobs(jobs, key, 2)
    ids = sorted(i for js in classes.values() for i in js.ids)
    assert ids == jobs.ids
    from repro.core.classify import CLASS_KEYS

    extract = CLASS_KEYS[key]
    for js in classes.values():
        vals = [extract(j) for j in js]
        assert max(vals) / min(vals) <= 2 + 1e-6


@given(jobsets(), st.sampled_from(["length", "value", "density"]),
       st.integers(min_value=0, max_value=2))
def test_classify_and_select_feasible(jobs, key, k):
    s = classify_and_select(jobs, k, key=key)
    verify_schedule(s, k=k).assert_ok()


# -- serialisation ----------------------------------------------------------------


@given(jobsets())
def test_jobset_json_roundtrip(jobs):
    back = jobset_from_dict(jobset_to_dict(jobs))
    assert back.ids == jobs.ids
    for a, b in zip(jobs, back):
        assert (a.release, a.deadline, a.length, a.value) == (
            b.release, b.deadline, b.length, b.value,
        )


@given(jobsets())
def test_schedule_json_roundtrip(jobs):
    if not edf_feasible(jobs):
        return
    sched = edf_schedule(jobs).schedule
    back = schedule_from_dict(schedule_to_dict(sched))
    assert back.scheduled_ids == sched.scheduled_ids
    for i in sched.scheduled_ids:
        assert back[i] == sched[i]
