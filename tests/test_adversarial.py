"""Tests for the adversarial instances: each must defeat its target
baseline while the principled algorithm survives."""

import pytest

from repro.core.budget_edf import budget_edf
from repro.core.combined import schedule_k_bounded
from repro.instances.adversarial import anti_budget_edf, dhall_instance
from repro.scheduling.edf import edf_feasible, edf_schedule
from repro.scheduling.verify import verify_schedule


class TestDhall:
    @pytest.mark.parametrize("m", [2, 3])
    def test_partitioned_succeeds(self, m):
        jobs = dhall_instance(m)
        heavy_id = max(jobs.ids)
        # Dedicate one machine to the heavy job, the rest take the light ones.
        assert edf_feasible(jobs.subset([heavy_id]))
        light = jobs.without([heavy_id])
        # The light jobs all fit on m-1 machines: each machine takes at most
        # two back-to-back (window 4ε holds two 2ε jobs).
        per_machine = 2
        assert light.n <= (m - 1) * per_machine

    def test_validation(self):
        with pytest.raises(ValueError):
            dhall_instance(1)


class TestAntiBudgetEdf:
    def test_pipeline_beats_heuristic_at_k2(self):
        jobs = anti_budget_edf(2)
        b = budget_edf(jobs, 2)
        p = schedule_k_bounded(jobs, 2)
        verify_schedule(b, k=2).assert_ok()
        verify_schedule(p, k=2).assert_ok()
        assert p.value > b.value

    def test_whole_set_preemptively_feasible(self):
        for k in (1, 2, 3):
            jobs = anti_budget_edf(k)
            assert edf_feasible(jobs)

    def test_unbounded_edf_needs_many_preemptions(self):
        jobs = anti_budget_edf(3)
        sched = edf_schedule(jobs).schedule
        # The long job is preempted by every arrival.
        assert sched.preemptions(0) == 6

    def test_validation(self):
        with pytest.raises(ValueError):
            anti_budget_edf(0)
