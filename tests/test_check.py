"""Tests for the differential correctness engine (:mod:`repro.check`).

Three layers:

* unit tests for the parts — case generation/serialisation, the theorem
  invariants, the shrinker, the fault-injection switchboard;
* the *engine-fires* acceptance: with a deliberately broken TM kernel
  (the ``tm.loop.topk-order`` fault) the fuzz engine catches the bug,
  shrinks it to a ≤ 6-job counterexample, and the saved JSON replays;
* the *clean-smoke* acceptance: ``repro fuzz --smoke --seed 0`` pushes
  200 instances through every registered oracle pair with zero
  disagreements inside the CI time budget.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.check import (
    DOMAINS,
    ORACLES,
    Case,
    case_from_dict,
    case_to_dict,
    generate_case,
    get_oracle,
    oracles_for_domain,
    replay_counterexample,
    run_fuzz,
    shrink_case,
)
from repro.check.cases import has_fractional_coordinates
from repro.check.invariants import (
    assert_invariant,
    check_opt_monotone_in_k,
    check_opt_monotone_in_machines,
    check_pobp0_geometric_chain,
    check_segment_budget,
)
from repro.core.combined import schedule_k_bounded
from repro.scheduling.job import Job, JobSet
from repro.utils import faults
from repro.utils.rng import spawn_rngs


# ---------------------------------------------------------------------------
# cases: generation and serialisation
# ---------------------------------------------------------------------------


class TestCases:
    def test_registry_covers_every_domain(self):
        for domain in DOMAINS:
            assert oracles_for_domain(domain), f"no oracles for domain {domain}"
        assert len(ORACLES) >= 10

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_generation_is_seed_deterministic(self, domain):
        a = generate_case(domain, spawn_rngs(42, 1)[0])
        b = generate_case(domain, spawn_rngs(42, 1)[0])
        assert case_to_dict(a) == case_to_dict(b)

    @pytest.mark.parametrize("domain", DOMAINS)
    def test_dict_roundtrip(self, domain):
        case = generate_case(domain, spawn_rngs(0, 1)[0])
        back = case_from_dict(json.loads(json.dumps(case_to_dict(case))))
        assert case_to_dict(back) == case_to_dict(case)
        assert back.describe() == case.describe()

    def test_jobs_cases_mix_integer_and_decimal_coordinates(self):
        fractional = 0
        for rng in spawn_rngs(3, 40):
            case = generate_case("jobs", rng)
            for j in case.payload:
                assert type(j.value) is int
                assert j.length >= 1
                assert j.deadline - j.release >= j.length
            fractional += has_fractional_coordinates(case)
        assert 0 < fractional < 40

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="unknown domain"):
            generate_case("nonsense", np.random.default_rng(0))

    def test_unknown_oracle_rejected(self):
        with pytest.raises(KeyError, match="unknown oracle"):
            get_oracle("no-such-oracle")


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


class TestInvariants:
    def test_segment_budget_passes_on_pipeline_output(self):
        jobs = JobSet([Job(i, i, i + 12, 3, 1 + i) for i in range(5)])
        sched = schedule_k_bounded(jobs, 2)
        assert check_segment_budget(sched, 2) is None

    def test_segment_budget_catches_violation(self):
        jobs = JobSet([Job(0, 0, 12, 4, 5.0)])
        sched = schedule_k_bounded(jobs, 3)
        # A k = 3 schedule may legally use up to 4 segments; demanding
        # k = 0 must flag any preempted job.
        from repro.scheduling.schedule import Schedule, Segment

        fragmented = Schedule(jobs, {0: [Segment(0, 2), Segment(3, 5)]})
        assert check_segment_budget(fragmented, 0) is not None
        assert check_segment_budget(sched, 3) is None

    def test_opt_monotone_in_k_on_tiny_instance(self):
        jobs = JobSet([Job(0, 0, 4, 2, 3), Job(1, 1, 5, 2, 2), Job(2, 0, 6, 2, 4)])
        assert check_opt_monotone_in_k(jobs, ks=(0, 1, 2), max_slots=12) is None

    def test_opt_monotone_in_machines(self):
        jobs = JobSet([Job(i, 0, 6, 3, 2 + i) for i in range(4)])
        assert check_opt_monotone_in_machines(jobs, 1, machine_counts=(1, 2, 3)) is None

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_geometric_chain_price_within_bound(self, n):
        assert check_pobp0_geometric_chain(n) is None

    def test_assert_invariant_raises_on_detail(self):
        assert_invariant(None)  # passes silently
        with pytest.raises(AssertionError, match="boom"):
            assert_invariant("boom")


# ---------------------------------------------------------------------------
# fault switchboard
# ---------------------------------------------------------------------------


class TestFaults:
    def test_inactive_by_default(self):
        assert faults.active_faults() == frozenset()
        assert not faults.is_active("tm.loop.topk-order")

    def test_inject_arms_and_disarms(self):
        with faults.inject("tm.loop.topk-order"):
            assert faults.is_active("tm.loop.topk-order")
        assert not faults.is_active("tm.loop.topk-order")

    def test_disarms_on_exception(self):
        with pytest.raises(RuntimeError, match="boom"):
            with faults.inject("tm.loop.topk-order"):
                raise RuntimeError("boom")
        assert not faults.is_active("tm.loop.topk-order")

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            with faults.inject("no.such.fault"):
                pass

    def test_double_arm_rejected(self):
        with faults.inject("tm.loop.topk-order"):
            with pytest.raises(RuntimeError, match="already armed"):
                with faults.inject("tm.loop.topk-order"):
                    pass
        # The rejected inner arm must not have disarmed the outer one early.
        assert not faults.is_active("tm.loop.topk-order")


# ---------------------------------------------------------------------------
# shrinker
# ---------------------------------------------------------------------------


class TestShrink:
    def test_shrinks_jobs_to_minimal_failing_subset(self):
        # Predicate: "contains a job with value >= 10 and one with id 3" —
        # minimal witness has exactly the two trigger jobs.
        jobs = JobSet([Job(i, i, i + 6, 2, 12 if i == 1 else 2) for i in range(6)])
        case = Case("jobs", jobs, {"k": 1})

        def failing(c):
            ids = {j.id for j in c.payload}
            return any(j.value >= 10 for j in c.payload) and 3 in ids

        shrunk = shrink_case(case, failing)
        assert failing(shrunk)
        assert shrunk.payload.n == 2

    def test_shrink_simplifies_coordinates(self):
        jobs = JobSet([Job(0, 9, 20, 3, 50)])
        case = Case("jobs", jobs, {"k": 1})
        shrunk = shrink_case(case, lambda c: c.payload.n >= 1)
        job = list(shrunk.payload)[0]
        assert job.value == 1 and job.release == 0
        assert job.deadline - job.release == job.length

    def test_shrink_never_returns_nonfailing(self):
        jobs = JobSet([Job(i, 0, 8, 2, 5) for i in range(5)])
        case = Case("jobs", jobs, {"k": 1})
        shrunk = shrink_case(case, lambda c: c.payload.n >= 3)
        assert shrunk.payload.n == 3

    def test_shrink_forest_drops_subtrees(self):
        from repro.core.bas.forest import Forest

        forest = Forest([-1, 0, 0, 1, 1, 2, 2, -1, 7], [3] * 9)
        case = Case("forest", forest, {"k": 1})
        shrunk = shrink_case(case, lambda c: c.payload.n >= 2)
        assert shrunk.payload.n == 2

    def test_shrink_respects_eval_budget(self):
        jobs = JobSet([Job(i, 0, 8, 2, 5) for i in range(8)])
        case = Case("jobs", jobs, {"k": 1})
        evals = []

        def failing(c):
            evals.append(1)
            return True

        shrink_case(case, failing, max_evals=10)
        assert len(evals) <= 10


# ---------------------------------------------------------------------------
# the engine fires: broken kernel -> caught, shrunk, replayable
# ---------------------------------------------------------------------------


class TestEngineFires:
    def test_broken_tm_kernel_is_caught_and_shrunk(self, tmp_path):
        with faults.inject("tm.loop.topk-order"):
            report = run_fuzz(
                seed=0,
                instances=60,
                domains=("jobs",),
                oracle_names=["schedule-forest-tm-vs-milp"],
                out_dir=str(tmp_path),
                max_disagreements=1,
            )
            assert not report.ok, "the injected fault went undetected"
            d = report.disagreements[0]
            # The acceptance bar: a minimal counterexample of at most 6 jobs.
            assert d.shrunk.payload.n <= 6, (
                f"shrinker left {d.shrunk.payload.n} jobs: {d.shrunk.describe()}"
            )
            assert d.shrunk.payload.n <= d.case.payload.n
            assert d.path is not None
            # The saved JSON replays: still failing while the fault is armed...
            assert replay_counterexample(d.path) is not None
        # ...and heals once the kernel is fixed (fault disarmed).
        assert replay_counterexample(d.path) is None

    def test_forest_oracles_catch_broken_kernel_too(self, tmp_path):
        with faults.inject("tm.loop.topk-order"):
            report = run_fuzz(
                seed=1,
                instances=40,
                domains=("forest",),
                oracle_names=["tm-loop-vs-vectorized", "tm-vs-milp"],
                out_dir="",
                max_disagreements=3,
                static_invariants=False,
            )
        assert len(report.disagreements) == 3
        assert {d.oracle for d in report.disagreements} <= {
            "tm-loop-vs-vectorized",
            "tm-vs-milp",
        }

    def test_canonical_key_oracle_catches_a_drifted_tokenizer(self, monkeypatch):
        from repro.scheduling import job

        general = job._canonical_number
        monkeypatch.setattr(
            job, "_canonical_number", lambda x: f"{x}/1" if type(x) is int else general(x)
        )
        report = run_fuzz(
            seed=0,
            instances=5,
            domains=("jobs",),
            oracle_names=["canonical-key"],
            out_dir="",
            max_disagreements=1,
            static_invariants=False,
        )
        assert not report.ok
        assert "reference tokenizer" in report.disagreements[0].detail

    def test_counterexample_file_schema(self, tmp_path):
        with faults.inject("tm.loop.topk-order"):
            report = run_fuzz(
                seed=0,
                instances=60,
                domains=("jobs",),
                oracle_names=["schedule-forest-tm-vs-milp"],
                out_dir=str(tmp_path),
                max_disagreements=1,
            )
        payload = json.loads(open(report.disagreements[0].path).read())
        assert payload["schema"] == "repro-fuzz-counterexample/1"
        assert payload["oracle"] == "schedule-forest-tm-vs-milp"
        assert payload["seed"] == 0
        assert {"case", "original_case", "detail", "shrunk_detail"} <= set(payload)
        # The embedded case round-trips through the public loader.
        case = case_from_dict(payload["case"])
        assert case.domain == "jobs"

    def test_replay_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ValueError, match="unexpected schema"):
            replay_counterexample(str(bad))


# ---------------------------------------------------------------------------
# clean-code acceptance: smoke fuzz is green and fast
# ---------------------------------------------------------------------------


class TestCleanSmoke:
    def test_smoke_every_oracle_200_instances_no_disagreements(self):
        t0 = time.perf_counter()
        report = run_fuzz(seed=0, instances=200, out_dir="")
        elapsed = time.perf_counter() - t0
        assert report.ok, report.summary()
        assert set(report.oracle_runs) == set(ORACLES)
        assert all(runs >= 200 for runs in report.oracle_runs.values()), (
            report.oracle_runs
        )
        assert elapsed < 60, f"smoke fuzz took {elapsed:.1f}s, budget is 60s"
        # Every oracle also ran on decimal-coordinate instances; CI greps
        # this summary line.
        assert report.fractional_jobs_cases > 0
        assert (
            f"jobs cases with non-integer coordinates: {report.fractional_jobs_cases}"
            in report.summary()
        )

    def test_fuzz_is_seed_reproducible(self):
        a = run_fuzz(seed=5, instances=5, out_dir="", static_invariants=False)
        b = run_fuzz(seed=5, instances=5, out_dir="", static_invariants=False)
        assert a.ok and b.ok
        assert a.oracle_runs == b.oracle_runs and a.cases == b.cases


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _run(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_list_oracles(self, capsys):
        assert self._run("fuzz", "--list-oracles") == 0
        out = capsys.readouterr().out
        for name in ORACLES:
            assert name in out

    def test_small_fuzz_exits_zero(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert self._run("fuzz", "--seed", "0", "--instances", "3", "--out", "") == 0
        assert "no disagreements" in capsys.readouterr().out

    def test_injected_fault_exits_one_and_writes_repro(self, capsys, tmp_path):
        out_dir = tmp_path / "cex"
        rc = self._run(
            "fuzz", "--seed", "0", "--instances", "40",
            "--oracle", "schedule-forest-tm-vs-milp",
            "--inject-fault", "tm.loop.topk-order",
            "--out", str(out_dir),
        )
        assert rc == 1
        files = list(out_dir.glob("counterexample-*.json"))
        assert files
        # Replay through the CLI with the fault disarmed: fixed, exit 0.
        assert self._run("fuzz", "--replay", str(files[0])) == 0
        assert "no longer reproduces" in capsys.readouterr().out

    def test_fuzz_runs_under_subprocess_entrypoint(self, tmp_path):
        # The documented CI invocation, end to end (tiny budget).
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "fuzz", "--seed", "0",
             "--instances", "2", "--out", ""],
            capture_output=True, text=True, timeout=300, cwd=str(tmp_path),
            env={**__import__("os").environ, "PYTHONPATH": __import__("os").path.abspath("src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no disagreements" in proc.stdout