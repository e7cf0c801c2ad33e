"""Golden regression: pinned SolveResult scalars on the paper's fixture set.

Every fixture is a deterministic instance family from the paper (plus two
seeded randoms), solved through the public facade; the goldens pin
``SolveResult.value``, ``preemptions_used`` and the resolved ``method`` as
committed JSON.  Any solver change that moves one of these numbers fails
here with a field-level diff — and writes the freshly computed values to
``solve_results.actual.json`` next to the golden, which CI uploads as an
artifact so the drift can be inspected without re-running locally.

Intentional changes re-pin with::

    pytest tests/test_golden.py --update-goldens
"""

import json
from pathlib import Path

import pytest

from repro.api import SolveRequest, solve_k_bounded
from repro.gateway.routing import ring_shard_for_key
from repro.scheduling.job import JobSet
from repro.instances import (
    anti_budget_edf,
    anti_density_greedy,
    appendix_b_jobs,
    dhall_instance,
    geometric_chain,
    laminar_job_chain,
    random_integral_jobs,
    random_jobs,
)

GOLDEN_PATH = Path(__file__).parent / "goldens" / "solve_results.json"
ACTUAL_PATH = GOLDEN_PATH.with_suffix(".actual.json")
WIRE_GOLDEN_PATH = Path(__file__).parent / "goldens" / "wire_requests.json"
WIRE_ACTUAL_PATH = WIRE_GOLDEN_PATH.with_suffix(".actual.json")
OPT_GOLDEN_PATH = Path(__file__).parent / "goldens" / "opt_exact.json"
OPT_ACTUAL_PATH = OPT_GOLDEN_PATH.with_suffix(".actual.json")

# Fixture registry: name -> () -> (jobs, k, machines).  Names are stable —
# R1..R7 are referenced from docs/TESTING.md and the CI artifact step.
FIXTURES = {
    # k = 0 on the Figure-2 geometric chain: the canonical non-preemptive
    # lower-bound family.
    "R1-geometric-chain-k0": lambda: (geometric_chain(6), 0, 1),
    # The same chain family with one allowed preemption.
    "R2-geometric-chain-k1": lambda: (geometric_chain(8), 1, 1),
    # Appendix B's nested lower-bound instance at (k=2, L=2).
    "R3-appendix-b-nested": lambda: (appendix_b_jobs(2, 2).jobs, 2, 1),
    # A layered K-ary laminar chain (depth 3, branching 2).
    "R4-laminar-kary": lambda: (laminar_job_chain(3, 2, seed=5), 1, 1),
    # Seeded random mixed-laxity instance through the full pipeline.
    "R5-random-mixed": lambda: (random_jobs(12, seed=11), 2, 1),
    # The anti-greedy budget-EDF adversarial family.
    "R6-anti-budget-edf": lambda: (anti_budget_edf(2), 2, 1),
    # Dhall-style multi-machine instance on two machines.
    "R7-dhall-m2": lambda: (dhall_instance(2), 1, 2),
}


def _solve_all() -> dict:
    out = {}
    for name, make in FIXTURES.items():
        jobs, k, machines = make()
        result = solve_k_bounded(jobs, k, machines=machines)
        out[name] = {
            "n": jobs.n,
            "k": k,
            "machines": machines,
            "value": result.value,
            "preemptions_used": result.preemptions_used,
            "method": result.method,
        }
    return out


def test_golden_solve_results(update_goldens):
    actual = _solve_all()
    if update_goldens:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        ACTUAL_PATH.unlink(missing_ok=True)
        return

    assert GOLDEN_PATH.exists(), (
        f"golden file missing: {GOLDEN_PATH}; generate it with "
        "pytest tests/test_golden.py --update-goldens"
    )
    golden = json.loads(GOLDEN_PATH.read_text())

    diffs = []
    for name in sorted(set(golden) | set(actual)):
        if name not in golden:
            diffs.append(f"{name}: fixture has no golden entry")
            continue
        if name not in actual:
            diffs.append(f"{name}: golden entry has no fixture")
            continue
        for field in sorted(set(golden[name]) | set(actual[name])):
            want = golden[name].get(field)
            got = actual[name].get(field)
            if want != got:
                diffs.append(f"{name}.{field}: golden {want!r} != actual {got!r}")
    if diffs:
        # Leave the freshly computed values beside the golden so CI can
        # upload them as an artifact (and a human can eyeball the drift).
        ACTUAL_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.fail(
            "golden regression ({} mismatch(es); wrote {}):\n  {}".format(
                len(diffs), ACTUAL_PATH.name, "\n  ".join(diffs)
            )
        )
    ACTUAL_PATH.unlink(missing_ok=True)


# Exact-frontier fixtures: name -> () -> jobs.  R8–R11 are the seeded
# integral families at the sizes the bitset core opened up (the legacy
# search walled out near n = 16); R12 is the adversarial family where
# density-greedy admission is *strictly* suboptimal, so the pinned gap
# proves the exact solver is doing more than greedy ever could.
OPT_FIXTURES = {
    "R8-integral-n18": lambda: random_integral_jobs(18, seed=88),
    "R9-integral-n22": lambda: random_integral_jobs(22, seed=89),
    "R10-integral-n26": lambda: random_integral_jobs(26, seed=90),
    "R11-integral-n30": lambda: random_integral_jobs(30, seed=91),
    "R12-anti-density-greedy": lambda: anti_density_greedy(5),
}


def _opt_exact_all() -> dict:
    from repro.scheduling.edf import edf_accept_max_subset
    from repro.scheduling.exact import opt_infty_exact, opt_infty_value

    out = {}
    for name, make in OPT_FIXTURES.items():
        jobs = make()
        sched = opt_infty_exact(jobs)
        out[name] = {
            "n": jobs.n,
            "opt_value": opt_infty_value(jobs),
            "accepted": len(sched),
            "greedy_value": edf_accept_max_subset(jobs).value,
        }
    return out


def test_golden_opt_exact_values(update_goldens):
    """Pinned exact OPT_∞ values at the n ∈ {18, 22, 26, 30} frontier.

    Any change to the bitset search, its bounds, the dominance pruning or
    the kernel dispatch that moves an *optimal value* fails here — node
    counts and engine choice are deliberately not pinned (they are
    observability, free to improve)."""
    actual = _opt_exact_all()
    if update_goldens:
        OPT_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        OPT_GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        OPT_ACTUAL_PATH.unlink(missing_ok=True)
        return

    assert OPT_GOLDEN_PATH.exists(), (
        f"golden file missing: {OPT_GOLDEN_PATH}; generate it with "
        "pytest tests/test_golden.py --update-goldens"
    )
    golden = json.loads(OPT_GOLDEN_PATH.read_text())
    diffs = []
    for name in sorted(set(golden) | set(actual)):
        if name not in golden:
            diffs.append(f"{name}: fixture has no golden entry")
            continue
        if name not in actual:
            diffs.append(f"{name}: golden entry has no fixture")
            continue
        for field in sorted(set(golden[name]) | set(actual[name])):
            want = golden[name].get(field)
            got = actual[name].get(field)
            if want != got:
                diffs.append(f"{name}.{field}: golden {want!r} != actual {got!r}")
    if diffs:
        OPT_ACTUAL_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        pytest.fail(
            "opt-exact golden regression ({} mismatch(es); wrote {}):\n  {}".format(
                len(diffs), OPT_ACTUAL_PATH.name, "\n  ".join(diffs)
            )
        )
    OPT_ACTUAL_PATH.unlink(missing_ok=True)


def test_golden_opt_exact_file_is_sorted_and_complete():
    golden = json.loads(OPT_GOLDEN_PATH.read_text())
    assert list(golden) == sorted(golden)
    assert set(golden) == set(OPT_FIXTURES)
    for name, entry in golden.items():
        assert set(entry) == {"n", "opt_value", "accepted", "greedy_value"}, name
        assert entry["opt_value"] >= entry["greedy_value"] > 0, name
        assert 0 < entry["accepted"] <= entry["n"], name


def test_golden_opt_exact_has_greedy_suboptimal_witness():
    """At least one pinned fixture separates exact from greedy strictly."""
    golden = json.loads(OPT_GOLDEN_PATH.read_text())
    assert any(e["opt_value"] > e["greedy_value"] for e in golden.values()), (
        "no pinned instance shows the exact solver strictly beating greedy "
        "EDF admission — the adversarial fixture lost its teeth"
    )


def _wire_all() -> dict:
    """Every fixture's ``repro-wire/1`` request doc plus its routing facts.

    Pinning the full wire document makes any codec change (field names,
    number encoding, envelope) a reviewed golden diff; pinning
    ``request_key`` and the 2-/4-shard assignments pins cache identity and
    gateway routing for the same instances.
    """
    out = {}
    for name, make in FIXTURES.items():
        jobs, k, machines = make()
        request = SolveRequest(jobs=JobSet(jobs), k=k, machines=machines)
        out[name] = {
            "wire": request.to_wire(),
            "request_key": request.key(),
            "canonical_key": request.canonical_key(),
            "shard_of_2": ring_shard_for_key(request.canonical_key(), 2),
            "shard_of_4": ring_shard_for_key(request.canonical_key(), 4),
        }
    return out


def test_golden_wire_requests(update_goldens):
    actual = _wire_all()
    if update_goldens:
        WIRE_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        WIRE_GOLDEN_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        WIRE_ACTUAL_PATH.unlink(missing_ok=True)
        return

    assert WIRE_GOLDEN_PATH.exists(), (
        f"golden file missing: {WIRE_GOLDEN_PATH}; generate it with "
        "pytest tests/test_golden.py --update-goldens"
    )
    golden = json.loads(WIRE_GOLDEN_PATH.read_text())
    if golden != actual:
        WIRE_ACTUAL_PATH.write_text(json.dumps(actual, indent=2, sort_keys=True) + "\n")
        diffs = []
        for name in sorted(set(golden) | set(actual)):
            if golden.get(name) != actual.get(name):
                diffs.append(name)
        pytest.fail(
            f"wire golden drift in {diffs}; wrote {WIRE_ACTUAL_PATH.name} "
            "(an intentional schema change re-pins with --update-goldens)"
        )
    WIRE_ACTUAL_PATH.unlink(missing_ok=True)


def test_golden_wire_requests_decode_back():
    """The committed wire docs stay loadable: each decodes to a request
    whose canonical key and shard match the pinned values."""
    golden = json.loads(WIRE_GOLDEN_PATH.read_text())
    assert set(golden) == set(FIXTURES)
    for name, entry in golden.items():
        request = SolveRequest.from_wire(entry["wire"])
        assert request.key() == entry["request_key"], name
        assert request.canonical_key() == entry["canonical_key"], name
        assert ring_shard_for_key(request.canonical_key(), 2) == entry["shard_of_2"], name


def test_golden_file_is_sorted_and_complete():
    """The committed golden stays diff-friendly: sorted keys, every fixture
    present, no stray entries."""
    golden = json.loads(GOLDEN_PATH.read_text())
    assert list(golden) == sorted(golden)
    assert set(golden) == set(FIXTURES)
    for name, entry in golden.items():
        assert set(entry) == {"n", "k", "machines", "value", "preemptions_used", "method"}, name
        assert entry["value"] > 0, name
        assert entry["preemptions_used"] <= entry["k"], name
