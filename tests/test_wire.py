"""Property and unit tests for the ``repro-wire/1`` versioned wire schema.

The wire format is the single request representation shared by
``repro.api``, ``repro.serve``, the gateway and the golden files, so its
contract is pinned hard:

* ``SolveRequest.from_wire(to_wire(x)) == x`` — including through an
  actual JSON byte round trip (exact rationals survive as ``"p/q"``);
* permuted and re-typed copies of an instance serialize to the *same*
  ``canonical_key`` (and therefore the same shard and cache entry);
* ``SolveResult`` round-trips value, preemption count, method, metrics
  and the schedule (single- and multi-machine);
* malformed envelopes are rejected with useful errors.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import WIRE_FORMAT, SolveRequest, SolveResult, solve_k_bounded
from repro.gateway.routing import ring_shard_for_key
from repro.scheduling.job import Job, JobSet

from .strategies import jobsets, small_ks

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

methods = st.sampled_from(["auto", "combined", "reduction", "lsa"])
deadlines = st.one_of(
    st.none(), st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
)


@st.composite
def solve_requests(draw):
    return SolveRequest(
        jobs=draw(jobsets()),
        k=draw(small_ks(min_k=0, max_k=3)),
        machines=draw(st.integers(min_value=1, max_value=3)),
        method=draw(methods),
        deadline_ms=draw(deadlines),
    )


def _retype(x):
    """An equal value in a different numeric representation."""
    return Fraction(x)


def _permuted_retyped(jobs: JobSet) -> JobSet:
    """The same instance, jobs reversed and every number re-typed."""
    return JobSet(
        tuple(
            Job(
                job.id,
                _retype(job.release),
                _retype(job.deadline),
                _retype(job.length),
                _retype(job.value),
            )
            for job in reversed(jobs.jobs)
        )
    )


# ---------------------------------------------------------------------------
# round-trip properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(solve_requests())
def test_request_roundtrip_identity(req):
    doc = req.to_wire()
    assert doc["format"] == WIRE_FORMAT
    assert doc["kind"] == "solve_request"
    back = SolveRequest.from_wire(doc)
    assert back == req
    assert hash(back) == hash(req)
    assert back.key() == req.key()
    assert back.canonical_key() == req.canonical_key()


@settings(max_examples=60, deadline=None)
@given(solve_requests())
def test_request_roundtrip_through_json_bytes(req):
    back = SolveRequest.from_wire(json.loads(json.dumps(req.to_wire())))
    assert back == req
    assert back.key() == req.key()


@settings(max_examples=60, deadline=None)
@given(jobsets(), small_ks())
def test_permuted_retyped_instances_share_canonical_key(jobs, k):
    original = SolveRequest(jobs=jobs, k=k)
    shuffled = SolveRequest(jobs=_permuted_retyped(jobs), k=k)
    assert original.canonical_key() == shuffled.canonical_key()
    assert original.key() == shuffled.key()
    # ... and both survive their own wire round trips with the key intact.
    assert (
        SolveRequest.from_wire(shuffled.to_wire()).canonical_key()
        == original.canonical_key()
    )
    for shards in (1, 2, 3, 7):
        assert ring_shard_for_key(
            original.canonical_key(), shards
        ) == ring_shard_for_key(shuffled.canonical_key(), shards)


@settings(max_examples=25, deadline=None)
@given(jobsets(max_jobs=5), small_ks(min_k=0, max_k=2))
def test_result_roundtrip_preserves_solution(jobs, k):
    result = solve_k_bounded(jobs, k)
    back = SolveResult.from_wire(json.loads(json.dumps(result.to_wire())))
    assert back.value == result.value
    assert back.preemptions_used == result.preemptions_used
    assert back.method == result.method
    assert back.metrics == result.metrics


# ---------------------------------------------------------------------------
# units: fixed instances, validation, multi-machine
# ---------------------------------------------------------------------------


@pytest.fixture
def jobs():
    return JobSet(
        [
            Job(0, 0, Fraction(19, 2), 3, Fraction(5, 3)),
            Job(1, 1, 8, 2, 4.0),
            Job(2, 2, 12, 4, 1),
        ]
    )


def test_exact_rationals_survive_the_wire(jobs):
    doc = json.loads(json.dumps(SolveRequest(jobs=jobs, k=1).to_wire()))
    back = SolveRequest.from_wire(doc)
    assert back.jobs.jobs[0].deadline == Fraction(19, 2)
    assert back.jobs.jobs[0].value == Fraction(5, 3)


def test_multimachine_result_roundtrip(jobs):
    result = solve_k_bounded(jobs, 1, machines=2)
    back = SolveResult.from_wire(json.loads(json.dumps(result.to_wire())))
    assert back.value == result.value
    assert type(back.schedule).__name__ == "MultiMachineSchedule"
    assert len(back.schedule.machines) == len(result.schedule.machines)


def test_request_defaults_fill_in(jobs):
    doc = SolveRequest(jobs=jobs, k=1).to_wire()
    del doc["machines"], doc["method"], doc["deadline_ms"]
    back = SolveRequest.from_wire(doc)
    assert (back.machines, back.method, back.deadline_ms) == (1, "auto", None)


def test_request_ignores_transport_extras(jobs):
    doc = SolveRequest(jobs=jobs, k=1).to_wire()
    doc["tenant"] = "team-a"
    assert SolveRequest.from_wire(doc).k == 1


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(format="repro-wire/0"),
        lambda doc: doc.update(kind="solve_result"),
        lambda doc: doc.pop("jobs"),
        lambda doc: doc.pop("k"),
    ],
)
def test_bad_request_envelopes_rejected(jobs, mutate):
    doc = SolveRequest(jobs=jobs, k=1).to_wire()
    mutate(doc)
    with pytest.raises((ValueError, KeyError)):
        SolveRequest.from_wire(doc)


def test_request_validation(jobs):
    with pytest.raises(ValueError):
        SolveRequest(jobs=jobs, k=-1)
    with pytest.raises(ValueError):
        SolveRequest(jobs=jobs, k=1, machines=0)
    with pytest.raises(ValueError):
        SolveRequest(jobs=jobs, k=1, method="nope")
    with pytest.raises(ValueError):
        SolveRequest(jobs=jobs, k=1, deadline_ms=0)
    with pytest.raises(TypeError):
        SolveRequest(jobs=list(jobs.jobs), k=1)


@pytest.mark.parametrize("field", ["k", "machines"])
@pytest.mark.parametrize("bad", [1.7, 2.5, True, False, float("nan"), float("inf")])
def test_request_refuses_non_integral_counts(jobs, field, bad):
    """``int()`` used to truncate, so ``k: 1.7`` was served as k=1."""
    with pytest.raises(ValueError, match="must be an integer"):
        SolveRequest(jobs=jobs, **dict({"k": 1, "machines": 1}, **{field: bad}))


def test_request_takes_integral_floats_as_ints(jobs):
    req = SolveRequest(jobs=jobs, k=2.0, machines=Fraction(2, 2))
    assert (req.k, req.machines) == (2, 1)
    assert type(req.k) is int and type(req.machines) is int
    assert req.key() == SolveRequest(jobs=jobs, k=2).key()


@pytest.mark.parametrize("bad", [0.5, True])
def test_job_id_on_the_wire_must_be_an_integer(jobs, bad):
    doc = SolveRequest(jobs=jobs, k=1).to_wire()
    doc["jobs"]["jobs"][0]["id"] = bad
    with pytest.raises(ValueError, match="job id must be an integer"):
        SolveRequest.from_wire(doc)


def test_request_key_reuses_a_given_canonical_key(jobs):
    req = SolveRequest(jobs=jobs, k=2, method="lsa")
    assert req.key(req.canonical_key()) == req.key()


def test_request_is_frozen_and_hashable(jobs):
    req = SolveRequest(jobs=jobs, k=2)
    with pytest.raises(AttributeError):
        req.k = 3
    assert req in {req}
    twin = SolveRequest(jobs=_permuted_retyped(jobs), k=2)
    # Permuted twin is a distinct value object (order differs) but hashes
    # onto the same bucket: the hash is canonical-key based.
    assert hash(twin) == hash(req)
