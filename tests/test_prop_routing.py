"""Property-based tests for consistent-hash ring routing.

The ring's whole contract is distributional: determinism (including
across interpreter processes — the vnode points are SHA-256-derived, so
``PYTHONHASHSEED`` must not matter), per-shard load balance within a
constant of uniform at 64 virtual nodes, and bounded key movement under
resharding — growing an ``n``-shard fleet by one moves about ``1/(n+1)``
of the key space (all of it to the new shard), and removing a shard
moves only the keys that shard owned.  ``tests/test_gateway.py`` covers
the wiring; these tests pin the math.
"""

import hashlib
import json
import os
import subprocess
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.routing import HashRing, ring_movement, ring_shard_for_key

#: A fixed 10k-key sample of the canonical-key space (sha256 hex, the
#: same form `SolveRequest.canonical_key()` produces).
KEYS = [hashlib.sha256(f"key-{i}".encode()).hexdigest() for i in range(10_000)]


@given(st.integers(0, 2**63), st.integers(1, 12))
def test_ring_is_deterministic_and_in_range(token, shards):
    key = hashlib.sha256(str(token).encode()).hexdigest()
    owner = ring_shard_for_key(key, shards)
    assert 0 <= owner < shards
    assert owner == ring_shard_for_key(key, shards)
    assert owner == HashRing(shards).shard_for(key)


def test_ring_is_deterministic_across_processes():
    """A fresh interpreter with a different hash seed routes identically."""
    sample = KEYS[:50]
    expected = [ring_shard_for_key(key, 5) for key in sample]
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "424242"
    code = (
        "import json, sys\n"
        "from repro.gateway.routing import ring_shard_for_key\n"
        "keys = json.load(sys.stdin)\n"
        "print(json.dumps([ring_shard_for_key(k, 5) for k in keys]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps(sample),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(proc.stdout) == expected


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 10))
def test_load_balance_within_2x_uniform(shards):
    ring = HashRing(shards)  # default 64 vnodes
    counts = [0] * shards
    for key in KEYS:
        counts[ring.shard_for(key)] += 1
    uniform = len(KEYS) / shards
    assert min(counts) > 0
    assert max(counts) <= 2.0 * uniform


@settings(max_examples=9, deadline=None)
@given(st.integers(1, 9))
def test_adding_one_shard_moves_at_most_its_fair_share(shards):
    ring_small = HashRing(shards)
    ring_big = HashRing(shards + 1)
    moved = 0
    for key in KEYS:
        before = ring_small.shard_for(key)
        after = ring_big.shard_for(key)
        if after != before:
            moved += 1
            # Monotonicity: a moved key may only move TO the new shard.
            assert after == shards
    assert moved <= 1.5 / (shards + 1) * len(KEYS)
    assert moved > 0  # the new shard does take ownership of something
    # The exact arc-sweep accounting agrees with the sampled estimate.
    _arcs, fraction = ring_movement(ring_small, ring_big)
    assert abs(fraction - moved / len(KEYS)) < 0.05
    assert fraction <= 1.5 / (shards + 1)


@settings(max_examples=8, deadline=None)
@given(st.integers(2, 10))
def test_removing_one_shard_moves_only_its_keys(shards):
    ring_big = HashRing(shards)
    ring_small = HashRing(shards - 1)
    for key in KEYS:
        before = ring_big.shard_for(key)
        if before != shards - 1:
            # Keys not owned by the removed shard must not move at all.
            assert ring_small.shard_for(key) == before


def test_grow_4_to_5_relocates_under_30_percent():
    """The acceptance gate: ring reshard 4 -> 5 moves ~1/5 of keys (a
    modulo hash would move ~4/5), on the 10k-key sample and exactly."""
    ring4, ring5 = HashRing(4), HashRing(5)
    ring_moved = sum(
        1 for key in KEYS if ring4.shard_for(key) != ring5.shard_for(key)
    )
    assert ring_moved / len(KEYS) <= 0.30
    _arcs, exact_fraction = ring_movement(ring4, ring5)
    assert exact_fraction <= 0.30


@given(st.integers(1, 64), st.integers(1, 8))
def test_vnode_count_scales_ring_size(vnodes, shards):
    ring = HashRing(shards, vnodes=vnodes)
    assert len(ring._points) == vnodes * shards
