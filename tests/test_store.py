"""The durable result store: format, crash recovery, the service's second
cache tier, restart warmth, maintenance verbs and the CLI surface.

The contracts under test are the ones ``docs/STORE.md`` promises:
bit-exact round-trips through the ``repro-wire/1`` codec, never-crash /
never-stale recovery from torn tails and corrupt lines, solver-version
invalidation, the degraded-result poisoning rule extended to disk, and a
restart that serves previously solved instances from the store without
re-solving.
"""

import json
import os

import pytest

from repro.api import SolveRequest, SolveResult, request_key, solve_k_bounded
from repro.instances import random_integral_jobs, random_jobs
from repro.serve import SolverService
from repro.store import STORE_FORMAT, ResultStore


def _requests(count, n=8, seed=0):
    return [
        SolveRequest(jobs=random_jobs(n, seed=seed + i), k=1 + i % 2)
        for i in range(count)
    ]


def _result_bytes(result: SolveResult) -> str:
    """Wire bytes minus the volatile serving metrics."""
    doc = result.to_wire()
    doc.pop("metrics", None)
    return json.dumps(doc, sort_keys=True)


def _counting_solve(log):
    def fn(jobs, k, *, machines=1, method="auto", **kw):
        log.append(jobs.canonical_key())
        return solve_k_bounded(jobs, k, machines=machines, method=method, **kw)

    return fn


def _segments(root):
    return sorted(
        os.path.join(root, name) for name in os.listdir(root) if name.startswith("seg-")
    )


# ---------------------------------------------------------------------------
# format and the basic mapping surface
# ---------------------------------------------------------------------------


class TestStoreBasics:
    def test_records_are_self_describing_jsonl(self, tmp_path):
        req = _requests(1)[0]
        result = solve_k_bounded(req.jobs, req.k)
        with ResultStore(str(tmp_path / "s")) as store:
            assert store.put(req.key(), result)
        [seg] = _segments(str(tmp_path / "s"))
        [line] = open(seg).read().splitlines()
        record = json.loads(line)
        from repro import __version__

        assert record["format"] == STORE_FORMAT
        assert record["key"] == req.key()
        assert record["solver"] == __version__
        assert record["wire"] == "repro-wire/1"
        assert record["result"]["format"] == "repro-wire/1"

    def test_get_round_trips_bit_exactly(self, tmp_path):
        reqs = _requests(4)
        with ResultStore(str(tmp_path / "s")) as store:
            originals = {}
            for req in reqs:
                result = solve_k_bounded(req.jobs, req.k)
                originals[req.key()] = result
                store.put(req.key(), result)
            assert len(store) == 4
            for key, original in originals.items():
                assert key in store
                stored = store.get(key)
                assert _result_bytes(stored) == _result_bytes(original)
                assert stored.value == original.value
                assert stored.preemptions_used == original.preemptions_used

    def test_duplicate_put_is_a_noop_unless_overwrite(self, tmp_path):
        req = _requests(1)[0]
        result = solve_k_bounded(req.jobs, req.k)
        with ResultStore(str(tmp_path / "s")) as store:
            assert store.put(req.key(), result) is True
            assert store.put(req.key(), result) is False
            assert store.counters["writes"] == 1
            assert store.put(req.key(), result, overwrite=True) is True
            assert len(store) == 1

    def test_degraded_results_are_refused(self, tmp_path):
        req = _requests(1)[0]
        degraded = solve_k_bounded(req.jobs, req.k).with_metrics(
            {"served.degraded": 1.0}
        )
        with ResultStore(str(tmp_path / "s")) as store:
            with pytest.raises(ValueError, match="never persisted"):
                store.put(req.key(), degraded)
            assert len(store) == 0

    def test_put_after_close_raises(self, tmp_path):
        req = _requests(1)[0]
        store = ResultStore(str(tmp_path / "s"))
        store.close()
        with pytest.raises(ValueError, match="closed"):
            store.put(req.key(), solve_k_bounded(req.jobs, req.k))

    def test_segments_roll_at_the_size_bound(self, tmp_path):
        reqs = _requests(6)
        with ResultStore(str(tmp_path / "s"), segment_max_bytes=1) as store:
            for req in reqs:
                store.put(req.key(), solve_k_bounded(req.jobs, req.k))
        assert len(_segments(str(tmp_path / "s"))) >= 6
        with ResultStore(str(tmp_path / "s")) as reopened:
            assert len(reopened) == 6


# ---------------------------------------------------------------------------
# crash recovery: never crash, never serve a stale artifact
# ---------------------------------------------------------------------------


class TestCrashRecovery:
    def _populated(self, root, count=3):
        reqs = _requests(count)
        with ResultStore(root) as store:
            for req in reqs:
                store.put(req.key(), solve_k_bounded(req.jobs, req.k))
        return reqs

    def test_torn_tail_is_healed_by_truncation(self, tmp_path):
        root = str(tmp_path / "s")
        reqs = self._populated(root)
        seg = _segments(root)[-1]
        size_before = os.path.getsize(seg)
        with open(seg, "ab") as fh:
            fh.write(b'{"format": "repro-store/1", "key": "crashed-mid-app')
        with ResultStore(root) as store:
            assert store.counters["recovered_tail"] == 1
            assert len(store) == len(reqs)
            assert os.path.getsize(seg) == size_before  # healed in place
        # The next open sees a clean file: the repair is durable.
        with ResultStore(root) as store:
            assert store.counters["recovered_tail"] == 0
            assert len(store) == len(reqs)

    def test_torn_tail_falls_back_to_cold_solve_in_the_service(self, tmp_path):
        root = str(tmp_path / "s")
        reqs = self._populated(root, count=2)
        victim = _requests(3)[-1]  # never stored
        seg = _segments(root)[-1]
        with open(seg, "ab") as fh:
            fh.write(b'{"torn": ')
        calls = []
        with SolverService(
            workers=1, store_path=root, prewarm=False, solve_fn=_counting_solve(calls)
        ) as svc:
            warm = svc.solve(reqs[0])
            cold = svc.solve(victim)
        assert warm.metrics.get("served.store_hit") == 1.0
        assert len(calls) == 1  # only the never-stored instance solved
        assert cold.value == solve_k_bounded(victim.jobs, victim.k).value

    def test_corrupt_line_is_skipped_not_fatal(self, tmp_path):
        root = str(tmp_path / "s")
        reqs = self._populated(root)
        seg = _segments(root)[-1]
        lines = open(seg, "rb").read().splitlines(keepends=True)
        lines[1] = b"@@@ bit rot, not json @@@\n"
        open(seg, "wb").write(b"".join(lines))
        with ResultStore(root) as store:
            assert store.counters["corrupt"] == 1
            assert len(store) == len(reqs) - 1  # the broken record is a miss
        calls = []
        with SolverService(
            workers=1, store_path=root, prewarm=False, solve_fn=_counting_solve(calls)
        ) as svc:
            results = [svc.solve(req) for req in reqs]
        assert len(calls) == 1  # the corrupted entry cold-solved, the rest hit
        for req, result in zip(reqs, results):
            assert result.value == solve_k_bounded(req.jobs, req.k).value

    def test_solver_version_mismatch_is_invisible_never_stale(self, tmp_path):
        root = str(tmp_path / "s")
        req = _requests(1)[0]
        honest = solve_k_bounded(req.jobs, req.k)
        # A prior solver version stored a *wrong* artifact under this key —
        # the exact situation version invalidation exists for.
        stale = solve_k_bounded(random_jobs(8, seed=999), 2)
        with ResultStore(root, solver_version="0.0.1-old") as old:
            old.put(req.key(), stale)
        with ResultStore(root) as store:
            assert store.counters["version_skipped"] == 1
            assert len(store) == 0
            assert store.get(req.key()) is None
        calls = []
        with SolverService(
            workers=1, store_path=root, solve_fn=_counting_solve(calls)
        ) as svc:
            result = svc.solve(req)
        assert len(calls) == 1  # cold solve, not the stale artifact
        assert result.value == honest.value
        assert "served.store_hit" not in result.metrics

    def test_result_doc_rejected_by_codec_is_a_miss(self, tmp_path):
        root = str(tmp_path / "s")
        req = _requests(1)[0]
        with ResultStore(root) as store:
            store.put(req.key(), solve_k_bounded(req.jobs, req.k))
        seg = _segments(root)[-1]
        record = json.loads(open(seg).read())
        record["result"]["schedule"] = {"not": "a schedule"}
        open(seg, "w").write(json.dumps(record) + "\n")
        with ResultStore(root) as store:
            assert store.get(req.key()) is None  # dropped, counted, no crash
            assert store.counters["corrupt"] == 1


# ---------------------------------------------------------------------------
# the service's second tier and restart warmth
# ---------------------------------------------------------------------------


class TestServiceTier:
    def test_restart_serves_from_store_bit_identically(self, tmp_path):
        root = str(tmp_path / "s")
        reqs = _requests(4)
        with SolverService(workers=2, store_path=root) as svc:
            first = [svc.solve(req) for req in reqs]
            stats = svc.stats()
        assert stats.store_writes == len(reqs)
        assert stats.store_misses == len(reqs)
        calls = []
        with SolverService(
            workers=2, store_path=root, prewarm=False, solve_fn=_counting_solve(calls)
        ) as restarted:
            second = [restarted.solve(req) for req in reqs]
            stats2 = restarted.stats()
        assert calls == []  # nothing re-solved
        assert stats2.store_hits == len(reqs)
        for a, b in zip(first, second):
            assert b.metrics["served.store_hit"] == 1.0
            assert _result_bytes(a) == _result_bytes(b)

    def test_restart_serves_n28_bitset_solve_warm_from_disk(self, tmp_path):
        """An n = 28 ``method="reduction"`` exact solve — the PR 8 bitset
        frontier — survives a service restart as a store hit: the expensive
        branch-and-bound runs once per fleet lifetime, not once per process.
        """
        from repro.scheduling.exact import clear_exact_caches

        root = str(tmp_path / "s")
        jobs = random_integral_jobs(28, seed=828)
        req = SolveRequest(jobs=jobs, k=2, method="reduction")
        clear_exact_caches()
        with SolverService(workers=1, store_path=root) as svc:
            cold = svc.solve(req)
        assert cold.metrics.get("exact.nodes", 0) > 0  # the bitset core ran
        clear_exact_caches()  # a real restart loses the in-process memos too
        calls = []
        with SolverService(
            workers=1, store_path=root, solve_fn=_counting_solve(calls)
        ) as restarted:
            warm = restarted.solve(req)
            stats = restarted.stats()
        assert calls == []
        assert stats.store_prewarmed >= 1 and stats.hits == 1
        assert warm.method == "reduction"
        assert warm.value == cold.value
        assert _result_bytes(warm) == _result_bytes(cold)

    def test_prewarm_fills_the_lru_so_restart_hits_are_memory_hits(self, tmp_path):
        root = str(tmp_path / "s")
        reqs = _requests(3)
        with SolverService(workers=1, store_path=root) as svc:
            for req in reqs:
                svc.solve(req)
        with SolverService(workers=1, store_path=root) as restarted:
            stats0 = restarted.stats()
            results = [restarted.solve(req) for req in reqs]
            stats = restarted.stats()
        assert stats0.store_prewarmed == len(reqs)
        assert stats.hits == len(reqs)  # LRU hits, no store reads needed
        assert stats.store_hits == 0
        assert all(r.metrics.get("served.hit") == 1.0 for r in results)

    def test_degraded_results_never_reach_the_store(self, tmp_path):
        root = str(tmp_path / "s")
        req = SolveRequest(jobs=random_jobs(10, seed=5), k=1, deadline_ms=1e-6)

        def glacial(jobs, k, *, machines=1, method="auto", **kw):
            import time as _time

            if method != "lsa":
                _time.sleep(0.05)
            return solve_k_bounded(jobs, k, machines=machines, method=method, **kw)

        with SolverService(workers=1, store_path=root, solve_fn=glacial) as svc:
            result = svc.solve(req)
            stats = svc.stats()
        assert result.degraded
        assert stats.store_writes == 0
        with ResultStore(root) as store:
            assert len(store) == 0

    def test_store_and_store_path_are_mutually_exclusive(self, tmp_path):
        with ResultStore(str(tmp_path / "s")) as store:
            with pytest.raises(TypeError, match="not both"):
                SolverService(store=store, store_path=str(tmp_path / "s"))

    def test_shared_store_object_stays_open_after_shutdown(self, tmp_path):
        req = _requests(1)[0]
        store = ResultStore(str(tmp_path / "s"))
        with SolverService(workers=1, store=store) as svc:
            svc.solve(req)
        # The service does not own a caller-provided store.
        assert store.put("extra", solve_k_bounded(req.jobs, req.k)) in (True, False)
        store.close()


# ---------------------------------------------------------------------------
# maintenance: compact / verify / snapshots
# ---------------------------------------------------------------------------


class TestMaintenance:
    def test_compact_drops_superseded_corrupt_and_mismatched(self, tmp_path):
        root = str(tmp_path / "s")
        reqs = _requests(3)
        with ResultStore(root, solver_version="0.0.1-old") as old:
            old.put("stale-key", solve_k_bounded(reqs[0].jobs, 1))
        with ResultStore(root) as store:
            for req in reqs:
                store.put(req.key(), solve_k_bounded(req.jobs, req.k))
            store.put(reqs[0].key(), solve_k_bounded(reqs[0].jobs, reqs[0].k),
                      overwrite=True)
        with open(_segments(root)[-1], "ab") as fh:
            fh.write(b"junk line\n")
        with ResultStore(root) as store:
            report = store.compact()
            assert report["live"] == 3
        [seg] = _segments(root)
        lines = open(seg).read().splitlines()
        assert len(lines) == 3  # stale version, duplicate and junk all gone
        with ResultStore(root) as clean:
            assert len(clean) == 3
            assert clean.counters["corrupt"] == 0
            assert clean.counters["version_skipped"] == 0

    def test_verify_passes_clean_and_flags_tampering(self, tmp_path):
        root = str(tmp_path / "s")
        reqs = _requests(2)
        with ResultStore(root) as store:
            for req in reqs:
                store.put(req.key(), solve_k_bounded(req.jobs, req.k))
            assert store.verify()["ok"] is True
        seg = _segments(root)[-1]
        lines = open(seg).read().splitlines()
        record = json.loads(lines[0])
        record["result"]["value"] = "1/3"  # silently alter the stored value
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        open(seg, "w").write("\n".join(lines) + "\n")
        with ResultStore(root) as store:
            report = store.verify()
        # The altered value still decodes but the schedule no longer matches
        # it — either codec rejection or a round-trip mismatch must flag it.
        assert report["ok"] is False

    def test_export_import_moves_the_live_set(self, tmp_path):
        root = str(tmp_path / "a")
        reqs = _requests(3)
        with ResultStore(root) as store:
            for req in reqs:
                store.put(req.key(), solve_k_bounded(req.jobs, req.k))
            snap = str(tmp_path / "snap.jsonl")
            assert store.export_snapshot(snap) == 3
        header = json.loads(open(snap).readline())
        assert header["kind"] == "snapshot" and header["entries"] == 3
        with ResultStore(str(tmp_path / "b")) as other:
            report = other.import_snapshot(snap)
            assert report["imported"] == 3 and report["corrupt"] == 0
            assert other.import_snapshot(snap)["duplicates"] == 3
            for req in reqs:
                assert _result_bytes(other.get(req.key())) == _result_bytes(
                    solve_k_bounded(req.jobs, req.k)
                )


# ---------------------------------------------------------------------------
# gateway config and the CLI verbs
# ---------------------------------------------------------------------------


class TestGatewayStoreConfig:
    def test_default_factory_gives_each_shard_its_own_store_path(self, tmp_path):
        from repro.gateway import Gateway

        gw = Gateway(shards=3, store_dir=str(tmp_path / "fleet"))
        paths = [gw._shard_factory(i)._service_kwargs["store_path"] for i in range(3)]
        assert len(set(paths)) == 3
        assert all(p.startswith(str(tmp_path / "fleet")) for p in paths)

    def test_store_dir_with_custom_factory_is_an_error(self, tmp_path):
        from repro.gateway import Gateway, InlineShard

        with pytest.raises(TypeError, match="store_dir"):
            Gateway(
                store_dir=str(tmp_path / "fleet"),
                shard_factory=lambda index: InlineShard(workers=1),
            )

    def test_gateway_restart_over_inline_store_backed_shards(self, tmp_path):
        import asyncio

        from repro.gateway import Gateway, InlineShard

        reqs = _requests(4, seed=70)

        def factory(index):
            return InlineShard(
                workers=1, store_path=str(tmp_path / "fleet" / f"shard-{index:02d}")
            )

        async def drive():
            async with Gateway(shards=2, shard_factory=factory) as gw:
                first = [await gw.handle_solve(r.to_wire()) for r in reqs]
            async with Gateway(shards=2, shard_factory=factory) as gw:
                second = [await gw.handle_solve(r.to_wire()) for r in reqs]
                stats = await gw.fleet_stats()
            return first, second, stats

        first, second, stats = asyncio.run(drive())
        assert all(status == 200 for status, _, _ in first + second)
        for (_, a, _), (_, b, _) in zip(first, second):
            ra, rb = dict(a["result"]), dict(b["result"])
            ra.pop("metrics", None), rb.pop("metrics", None)
            assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True)
        # Restarted shards answered warm: prewarmed LRU hits, zero solves.
        fleet = stats["fleet"]
        assert fleet["store_prewarmed"] == len(reqs)
        assert fleet["hits"] == len(reqs)
        assert fleet["misses"] == 0


class TestStoreCli:
    def _populate(self, root, count=3):
        reqs = _requests(count, seed=90)
        with SolverService(workers=1, store_path=root) as svc:
            for req in reqs:
                svc.solve(req)
        return reqs

    def test_verify_export_import_compact_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "s")
        self._populate(root)
        assert main(["store", "verify", root]) == 0
        snap = str(tmp_path / "snap.jsonl")
        assert main(["store", "export", root, "--out", snap]) == 0
        other = str(tmp_path / "other")
        assert main(["store", "import", other, snap]) == 0
        assert main(["store", "compact", other]) == 0
        assert main(["store", "verify", other]) == 0
        out = capsys.readouterr().out
        assert "verified 3 records" in out
        assert "exported 3 results" in out
        assert "imported 3 results" in out

    def test_verify_fails_on_tampered_store(self, tmp_path, capsys):
        from repro.cli import main

        root = str(tmp_path / "s")
        self._populate(root, count=2)
        seg = _segments(root)[-1]
        lines = open(seg).read().splitlines()
        record = json.loads(lines[0])
        record["result"]["value"] = "7/2"
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        open(seg, "w").write("\n".join(lines) + "\n")
        assert main(["store", "verify", root]) == 1

    def test_unusable_dir_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not a directory")
        assert main(["store", "verify", str(blocker)]) == 2
