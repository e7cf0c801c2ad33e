"""Unit tests for the CLI front end."""

import json
from dataclasses import fields

import pytest

from repro.analysis.config import CELL_REGISTRY
from repro.cli import main
from repro.serve.service import ServiceStats


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("e1", "e6", "e7a", "e10"):
            assert name in out


class TestRun:
    def test_run_single(self, capsys):
        assert main(["run", "e7a"]) == 0
        out = capsys.readouterr().out
        assert "geometric chain" in out

    def test_run_markdown(self, capsys):
        assert main(["run", "e7a", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("###")
        assert "|" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "e1", "e7a"]) == 0
        out = capsys.readouterr().out
        assert "Appendix-A" in out and "geometric chain" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "e99"])


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "OPT_inf" in out
        assert "k=0" in out and "k=2" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand_exits_2_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "frobnicate" in err


class TestFuzzErrorPaths:
    def test_bad_replay_file_exits_2_with_stderr(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["fuzz", "--replay", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot replay" in err and "nope.json" in err

    def test_unparseable_replay_file_exits_2(self, capsys, tmp_path):
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        assert main(["fuzz", "--replay", str(garbage)]) == 2
        err = capsys.readouterr().err
        assert "cannot replay" in err

    def test_smoke_contradicts_instances(self, capsys):
        assert main(["fuzz", "--smoke", "--instances", "5"]) == 2
        err = capsys.readouterr().err
        assert "--smoke" in err and "--instances" in err

    def test_replay_contradicts_fuzz_flags(self, capsys, tmp_path):
        case = tmp_path / "case.json"
        case.write_text("{}")
        assert main(["fuzz", "--replay", str(case), "--smoke"]) == 2
        err = capsys.readouterr().err
        assert "--replay" in err and "--smoke" in err
        assert (
            main(["fuzz", "--replay", str(case), "--inject-fault", "tm.loop.topk-order"])
            == 2
        )
        err = capsys.readouterr().err
        assert "--inject-fault" in err

    def test_unknown_fault_rejected_before_fuzzing(self, capsys):
        assert main(["fuzz", "--inject-fault", "no.such.fault"]) == 2
        err = capsys.readouterr().err
        assert "unknown fault" in err and "no.such.fault" in err

    def test_list_oracles_includes_serve_pair(self, capsys):
        assert main(["fuzz", "--list-oracles"]) == 0
        out = capsys.readouterr().out
        assert "served-vs-direct" in out


class TestSweepErrorPaths:
    """A bad sweep config is one ``repro-bench sweep: error:`` line on
    stderr and exit 2, not a Python traceback."""

    @pytest.mark.parametrize(
        "text, needle",
        [
            ('{"cell": "bas_loss_random", "axes": {"n": [40]}, "repeat": 4}',
             "unknown config keys ['repeat']"),
            ('{"cell": "no_such_cell"}', "unknown cell 'no_such_cell'"),
            ('{"cell": "bas_loss_random", "axes": {"n": 40}}', "'axes' must map"),
            ('{"cell": "bas_loss_random", "axes": {"n": [40]},', "cfg.json: invalid JSON"),
            ('["bas_loss_random"]', "must be a JSON object"),
            ('{"cell": "bas_loss_random", "repeats": "4"}', "'repeats' must be an integer"),
            ('{"cell": "bas_loss_random", "repeats": 0}', "'repeats' must be >= 1"),
            ('{"cell": "bas_loss_random", "repeats": true}', "'repeats' must be an integer"),
            ('{"cell": "bas_loss_random", "seed": -1}', "'seed' must be >= 0"),
            ('{"cell": "bas_loss_random", "workers": 0}', "'workers' must be >= 1"),
        ],
        ids=["unknown-key", "unknown-cell", "non-list-axes", "invalid-json",
             "non-object", "non-integer-repeats", "zero-repeats", "bool-repeats",
             "negative-seed", "zero-workers"],
    )
    def test_bad_config_exits_2_with_one_line(self, capsys, tmp_path, text, needle):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["sweep", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-bench sweep: error: ")
        assert needle in lines[0]

    def test_missing_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["sweep", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-bench sweep: error: ") and "nope.json" in err

    def test_zero_workers_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cell": "bas_loss_random", "axes": {"n": [30]}}))
        assert main(["sweep", str(cfg), "--workers", "0"]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_good_config_prints_table(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cell": "bas_loss_random", "axes": {"n": [30]}}))
        assert main(["sweep", str(cfg)]) == 0
        assert "sweep: bas_loss_random" in capsys.readouterr().out

    def test_cell_exception_propagates(self, monkeypatch, tmp_path):
        def boom(rng, x):
            raise ValueError("cell failed mid-sweep")

        monkeypatch.setitem(CELL_REGISTRY, "boom", boom)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cell": "boom", "axes": {"x": [1]}}))
        with pytest.raises(ValueError, match="cell failed mid-sweep"):
            main(["sweep", str(cfg)])


class TestServeBench:
    def test_serve_bench_reports_speedup(self, capsys, tmp_path):
        out = tmp_path / "serve.json"
        assert (
            main(
                [
                    "serve-bench", "--requests", "60", "--seed", "7",
                    "--corpus", "6", "--n", "8", "--json", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "cached p50 speedup" in text
        # The summary line reports the service counters.
        for name in ("requests", "hits", "misses", "coalesced", "degraded", "evictions"):
            assert f"{name}=" in text
        payload = json.loads(out.read_text())
        assert payload["requests"] == 60
        assert payload["stats"]["hits"] == 60
        assert set(payload["stats"]) == {f.name for f in fields(ServiceStats)}
        assert payload["cached_p50_ms"] > 0
        assert payload["p50_speedup"] > 1

    def test_serve_bench_min_speedup_gate(self, capsys):
        # An impossible gate must flip the exit code, not crash.
        assert (
            main(
                [
                    "serve-bench", "--requests", "20", "--corpus", "4",
                    "--n", "6", "--min-speedup", "1e9",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "below required" in err

    def test_serve_bench_rejects_bad_requests(self, capsys):
        assert main(["serve-bench", "--requests", "0"]) == 2
        assert "--requests" in capsys.readouterr().err


class TestGatewayBench:
    def test_gateway_bench_inline_reports_and_writes_json(self, capsys, tmp_path):
        out = tmp_path / "gateway.json"
        assert (
            main(
                [
                    "gateway-bench", "--inline", "--shards", "2",
                    "--rps", "40", "--duration", "1", "--corpus", "6",
                    "--n", "6", "--max-p99-ms", "5000", "--out", str(out),
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "latency p50" in text
        assert "shard 0:" in text and "shard 1:" in text
        assert "disagreements=0" in text
        payload = json.loads(out.read_text())
        assert payload["format"] == "repro-gateway-bench/1"
        assert payload["disagreements"] == 0
        assert payload["route_mismatches"] == 0
        assert all(s["hits"] + s["answer_hits"] > 0 for s in payload["per_shard"])

    def test_gateway_bench_p99_gate_flips_exit_code(self, capsys):
        assert (
            main(
                [
                    "gateway-bench", "--inline", "--shards", "2",
                    "--rps", "30", "--duration", "1", "--corpus", "4",
                    "--n", "6", "--max-p99-ms", "0.000001",
                ]
            )
            == 1
        )
        assert "above SLO" in capsys.readouterr().err

    def test_gateway_bench_rejects_bad_shards(self, capsys):
        assert main(["gateway-bench", "--shards", "0", "--inline"]) == 2
        assert "--shards" in capsys.readouterr().err
