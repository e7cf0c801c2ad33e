"""Tests for the JSON-config sweep runner and its cell registry."""

import json

import pytest

from repro.analysis.config import (
    CELL_REGISTRY,
    load_config,
    register_cell,
    run_config,
)


class TestRegistry:
    def test_builtin_cells_present(self):
        for name in ("price_mixed", "bas_loss_random", "k0_price_random",
                     "budget_vs_pipeline"):
            assert name in CELL_REGISTRY

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_cell("price_mixed")(lambda rng: {"x": 1.0})


class TestLoadConfig:
    def test_from_dict(self):
        cfg = load_config({"cell": "price_mixed", "axes": {"k": [1]}})
        assert cfg["repeats"] == 1 and cfg["seed"] == 0

    def test_from_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"cell": "bas_loss_random", "axes": {"n": [50]}}))
        cfg = load_config(p)
        assert cfg["cell"] == "bas_loss_random"

    def test_missing_cell(self):
        with pytest.raises(ValueError, match="'cell'"):
            load_config({"axes": {}})

    def test_unknown_cell(self):
        with pytest.raises(ValueError, match="unknown cell"):
            load_config({"cell": "nope"})

    def test_bad_axes(self):
        with pytest.raises(ValueError, match="axes"):
            load_config({"cell": "price_mixed", "axes": {"k": 3}})

    def test_axes_default_to_one_cell(self):
        cfg = load_config({"cell": "bas_loss_random"})
        assert cfg["axes"] == {}
        assert len(run_config(cfg).rows) == 1

    @pytest.mark.parametrize("key", ["repeat", "executor", "chunksize"])
    def test_unknown_key_rejected(self, key):
        # A typo such as "repeat" must not silently run one repeat, and the
        # removed engine keys must not vanish without notice.
        with pytest.raises(ValueError, match=f"unknown config keys \\['{key}'\\]"):
            load_config({"cell": "price_mixed", "axes": {"k": [1]}, key: 4})


class TestRunConfig:
    def test_grid_rows(self):
        table = run_config(
            {"cell": "bas_loss_random", "axes": {"n": [40, 80], "k": [1, 2]},
             "repeats": 2, "seed": 5}
        )
        assert len(table.rows) == 4
        assert "loss" in table.columns

    def test_metrics_include_worst_case(self):
        table = run_config(
            {"cell": "bas_loss_random", "axes": {"n": [40]}, "repeats": 3}
        )
        assert "loss (worst)" in table.columns
        row = table.rows[0]
        loss = row[list(table.columns).index("loss")]
        worst = row[list(table.columns).index("loss (worst)")]
        assert worst >= loss - 1e-12

    def test_deterministic(self):
        cfg = {"cell": "k0_price_random", "axes": {"P": [4.0]}, "seed": 9}
        a = run_config(cfg).rows
        b = run_config(cfg).rows
        assert a == b

    def test_budget_vs_pipeline_cell(self):
        table = run_config(
            {"cell": "budget_vs_pipeline", "axes": {"n": [15]}, "seed": 2}
        )
        cols = list(table.columns)
        row = table.rows[0]
        assert row[cols.index("pipeline")] > 0
        assert row[cols.index("budget_edf")] > 0


class TestCliIntegration:
    def test_sweep_command(self, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"cell": "bas_loss_random", "axes": {"n": [40]}}))
        assert main(["sweep", str(p)]) == 0
        out = capsys.readouterr().out
        assert "bas_loss_random" in out

    def test_cells_command(self, capsys):
        from repro.cli import main

        assert main(["cells"]) == 0
        out = capsys.readouterr().out
        assert "price_mixed" in out
