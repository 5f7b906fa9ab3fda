import csv
import json

import numpy as np
import pytest

from odeguide.cli import build_parser, main


def _write_config(tmp_path, **overrides):
    base = dict(
        dataset={"kind": "dex", "n_units": 6, "n_days": 4},
        out_dir=str(tmp_path / "out"),
        seed=0,
        hybrid={"m_y": 2, "m_x": 2, "hidden": [4], "epochs": 2},
        schedule={"t_d": 5},
        diffusion={"epochs": 3, "hidden": [8], "batch_size": 4},
        evaluation={"n_samples": 3, "test_fraction": 0.34},
    )
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def test_parser_requires_subcommand_and_config():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
    with pytest.raises(SystemExit):
        parser.parse_args(["run"])


def test_datagen_writes_dataset(tmp_path):
    config = _write_config(tmp_path)
    assert main(["datagen", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "factual.csv").exists()


def test_run_produces_report(tmp_path):
    config = _write_config(tmp_path)
    assert main(["run", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "wasserstein1" in report


def test_train_hybrid_stops_early(tmp_path):
    config = _write_config(tmp_path)
    assert main(["train-hybrid", "--config", str(config)]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoints" / "hybrid.json").exists()
    assert not (out / "report.json").exists()


def test_out_flag_overrides_config(tmp_path):
    config = _write_config(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["train-hybrid", "--config", str(config), "--out", str(other)]) == 0
    assert (other / "checkpoints" / "hybrid.json").exists()


def test_failure_returns_nonzero(tmp_path, capsys):
    config = _write_config(tmp_path, schedule={"t_d": 5, "beta_start": 0.9, "beta_end": 0.5})
    assert main(["run", "--config", str(config)]) == 1
    assert "diffusion" in capsys.readouterr().err


def test_missing_config_returns_nonzero(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_seed_flag_and_env_precedence(tmp_path, monkeypatch):
    config = _write_config(tmp_path)
    out_flag = tmp_path / "flagged"
    assert main(["datagen", "--config", str(config), "--seed", "7", "--out", str(out_flag)]) == 0
    # the env variable wins over both config and flag
    monkeypatch.setenv("ODEGUIDE_SEED", "7")
    out_env = tmp_path / "env"
    assert main(["datagen", "--config", str(config), "--seed", "3", "--out", str(out_env)]) == 0
    assert (out_flag / "factual.csv").read_bytes() == (out_env / "factual.csv").read_bytes()
    # and a different seed changes the dataset
    monkeypatch.delenv("ODEGUIDE_SEED")
    out_other = tmp_path / "other"
    assert main(["datagen", "--config", str(config), "--seed", "8", "--out", str(out_other)]) == 0
    assert (out_flag / "factual.csv").read_bytes() != (out_other / "factual.csv").read_bytes()


def test_simulate_writes_trajectory(tmp_path):
    spec = {
        "family": "PKPD",
        "params": {},
        "init": [10.0, 0.01, 0.01, 10.0],
        "treatment": {"kind": "dosing", "doses": [[1.0, 0.5]]},
        "dt": 0.1,
        "n_steps": 10,
    }
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "simulation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 11
    assert set(rows[0]) == {"t", "z_1", "z_2", "z_3", "z_4"}
    assert float(rows[0]["z_1"]) == 10.0


def test_simulate_unknown_family_fails(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"family": "LOTKA", "init": [], "treatment": {"kind": "dosing"}, "dt": 0.1, "n_steps": 1}))
    assert main(["simulate", "--config", str(config)]) == 1
    assert "unknown family" in capsys.readouterr().err


def test_case_study_command(tmp_path):
    regions = tmp_path / "regions.csv"
    pre = np.linspace(0.0, 1.0, 4)
    with open(regions, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "week", "deaths_per_capita", "hospitalizations", "policy"])
        for i in range(3):
            for week in range(8):
                writer.writerow([f"weak_{i}", week, repr(float(pre[week % 4])), "0.0", 0])
        for i in range(3):
            for week in range(8):
                writer.writerow(
                    [f"strong_{i}", week, repr(float(pre[week % 4] + (week >= 4))), "0.0", int(week >= 4)]
                )
    config = tmp_path / "cs.json"
    config.write_text(
        json.dumps(
            {
                "region_csv": str(regions),
                "train_weeks": 4,
                "k_neighbors": 4,
                "test_regions": ["weak_0"],
            }
        )
    )
    out = tmp_path / "cs_out"
    assert main(["case-study", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "case_study.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["region"] == "weak_0"
    assert rows[0]["skipped"] == ""


def test_case_study_bad_config_fails_before_reading_regions(tmp_path, capsys):
    config = tmp_path / "cs.json"
    config.write_text(json.dumps({"region_csv": str(tmp_path / "absent.csv"), "test_regions": "random:0"}))
    out = tmp_path / "cs_out"
    assert main(["case-study", "--config", str(config), "--out", str(out)]) == 1
    assert "test_regions" in capsys.readouterr().err
    assert not out.exists()
