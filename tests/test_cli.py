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
    hybrid = {"m_y": 2, "m_x": 2, "hidden": [4], "epochs": 2, "activation": "bogus"}
    config = _write_config(tmp_path, hybrid=hybrid)
    assert main(["run", "--config", str(config)]) == 1
    assert "hybrid" in capsys.readouterr().err


def test_run_bad_schedule_fails_when_the_config_loads(tmp_path, capsys):
    config = _write_config(tmp_path, schedule={"t_d": 5, "beta_start": 0.9, "beta_end": 0.5})
    assert main(["run", "--config", str(config)]) == 1
    assert "beta_start <= beta_end" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def _override_seed(argv, monkeypatch, via_env):
    if via_env:
        monkeypatch.setenv("ODEGUIDE_SEED", "-1")
        return argv
    return argv + ["--seed", "-1"]


def _negative_seed_error(via_env):
    """The variable names itself; the flag's message stays as it was."""
    return f"error: {'ODEGUIDE_SEED: ' if via_env else ''}seed must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("via_env", [False, True])
def test_run_bad_seed_override_fails_when_the_config_loads(tmp_path, capsys, monkeypatch, via_env):
    config = _write_config(tmp_path)
    argv = _override_seed(["run", "--config", str(config)], monkeypatch, via_env)
    assert main(argv) == 1
    assert capsys.readouterr().err == _negative_seed_error(via_env)
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("command", ["run", "case-study"])
@pytest.mark.parametrize("value", ["abc", "1.5", ""])
def test_a_seed_variable_that_is_not_an_integer_names_itself(tmp_path, capsys, monkeypatch, command, value):
    config = _write_config(tmp_path)
    if command == "case-study":
        config = tmp_path / "cs.json"
        config.write_text(json.dumps({"region_csv": str(tmp_path / "absent.csv")}))
    monkeypatch.setenv("ODEGUIDE_SEED", value)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert f"ODEGUIDE_SEED: seed must be an integer >= 0, got {value!r}" in err
    assert not (tmp_path / "out").exists()


def test_simulate_seirhd_writes_ten_states_that_keep_the_population(tmp_path):
    n_pop = 1000.0
    spec = {
        "family": "SEIRHD",
        "params": {"beta": 0.6, "alpha": 0.4, "delta": 0.3, "N": n_pop},
        "init": [n_pop - 10.0, 6.0, 4.0] + [0.0] * 7,
        "treatment": {"kind": "binary_policy", "mandate_start": 1.0},
        "dt": 0.1,
        "n_steps": 30,
    }
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "simulation.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 31
    assert list(rows[0]) == ["t"] + [f"z_{j}" for j in range(1, 11)]
    states = np.array([[float(r[f"z_{j}"]) for j in range(1, 11)] for r in rows])
    assert np.all(np.abs(states.sum(axis=1) - n_pop) <= 1e-9 * n_pop)
    assert not np.array_equal(states[0], states[-1])


def test_simulate_unknown_family_fails(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({"family": "LOTKA", "init": [], "treatment": {"kind": "dosing"}, "dt": 0.1, "n_steps": 1}))
    assert main(["simulate", "--config", str(config)]) == 1
    assert "unknown family" in capsys.readouterr().err


def test_simulate_misspelt_treatment_key_fails(tmp_path, capsys):
    spec = {
        "family": "SEIRM",
        "params": {"beta": 0.5, "alpha": 0.3, "gamma": 0.25, "mu": 0.02, "N": 1000.0},
        "init": [990.0, 5.0, 5.0, 0.0, 0.0],
        "treatment": {"kind": "binary_policy", "mandate_strat": 5},
        "dt": 0.1,
        "n_steps": 10,
    }
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(spec))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 1
    assert "mandate_strat" in capsys.readouterr().err


_PKPD_SIMULATION = {
    "family": "PKPD",
    "init": [10.0, 0.01, 0.01, 10.0],
    "treatment": {"kind": "dosing", "doses": [[1.0, 0.5]]},
    "dt": 0.1,
    "n_steps": 3,
}


@pytest.mark.parametrize("key", sorted(_PKPD_SIMULATION))
def test_simulate_names_a_missing_required_key(tmp_path, capsys, key):
    spec = {k: v for k, v in _PKPD_SIMULATION.items() if k != key}
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(spec))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 1
    assert f"missing required keys: [{key!r}]" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_simulate_names_an_unknown_key(tmp_path, capsys):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps({**_PKPD_SIMULATION, "n_step": 3}))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 1
    assert "unknown simulation config keys: ['n_step']" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "treatment, message",
    [
        ({"kind": "binary_policy", "mandate_start": 5.0, "doses": [[1.0, 0.5]]}, "no doses"),
        ({"kind": "dosing", "doses": [[1.0, 0.5]], "mandate_start": 5.0}, "no mandate_start"),
    ],
)
def test_simulate_schedule_of_the_wrong_kind_fails(tmp_path, capsys, treatment, message):
    spec = {
        "family": "PKPD",
        "params": {},
        "init": [10.0, 0.01, 0.01, 10.0],
        "treatment": treatment,
        "dt": 0.1,
        "n_steps": 10,
    }
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(spec))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "params, message",
    [
        ({"beta": 0.6, "alpha": 0.4, "delta": 0.3, "N": 0.0}, "params.N: population N must be positive"),
        ({"beta": 0.6, "alpha": float("nan"), "delta": 0.3, "N": 1e3}, "params.alpha must be finite, got nan"),
    ],
)
def test_simulate_names_the_params_key_out_of_range(tmp_path, capsys, params, message):
    spec = {
        "family": "SEIRHD",
        "params": params,
        "init": [990.0, 6.0, 4.0, 0, 0, 0, 0, 0, 0, 0],
        "treatment": {"kind": "binary_policy"},
        "dt": 0.1,
        "n_steps": 3,
    }
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(spec))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "grid, message",
    [
        ({"dt": 0.1, "n_steps": 2.5}, "n_steps must be an integer"),
        ({"dt": float("nan"), "n_steps": 3}, "t0 and dt must be finite"),
    ],
)
def test_simulate_bad_grid_fails_when_the_config_loads(tmp_path, capsys, grid, message):
    spec = {
        "family": "PKPD",
        "params": {},
        "init": [10.0, 0.01, 0.01, 10.0],
        "treatment": {"kind": "dosing"},
        **grid,
    }
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(spec))
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize(
    "init",
    [[[10.0, 0.01, 0.01, 10.0], [8.0, 0.02, 0.0, 12.0]], [[10.0, 0.01], 0.01, 10.0]],
    ids=["batch", "ragged"],
)
def test_simulate_rejects_an_init_that_is_not_one_state_before_writing(tmp_path, capsys, init):
    spec = {
        "family": "PKPD",
        "params": {},
        "init": init,
        "treatment": {"kind": "dosing", "doses": [[1.0, 0.5]]},
        "dt": 0.1,
        "n_steps": 10,
    }
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(spec))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    assert "init must be one state" in capsys.readouterr().err
    assert not (out / "simulation.csv").exists()


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


@pytest.mark.parametrize("via_env", [False, True])
def test_case_study_bad_seed_override_fails_before_reading_regions(
    tmp_path, capsys, monkeypatch, via_env
):
    config = tmp_path / "cs.json"
    config.write_text(json.dumps({"region_csv": str(tmp_path / "absent.csv")}))
    out = tmp_path / "cs_out"
    argv = ["case-study", "--config", str(config), "--out", str(out)]
    assert main(_override_seed(argv, monkeypatch, via_env)) == 1
    assert capsys.readouterr().err == _negative_seed_error(via_env)
    assert not out.exists()
