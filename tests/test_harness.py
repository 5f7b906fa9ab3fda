import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from odeguide import harness, metrics
from odeguide.harness import (
    CaseStudyConfig,
    ExperimentConfig,
    Scaler,
    StageError,
    case_study,
    evaluate_ensembles,
    load_regions,
    run_experiment,
    write_case_study_csv,
)
from odeguide.metrics import dtw, wasserstein1


def _tiny_config(out_dir, **overrides):
    base = dict(
        dataset={"kind": "dex", "n_units": 6, "n_days": 4},
        out_dir=str(out_dir),
        seed=0,
        hybrid={"m_y": 2, "m_x": 2, "hidden": [4], "epochs": 2},
        schedule={"t_d": 5},
        diffusion={"epochs": 3, "hidden": [8], "batch_size": 4},
        evaluation={"n_samples": 3, "test_fraction": 0.34},
    )
    base.update(overrides)
    return ExperimentConfig.from_dict(base)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"dataset": {"kind": "dex"}, "out_dir": "x", "bogus": 1})
    with pytest.raises(ValueError, match="unknown schedule keys"):
        ExperimentConfig(dataset={"kind": "dex"}, out_dir="x", schedule={"t_D": 10})
    # the hybrid's contact rate decays at the rate the data and the guidance use
    with pytest.raises(ValueError, match="unknown hybrid keys"):
        ExperimentConfig(dataset={"kind": "dex"}, out_dir="x", hybrid={"decay_lambda": 0.01})
    for section, key in (("hybrid", "n_substeps"), ("schedule", "lambda_const"), ("diffusion", "n_freq")):
        with pytest.raises(ValueError, match=rf"unknown {section} keys: \['{key}'\]"):
            ExperimentConfig(dataset={"kind": "dex"}, out_dir="x", **{section: {key: 1}})
    with pytest.raises(ValueError, match="'path' or a 'kind'"):
        ExperimentConfig(dataset={"kind": "mnist"}, out_dir="x")


@pytest.mark.parametrize(
    "dataset, key, source",
    [
        ({"kind": "covid", "n_days": 30}, "n_days", "covid"),
        ({"kind": "dex", "n_weeks": 3}, "n_weeks", "dex"),
        ({"path": ".", "n_units": 5}, "n_units", "path"),
    ],
)
def test_config_rejects_dataset_keys_its_source_does_not_read(dataset, key, source):
    with pytest.raises(ValueError, match=rf"dataset keys \['{key}'\] do not apply to a '{source}'"):
        ExperimentConfig(dataset=dataset, out_dir="x")


@pytest.mark.parametrize(
    "kind, expert, message",
    [
        ("dex", {"bogus": 1}, r"^unknown expert keys: \['bogus'\]$"),
        ("covid", {"k_Dex": 1.0}, r"^unknown expert keys: \['k_Dex'\]$"),
        ("dex", {"k_Dex": "a"}, "^expert.k_Dex must be a number, got 'a'$"),
        ("dex", {"full_model": 1}, "^expert.full_model must be true or false, got 1$"),
        ("covid", {"beta": None}, "^expert.beta must be a number, got None$"),
        ("covid", {"N": 0.0}, "^expert.N: population N must be positive$"),
        ("covid", {"beta": -1.0}, "^expert.beta: beta must be nonnegative$"),
        ("dex", {"EC_50": 0.0}, "^expert.EC_50: EC_50 must be positive$"),
        ("dex", {"h_P": 0.5}, "^expert.h_P: h_P must be >= 1$"),
        ("covid", {"beta": float("nan")}, "^expert.beta must be finite, got nan$"),
        ("dex", {"k_Dex": float("inf")}, "^expert.k_Dex must be finite, got inf$"),
        ("dex", {"EC_50": float("nan")}, "^expert.EC_50 must be finite, got nan$"),
    ],
)
def test_config_checks_the_expert_section_when_loaded(kind, expert, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(dataset={"kind": kind}, out_dir="x", expert=expert)


def test_a_covid_expert_rate_overrides_only_its_own_harness_default():
    ExperimentConfig(dataset={"kind": "covid"}, out_dir="x", expert={"gamma": 0.3})
    family, params, _, _ = harness._expert_setup("covid", {"gamma": 0.3})
    assert family == "SEIRM"
    assert (params.beta, params.alpha, params.gamma, params.mu, params.N) == (0.5, 0.3, 0.3, 0.02, 1000.0)


def test_a_stored_datasets_expert_section_is_checked_in_the_data_stage(tmp_path):
    """A stored dataset names its expert family only when it is read."""
    from odeguide.datagen import gen_dex_dataset, write_dataset

    write_dataset(gen_dex_dataset(n_patients=3, seed=0, n_days=4), tmp_path / "data")
    dataset = {"path": str(tmp_path / "data")}
    config = _tiny_config(tmp_path / "run", dataset=dataset, expert={"bogus": 1})
    with pytest.raises(StageError, match=r"unknown expert keys: \['bogus'\]") as err:
        run_experiment(config)
    assert err.value.stage == "data"


def test_config_missing_dataset_path_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        ExperimentConfig(dataset={"path": str(tmp_path / "nope")}, out_dir="x")


def test_config_json_round_trip(tmp_path):
    config = _tiny_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    again = ExperimentConfig.from_file(path)
    assert again.to_json() == config.to_json()


def test_scaler_round_trip_and_guards():
    values = np.array([1.0, 2.0, 3.0, 10.0])
    s = Scaler.fit(values)
    np.testing.assert_allclose(s.inverse(s.transform(values)), values, atol=1e-12)
    assert s.transform(values).mean() == pytest.approx(0.0, abs=1e-12)
    assert Scaler.fit([5.0, 5.0]).std > 0  # constant input never divides by 0
    with pytest.raises(ValueError, match="no values"):
        Scaler.fit([])


def test_evaluate_ensembles_perfect_prediction(tmp_path):
    from odeguide.datagen import gen_dex_dataset

    data = gen_dex_dataset(n_patients=2, seed=0, sigma=0.0, n_days=4)
    units = data.units
    ensembles = []
    for u in units:
        truth = u.counterfactual.y_clean
        rng = np.random.default_rng(0)
        ens = truth[None, :] + 1e-9 * rng.standard_normal((5, truth.size))
        ensembles.append(ens)
    report = evaluate_ensembles(ensembles, units)
    assert report.rmse == pytest.approx(0.0, abs=1e-6)
    assert report.wasserstein1 == pytest.approx(0.0, abs=1e-6)
    assert report.pearson_corr == pytest.approx(1.0, abs=1e-6)
    assert report.n_units == 2 and report.n_samples == 5


@pytest.mark.parametrize("poison", [np.nan, 100.0])
def test_cate_reads_only_observed_factual_outcomes(poison):
    from odeguide.datagen import gen_dex_dataset

    units = gen_dex_dataset(n_patients=3, seed=0, n_days=4).units
    assert not all(u.factual.observed.all() for u in units)
    rng = np.random.default_rng(1)
    ensembles = [u.counterfactual.y + rng.standard_normal((4, u.counterfactual.y.size)) for u in units]
    clean = evaluate_ensembles(ensembles, units).cate_rmse
    poisoned = evaluate_ensembles(ensembles, [_poison_unobserved(u, poison) for u in units]).cate_rmse
    assert np.isfinite(clean) and poisoned == clean


def test_evaluate_ensembles_requires_matching_lengths():
    with pytest.raises(ValueError, match="one ensemble per"):
        evaluate_ensembles([], [])


def test_evaluate_ensembles_refuses_nonfinite_input():
    from odeguide.datagen import gen_dex_dataset

    units = gen_dex_dataset(n_patients=2, seed=0, n_days=4).units
    ensembles = [np.zeros((3, u.counterfactual.y.size)) for u in units]
    ensembles[1][2, 1] = np.nan
    with pytest.raises(ValueError, match="evaluate: .*not finite"):
        evaluate_ensembles(ensembles, units)


def test_divergent_guidance_fails_in_the_sample_stage(tmp_path):
    config = _tiny_config(tmp_path, guidance={"eta": 1e300, "nu": 0.0, "select": False})
    with np.errstate(all="ignore"), pytest.raises(StageError, match="non-finite") as info:
        run_experiment(config)
    assert info.value.stage == "sample"
    assert not (tmp_path / "report.json").exists()


def test_guidance_inputs_are_built_once_per_unit(tmp_path, monkeypatch):
    from odeguide import harness

    calls = {"simulate_expert": 0, "predict": 0, "sample": 0}
    simulated_rows = []
    for name in calls:
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            if _name == "simulate_expert":
                simulated_rows.append(len(args[0].init))
            return _original(*args, **kwargs)

        monkeypatch.setattr(harness, name, counted)
    config = _tiny_config(
        tmp_path,
        guidance={
            "eta_candidates": [0.0, 0.01, 0.02],
            "nu": 0.01,
            "select": True,
            "n_val_units": 2,
            "n_val_samples": 2,
        },
    )
    run_experiment(config)
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    n_train, n_test = meta["n_train"], meta["n_test"]
    # dex has two treatment schedules (dosed and undosed), each simulated
    # once per run: select-eta's validation units hold both, so the sample
    # stage simulates nothing; one batched rollout of both arms of every
    # unit, in the diffusion stage, conditions every stage's units
    assert calls["simulate_expert"] == 1
    assert simulated_rows == [2]
    assert calls["predict"] == 1
    assert n_train > 2
    # one stacked reverse pass for the validation units (all candidates)
    # and one for the test units (unguided and guided ensembles together)
    assert n_test > 1
    assert calls["sample"] == 2


@pytest.mark.parametrize("kind", ["dex", "covid"])
def test_each_guidance_curve_equals_its_single_schedule_simulation(tmp_path, monkeypatch, kind):
    from odeguide import harness

    built = []
    original = harness._unit_inputs

    def recorded(state, units, arm, guided=False):
        cond, guidance = original(state, units, arm, guided)
        if guided:
            built.append((state, units, guidance))
        return cond, guidance

    monkeypatch.setattr(harness, "_unit_inputs", recorded)
    dataset = {"kind": "dex", "n_units": 6, "n_days": 4}
    if kind == "covid":
        dataset = {"kind": "covid", "n_units": 4}
    config = _tiny_config(
        tmp_path,
        dataset=dataset,
        guidance={"eta_candidates": [0.0, 0.01], "nu": 0.01, "select": True, "n_val_units": 2},
    )
    run_experiment(config)
    n_test = json.loads((tmp_path / "run_meta.json").read_text())["n_test"]
    assert [len(units) for _, units, _ in built] == [2, n_test]
    for state, units, guidance in built:
        family, params, init, dt = state["expert"]

        def single(schedule):
            return harness._expert_outcomes(family, params, init, [schedule], state["times"], dt)[0]

        assert len(state["expert_curves"]) == 2
        for schedule, curve in state["expert_curves"].items():
            np.testing.assert_array_equal(curve, single(schedule))
        y_s = state["y_scaler"]
        signals = guidance[0]
        for i, unit in enumerate(units):
            f_sim, cf_sim = single(unit.treatment_factual), single(unit.treatment_counterfactual)
            y_f, observed = y_s.transform(unit.factual.y), unit.factual.observed
            _, f, cf = harness.align_factual(f_sim[None], cf_sim[None], y_f[None], observed[None])
            np.testing.assert_array_equal(signals.f_f[i], f)
            np.testing.assert_array_equal(signals.f_cf[i], cf)


def _poison_unobserved(unit, poison):
    """``unit`` with ``poison`` added to its factual outcome (and clean
    outcome) wherever that is unobserved."""
    from dataclasses import replace

    f = unit.factual
    hidden = np.where(f.observed, 0.0, poison)
    y_clean = None if f.y_clean is None else f.y_clean + hidden
    return replace(unit, factual=replace(f, y=f.y + hidden, y_clean=y_clean))


@pytest.mark.parametrize("poison", [np.nan, 100.0])
def test_guidance_signals_do_not_read_unobserved_factual_outcomes(tmp_path, monkeypatch, poison):
    built = []
    original = harness._unit_inputs

    def recorded(state, units, arm, guided=False):
        if guided:
            built.append((state, units))
        return original(state, units, arm, guided)

    monkeypatch.setattr(harness, "_unit_inputs", recorded)
    guidance = {"eta_candidates": [0.0, 0.01], "nu": 0.01, "select": True, "n_val_units": 2}
    run_experiment(_tiny_config(tmp_path, guidance=guidance))
    assert len(built) == 2  # the select-eta and the sample stage
    for state, units in built:
        assert not all(u.factual.observed.all() for u in units)
        clean, _, clean_y_f = original(state, units, "counterfactual", True)[1]
        poisoned = [_poison_unobserved(u, poison) for u in units]
        dirty, _, dirty_y_f = original(state, poisoned, "counterfactual", True)[1]
        assert np.isfinite(dirty.f_f).all() and np.isfinite(dirty.f_cf).all()
        assert dirty.f_f.tobytes() == clean.f_f.tobytes()
        assert dirty.f_cf.tobytes() == clean.f_cf.tobytes()
        assert np.isfinite(dirty_y_f).all()
        assert dirty_y_f.tobytes() == clean_y_f.tobytes()


def test_run_meta_records_what_fixes_the_bits(tmp_path, monkeypatch):
    run_experiment(_tiny_config(tmp_path), stop_after="data")
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    for key in ("blas_core", "power_simd", "numpy_version", "python_version"):
        assert isinstance(meta[key], str) and meta[key], key
    assert meta["numpy_version"] == np.__version__

    def missing(*args):
        raise OSError("no such library")

    monkeypatch.setattr(harness.ctypes, "CDLL", missing)
    assert harness._numerics()["blas_core"] == "unknown"


def test_traced_run_binds_every_traced_name(tmp_path):
    """The benchmark tracer patches harness attributes and binds their
    arguments by name; a rename or signature change in the package fails
    here."""
    import importlib.util

    from odeguide import harness

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original_predict = harness.predict
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        run = tracer.timed(spans.ROOT_SPAN, run_experiment)
        run(
            _tiny_config(
                tmp_path,
                guidance={
                    "eta_candidates": [0.0, 0.01],
                    "nu": 0.01,
                    "select": True,
                    "n_val_units": 2,
                    "n_val_samples": 2,
                },
            )
        )
    finally:
        spans.uninstall(saved)
    assert harness.predict is original_predict
    metrics = spans.layer_metrics(tracer)
    assert metrics["hybrid_cp.predict.calls"] == 1
    assert metrics["hybrid_cp.predict.distinct_ratio"] == 1.0
    assert metrics["expert_models.simulate_expert.calls"] > 0
    assert metrics["diffusion.sample.members"] > 0
    assert metrics["guidance.select_eta.busy_s"] > 0


@pytest.mark.parametrize("key", ["n_val_units", "n_val_samples"])
@pytest.mark.parametrize("value", [0, -1, 1.5, True, "2"])
def test_config_rejects_bad_validation_counts(tmp_path, key, value):
    with pytest.raises(ValueError, match=f"guidance.{key} must be an integer >= 1"):
        _tiny_config(tmp_path, guidance={"select": True, key: value})


@pytest.mark.parametrize("value", ["3", True, -1, 1.5])
def test_config_rejects_a_seed_that_is_not_a_nonnegative_integer_when_loaded(tmp_path, value):
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        _tiny_config(tmp_path, seed=value)


_COUNT_MINIMUM = {
    ("evaluation", "n_samples"): 2,
    ("hybrid", "epochs"): 1,
    ("hybrid", "m_y"): 1,
    ("hybrid", "m_x"): 1,
    ("diffusion", "epochs"): 1,
    ("diffusion", "batch_size"): 1,
}


@pytest.mark.parametrize("section,key", list(_COUNT_MINIMUM))
@pytest.mark.parametrize("value", [0, -1, 1.5, True, "2"])
def test_config_rejects_bad_counts_when_loaded(tmp_path, section, key, value):
    low = _COUNT_MINIMUM[section, key]
    with pytest.raises(ValueError, match=f"{section}.{key} must be an integer >= {low}"):
        _tiny_config(tmp_path, **{section: {key: value}})


def test_config_rejects_one_evaluation_sample_when_loaded(tmp_path):
    with pytest.raises(ValueError, match="evaluation.n_samples must be an integer >= 2, got 1"):
        _tiny_config(tmp_path, evaluation={"n_samples": 1})


@pytest.mark.parametrize("section", ["hybrid", "diffusion"])
@pytest.mark.parametrize("hidden", [[0], [8, -1], [2.5], [True], 4, "8", None])
def test_config_rejects_hidden_widths_that_are_not_counts(tmp_path, section, hidden):
    with pytest.raises(ValueError, match=f"{section}.hidden must be a list of integers >= 1"):
        _tiny_config(tmp_path, **{section: {"hidden": hidden}})


@pytest.mark.parametrize("value", ["foo", "Tanh", "", None, 1, ["tanh"]])
def test_config_rejects_an_activation_the_mlp_lacks_when_loaded(tmp_path, value):
    with pytest.raises(ValueError, match=r"hybrid.activation must be one of \['identity', 'relu'"):
        _tiny_config(tmp_path, hybrid={"activation": value})


@pytest.mark.parametrize("value", ["identity", "relu", "sigmoid", "tanh"])
def test_config_accepts_every_mlp_activation(tmp_path, value):
    assert _tiny_config(tmp_path, hybrid={"activation": value}).hybrid["activation"] == value


@pytest.mark.parametrize("value", [-1.0, 0, 0.0, 1, 1.0, 5.0, float("nan"), True, "0.2"])
def test_config_rejects_a_test_fraction_outside_0_1(tmp_path, value):
    with pytest.raises(ValueError, match=r"evaluation.test_fraction must lie in \(0, 1\)"):
        _tiny_config(tmp_path, evaluation={"n_samples": 3, "test_fraction": value})


@pytest.mark.parametrize(
    "section,value,message",
    [
        ("diffusion", {"lr": 0.0}, r"diffusion.lr must lie in \(0, inf\), got 0.0"),
        ("diffusion", {"lr": float("nan")}, r"diffusion.lr must lie in \(0, inf\), got nan"),
        ("diffusion", {"lr": float("inf")}, r"diffusion.lr must lie in \(0, inf\)"),
        ("diffusion", {"lr": "0.1"}, r"diffusion.lr must lie in \(0, inf\)"),
        ("hybrid", {"epochs": 2, "lr": -1.0}, r"hybrid.lr must lie in \(0, inf\), got -1.0"),
        ("hybrid", {"epochs": 2, "lr": True}, r"hybrid.lr must lie in \(0, inf\)"),
        ("schedule", {"t_d": 0}, "schedule.t_d must be an integer >= 1, got 0"),
        ("schedule", {"t_d": 2.5}, "schedule.t_d must be an integer >= 1, got 2.5"),
        ("schedule", {"t_d": 5, "beta_end": 1.5}, "beta_start <= beta_end < 1"),
        ("schedule", {"t_d": 5, "beta_start": 0.9, "beta_end": 0.5}, "beta_start <= beta_end"),
        ("schedule", {"t_d": 5, "beta_start": 0.0}, "0 < beta_start"),
        ("schedule", {"t_d": 5, "beta_start": "x"}, "schedule.beta_start must be a number, got 'x'"),
        ("schedule", {"t_d": 5, "beta_end": None}, "schedule.beta_end must be a number, got None"),
    ],
)
def test_config_rejects_bad_learning_rates_and_schedules_when_loaded(tmp_path, section, value, message):
    with pytest.raises(ValueError, match=message):
        _tiny_config(tmp_path, **{section: value})


def test_config_accepts_integral_learning_rates_and_the_default_schedule(tmp_path):
    config = _tiny_config(tmp_path, diffusion={"epochs": 3, "lr": 1}, schedule={})
    assert config.diffusion["lr"] == 1


@pytest.mark.parametrize(
    "guidance,message",
    [
        ({"eta_candidates": [-0.5, 0.0], "select": True}, "guidance.eta_candidates must .* got -0.5"),
        ({"eta_candidates": [0.0, float("inf")], "select": True}, "guidance.eta_candidates must .* got inf"),
        ({"eta_candidates": [], "select": True}, "eta_candidates must be nonempty"),
        ({"eta": float("nan")}, "guidance.eta must be a finite nonnegative number, got nan"),
        ({"nu": float("inf")}, "guidance.nu must be a finite nonnegative number, got inf"),
        ({"eta": "x"}, "guidance.eta must be a finite nonnegative number, got 'x'"),
        ({"eta": -0.1}, "guidance.eta must be a finite nonnegative number, got -0.1"),
        ({"select": "no"}, "guidance.select must be true or false, got 'no'"),
        ({"select": 1}, "guidance.select must be true or false, got 1"),
        ({"use_value": 0}, "guidance.use_value must be true or false, got 0"),
        ({"use_direction": None}, "guidance.use_direction must be true or false, got None"),
        ({"eta_candidates": 5}, "guidance.eta_candidates must be a list, got 5"),
    ],
)
def test_config_rejects_bad_guidance_when_loaded(tmp_path, guidance, message):
    with pytest.raises(ValueError, match=message):
        _tiny_config(tmp_path, guidance=guidance)


def test_config_builds_the_guidance_config_when_loaded(tmp_path):
    config = _tiny_config(
        tmp_path, guidance={"eta_candidates": [1, 0], "nu": 0.01, "select": True, "use_value": False}
    )
    gcfg = config.guidance_config
    assert gcfg.eta_candidates == (1.0, 0.0) and all(type(v) is float for v in gcfg.eta_candidates)
    assert (gcfg.eta, gcfg.nu, gcfg.use_value, gcfg.use_direction) == (0.0, 0.01, False, True)
    assert _tiny_config(tmp_path).guidance_config is None


@pytest.mark.parametrize("section", ["dataset", "expert", "hybrid", "schedule", "diffusion", "evaluation"])
@pytest.mark.parametrize("value", [None, [], 3])
def test_config_rejects_a_section_that_is_not_a_mapping(tmp_path, section, value):
    message = f"config section {section!r} must be a mapping, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        _tiny_config(tmp_path, **{section: value})


def test_data_stage_rejects_a_single_unit(tmp_path):
    config = _tiny_config(tmp_path, dataset={"kind": "dex", "n_units": 1, "n_days": 4})
    with pytest.raises(StageError, match="at least 2 units") as err:
        run_experiment(config)
    assert err.value.stage == "data"


def test_run_experiment_unknown_stage_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown stage"):
        run_experiment(_tiny_config(tmp_path), stop_after="deploy")


def test_run_experiment_stage_failure_reports_stage(tmp_path, monkeypatch):
    # the hybrid stage fails as a diverging training run does (a bad
    # activation would fail earlier, when the config loads)
    from odeguide import harness
    from odeguide.diff_engine import TrainingError

    def diverging(model, dataset):
        raise TrainingError("loss diverged at epoch 0")

    monkeypatch.setattr(harness, "train_hybrid", diverging)
    with pytest.raises(StageError, match="hybrid"):
        run_experiment(_tiny_config(tmp_path))
    # partial artifacts still persisted
    assert (tmp_path / "log.txt").exists()
    assert (tmp_path / "run_meta.json").exists()


def test_run_experiment_stop_after_partial_artifacts(tmp_path):
    config = _tiny_config(tmp_path)
    result = run_experiment(config, stop_after="hybrid")
    assert result is None
    assert (tmp_path / "checkpoints" / "hybrid.json").exists()
    assert not (tmp_path / "report.json").exists()
    log = (tmp_path / "log.txt").read_text().splitlines()
    assert log == ["data: ok", "hybrid: ok"]


def test_run_experiment_full_unguided(tmp_path):
    config = _tiny_config(tmp_path)
    report = run_experiment(config)
    assert report is not None and report.n_units == 2
    for name in ("config.json", "report.json", "report.csv", "ensembles.csv", "eta_sweep.csv"):
        assert (tmp_path / name).exists(), name
    assert not (tmp_path / "report_unguided.json").exists()
    parsed = json.loads((tmp_path / "report.json").read_text())
    assert parsed["rmse"] == report.rmse
    with open(tmp_path / "ensembles.csv") as fh:
        rows = list(csv.DictReader(fh))
    # 2 test units x 3 samples x 5 time points (days 0..4)
    assert len(rows) == 30
    assert set(rows[0]) == {"unit_id", "sample_id", "t", "y"}


def test_run_experiment_guided_writes_ablation(tmp_path):
    config = _tiny_config(
        tmp_path,
        guidance={"eta": 0.01, "nu": 0.01, "select": False},
    )
    report = run_experiment(config)
    assert report is not None
    assert (tmp_path / "report_unguided.json").exists()
    assert (tmp_path / "ensembles_unguided.csv").exists()


def test_an_expert_override_reaches_the_guided_ensembles(tmp_path):
    """A dex run whose expert's drug does nothing (k_Dex = 0) finishes, and
    its guided ensembles differ from those of the default expert."""
    guidance = {"eta": 0.05, "nu": 0.01, "select": False}
    ensembles = []
    for name, expert in (("default", {}), ("no_drug", {"k_Dex": 0.0})):
        config = _tiny_config(tmp_path / name, guidance=guidance, expert=expert)
        assert run_experiment(config) is not None
        ensembles.append((tmp_path / name / "ensembles.csv").read_text())
    assert ensembles[0] != ensembles[1]


def test_zero_strength_guidance_matches_unguided_report(tmp_path):
    plain = run_experiment(_tiny_config(tmp_path / "plain"))
    nulled = run_experiment(
        _tiny_config(
            tmp_path / "null",
            guidance={"eta": 0.0, "nu": 0.0, "select": False},
        )
    )
    assert nulled.to_json() == plain.to_json()


def test_rerun_from_config_snapshot_is_byte_identical(tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    run_experiment(_tiny_config(first))
    snapshot = json.loads((first / "config.json").read_text())
    snapshot["out_dir"] = str(second)
    run_experiment(ExperimentConfig.from_dict(snapshot))
    for name in ("report.json", "report.csv", "ensembles.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_eta_selection_writes_sweep(tmp_path):
    config = _tiny_config(
        tmp_path,
        guidance={
            "eta_candidates": [0.0, 0.01],
            "nu": 0.0,
            "select": True,
            "n_val_units": 2,
            "n_val_samples": 2,
        },
    )
    run_experiment(config, stop_after="select-eta")
    with open(tmp_path / "eta_sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["eta"]) for r in rows] == [0.0, 0.01]
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["chosen_eta"] in (0.0, 0.01)


# -- case study ---------------------------------------------------------


def _write_regions(path, series):
    """series: {region: (deaths array, policy array)}"""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "week", "deaths_per_capita", "hospitalizations", "policy"])
        for region, (deaths, policy) in series.items():
            for week, (d, p) in enumerate(zip(deaths, policy)):
                writer.writerow([region, week, repr(float(d)), "0.0", int(p)])


def _planted_regions(tmp_path):
    """Six regions with identical pre-periods; strong-policy post curves sit
    exactly one unit above weak-policy ones."""
    pre = np.linspace(0.0, 1.0, 4)
    weak_post = np.array([1.0, 1.0, 1.0, 1.0])
    series = {}
    for i in range(3):
        series[f"weak_{i}"] = (np.concatenate([pre, weak_post]), [0] * 8)
    for i in range(3):
        series[f"strong_{i}"] = (np.concatenate([pre, weak_post + 1.0]), [0] * 4 + [1] * 4)
    path = tmp_path / "regions.csv"
    _write_regions(path, series)
    return path


def test_load_regions_orders_by_week(tmp_path):
    path = tmp_path / "r.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "week", "deaths_per_capita", "hospitalizations", "policy"])
        writer.writerow(["a", 1, "2.0", "0", 1])
        writer.writerow(["a", 0, "1.0", "0", 0])
    (region,) = load_regions(path)
    np.testing.assert_array_equal(region.deaths, [1.0, 2.0])
    np.testing.assert_array_equal(region.policy, [0, 1])


def test_case_study_recovers_planted_shift(tmp_path):
    path = _planted_regions(tmp_path)
    config = CaseStudyConfig(
        region_csv=str(path), train_weeks=4, k_neighbors=4, test_regions=["weak_0"]
    )
    (row,) = case_study(config)
    assert row.skipped is None
    assert row.proxy_wd == pytest.approx(1.0)
    assert row.model_wd is None


def test_case_study_model_comparison(tmp_path):
    path = _planted_regions(tmp_path)
    config = CaseStudyConfig(
        region_csv=str(path), train_weeks=4, k_neighbors=4, test_regions=["weak_0"]
    )

    def model_fn(region, policy):
        return np.full(4, 2.0) if policy == 1 else np.full(4, 1.25)

    (row,) = case_study(config, model_fn=model_fn)
    assert row.model_wd == pytest.approx(0.75)


def test_case_study_skips_policy_homogeneous_neighborhood(tmp_path):
    pre = np.linspace(0.0, 1.0, 4)
    series = {f"r{i}": (np.concatenate([pre, pre]), [0] * 8) for i in range(4)}
    path = tmp_path / "regions.csv"
    _write_regions(path, series)
    config = CaseStudyConfig(
        region_csv=str(path), train_weeks=4, k_neighbors=3, test_regions=["r0"]
    )
    (row,) = case_study(config)
    assert row.skipped == "no policy-diverse neighbors"
    assert row.proxy_wd is None


def test_case_study_random_selection_deterministic(tmp_path):
    path = _planted_regions(tmp_path)
    config = CaseStudyConfig(
        region_csv=str(path), train_weeks=4, k_neighbors=4, test_regions="random:3", seed=1
    )
    first = [r.region for r in case_study(config)]
    second = [r.region for r in case_study(config)]
    assert first == second and len(first) == 3


def test_case_study_validation(tmp_path):
    path = _planted_regions(tmp_path)
    with pytest.raises(ValueError, match="k_neighbors"):
        CaseStudyConfig(region_csv=str(path), k_neighbors=0)
    with pytest.raises(ValueError, match="unknown test regions"):
        case_study(CaseStudyConfig(region_csv=str(path), train_weeks=4, test_regions=["zz"]))
    with pytest.raises(ValueError, match="train_weeks"):
        case_study(CaseStudyConfig(region_csv=str(path), train_weeks=8, test_regions=["weak_0"]))


def test_case_study_with_no_test_regions_scores_none(tmp_path):
    path = _planted_regions(tmp_path)
    assert case_study(CaseStudyConfig(region_csv=str(path), train_weeks=4, test_regions=[])) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("train_weeks", 0),
        ("test_regions", "random:-2"),
        ("test_regions", "random:0"),
        ("test_regions", "random:abc"),
        ("test_regions", "first:3"),
        ("k_neighbors", 2.5),
        ("train_weeks", 2.5),
        ("seed", 1.5),
        ("k_neighbors", True),
        ("train_weeks", True),
        ("seed", False),
        ("k_neighbors", "3"),
        ("seed", -1),
    ],
)
def test_case_study_config_rejects_bad_fields_when_loaded(tmp_path, field, value):
    path = tmp_path / "case.json"
    path.write_text(json.dumps({"region_csv": str(tmp_path / "absent.csv"), field: value}))
    with pytest.raises(ValueError, match=field):
        CaseStudyConfig.from_file(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_regions_rejects_non_finite_values(tmp_path, bad):
    pre = np.linspace(0.0, 1.0, 4)
    series = {f"r{i}": (np.concatenate([pre, pre]), [0] * 4 + [i % 2] * 4) for i in range(4)}
    series["r1"][0][1] = bad
    path = tmp_path / "regions.csv"
    _write_regions(path, series)
    with pytest.raises(ValueError, match="region 'r1' has a non-finite value in week 1"):
        load_regions(path)
    config = CaseStudyConfig(region_csv=str(path), train_weeks=4, k_neighbors=2, test_regions=["r0"])
    with pytest.raises(ValueError, match="'r1'"):
        case_study(config)


def _write_weeks(path, weeks_by_region):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "week", "deaths_per_capita", "hospitalizations", "policy"])
        for region, weeks in weeks_by_region.items():
            for week in weeks:
                writer.writerow([region, week, "1.0", "0.0", 0])


def test_load_regions_rejects_a_region_on_other_weeks(tmp_path):
    path = tmp_path / "regions.csv"
    _write_weeks(path, {"a": range(8), "gap": [0, 1, 2, 3, 4, 5, 6, 9], "b": range(8)})
    with pytest.raises(ValueError, match="region 'gap' does not have the weeks of region 'a'"):
        load_regions(path)
    config = CaseStudyConfig(region_csv=str(path), train_weeks=4, k_neighbors=1, test_regions=["a"])
    with pytest.raises(ValueError, match="'gap'"):
        case_study(config)


@pytest.mark.parametrize("dup_first", [False, True])
def test_load_regions_rejects_a_repeated_week(tmp_path, dup_first):
    regions = [("a", range(8)), ("dup", [0, 1, 2, 3, 3, 4, 5, 6, 7])]
    path = tmp_path / "regions.csv"
    _write_weeks(path, dict(regions[::-1] if dup_first else regions))
    with pytest.raises(ValueError, match="region 'dup' lists a week more than once"):
        load_regions(path)


@pytest.mark.parametrize("policy", [7, -1, 2])
def test_load_regions_rejects_a_policy_other_than_0_or_1(tmp_path, policy):
    pre = np.linspace(0.0, 1.0, 4)
    series = {f"r{i}": (np.concatenate([pre, pre]), [0] * 4 + [i % 2] * 4) for i in range(4)}
    series["r2"][1][5] = policy
    path = tmp_path / "regions.csv"
    _write_regions(path, series)
    with pytest.raises(ValueError, match=f"region 'r2' has policy {policy} in week 5"):
        load_regions(path)


def _assert_matches_per_pair_dtw_reference(rows, series, w, k):
    for row in rows:
        deaths, _ = series[row.region]
        dists = sorted(
            (dtw(deaths[:w], other[:w])[0], name)
            for name, (other, _) in series.items()
            if name != row.region
        )
        neighbors = [name for _, name in dists[:k]]
        assert row.neighbors == neighbors
        post = {1: [], 0: []}
        for name in neighbors:
            post[series[name][1][-1]].append(series[name][0][w:])
        if post[1] and post[0]:
            mean = {p: np.mean(curves, axis=0) for p, curves in post.items()}
            assert row.proxy_wd == wasserstein1(mean[1], mean[0])
        else:
            assert row.proxy_wd is None
    assert any(row.proxy_wd is not None for row in rows)


@pytest.mark.parametrize("text", ["", "region,week,deaths_per_capita,hospitalizations,policy\n\n"])
def test_load_regions_rejects_a_file_without_rows(tmp_path, text):
    path = tmp_path / "regions.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="region file contains no rows"):
        load_regions(path)


@pytest.mark.parametrize("rows", ["", "r0,0,1.0,0.0\n"])
def test_load_regions_names_the_file_and_the_column_its_header_lacks(tmp_path, rows):
    """Checked before the rows, so a header-only file fails on the header."""
    path = tmp_path / "regions.csv"
    path.write_text("region,week,deaths_per_capita,hospitalizations\n" + rows)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: the header has no column')} 'policy'$"):
        load_regions(path)


def test_case_study_matches_per_pair_dtw_reference(tmp_path):
    rng = np.random.default_rng(5)
    w, k = 5, 4
    series = {f"r{i}": (rng.normal(size=2 * w), [0] * w + [i % 2] * w) for i in range(9)}
    path = tmp_path / "regions.csv"
    _write_regions(path, series)
    config = CaseStudyConfig(
        region_csv=str(path), train_weeks=w, k_neighbors=k, test_regions="random:3", seed=2
    )
    rows = case_study(config)
    assert len(rows) == 3
    _assert_matches_per_pair_dtw_reference(rows, series, w, k)


def test_case_study_breaks_equal_costs_by_name(tmp_path):
    """Every pre-period is the same, so every candidate costs 0 and only
    their names, listed out of order, rank them."""
    rng = np.random.default_rng(8)
    w, k = 4, 3
    names = ["r5", "r2", "r7", "r0", "r3", "r6", "r1", "r4"]
    series = {
        n: (np.concatenate([np.ones(w), rng.normal(size=w)]), [0] * w + [i % 2] * w)
        for i, n in enumerate(names)
    }
    path = tmp_path / "regions.csv"
    _write_regions(path, series)
    config = CaseStudyConfig(region_csv=str(path), train_weeks=w, k_neighbors=k, test_regions=names)
    rows = case_study(config)
    assert rows[0].neighbors == ["r0", "r1", "r2"] and rows[3].neighbors == ["r1", "r2", "r3"]
    _assert_matches_per_pair_dtw_reference(rows, series, w, k)


def test_case_study_matches_per_pair_dtw_reference_across_blocks(tmp_path, monkeypatch):
    """Pre-period curves that share their first and last values and their
    range [0, 1] give every DTW lower bound 0, so nothing is ruled out: after
    each test region's 2(k + 1) smallest bounds, the other 7 * 200 - 70 pairs
    run in wavefront blocks of at most 512 pairs."""
    rng = np.random.default_rng(6)
    w, k = 8, 4

    def pre():
        curve = rng.uniform(0.0, 1.0, w)
        curve[[0, 1, w - 3, w - 1]] = [0.0, 1.0, 0.0, 1.0]
        return curve

    series = {
        f"r{i:03d}": (np.concatenate([pre(), rng.normal(size=w)]), [0] * w + [i % 2] * w) for i in range(200)
    }
    path = tmp_path / "regions.csv"
    _write_regions(path, series)
    config = CaseStudyConfig(
        region_csv=str(path), train_weeks=w, k_neighbors=k, test_regions="random:7", seed=3
    )
    blocks = []

    def recording_wavefront(a, b, table=None):
        blocks.append(a.shape[1])
        return wavefront(a, b, table)

    wavefront = metrics._dtw_wavefront
    monkeypatch.setattr(metrics, "_dtw_wavefront", recording_wavefront)
    rows = case_study(config)
    assert len(rows) == 7
    assert blocks[0] == 7 * 2 * (k + 1) and sum(blocks) == 7 * 200
    assert len(blocks) >= 4 and max(blocks) <= metrics._DTW_BLOCK_PAIRS
    _assert_matches_per_pair_dtw_reference(rows, series, w, k)


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "week", "deaths_per_capita", "hospitalizations", "policy"])
        writer.writerows(rows)


@pytest.mark.parametrize(
    "bad_row, message",
    [
        (["b", "0", "1.0"], ":3: no column 'policy': the row ends after field 3"),
        (["b"], ":3: no column 'week': the row ends after field 1"),
        (["b", "x", "1.0", "0", "0"], ":3: column 'week': invalid literal for int() with base 10: 'x'"),
        (["b", "0", "1.0", "0", "yes"], ":3: column 'policy': invalid literal for int() with base 10: 'yes'"),
        (["b", "0", "1,5", "0", "0"], ":3: column 'deaths_per_capita': could not convert string to float: '1,5'"),
        (["b", "0", "1.0", "", "0"], ":3: column 'hospitalizations': could not convert string to float: ''"),
    ],
)
def test_load_regions_names_the_line_and_column_of_a_malformed_row(tmp_path, bad_row, message):
    path = tmp_path / "regions.csv"
    _write_rows(path, [["a", "0", "1.0", "0", "0"], bad_row, ["a", "1", "1.0", "0", "0"]])
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}{message}')}$"):
        load_regions(path)


@pytest.mark.parametrize("value", ["x", ""])
def test_load_regions_checks_a_rows_policy_before_its_values(tmp_path, value):
    path = tmp_path / "regions.csv"
    _write_rows(path, [["a", "0", "1.0", "0", "0"], ["b", "0", value, value, "2"]])
    with pytest.raises(ValueError, match="^region 'b' has policy 2 in week 0; policy must be 0 or 1$"):
        load_regions(path)


def test_load_regions_counts_file_lines_past_blank_and_quoted_multiline_rows(tmp_path):
    path = tmp_path / "regions.csv"
    path.write_text(
        "region,week,deaths_per_capita,hospitalizations,policy\n"
        '"two\nlines",0,1.0,0,0\n'
        "\n"
        "c,0,oops,0,0\n"
    )
    with pytest.raises(ValueError, match=":5: column 'deaths_per_capita': .*'oops'"):
        load_regions(path)


def test_load_regions_reads_columns_by_header_name(tmp_path):
    rng = np.random.default_rng(7)
    records = [
        {
            "region": region,
            "week": str(week),
            "deaths_per_capita": repr(float(rng.normal())),
            "hospitalizations": repr(float(rng.normal())),
            "policy": str(int(week >= 2)),
            "note": "x",
        }
        for region in ("plain", "Springfield, IL", '"quoted"')
        for week in (3, 0, 2, 1)
    ]

    def write(name, columns):
        path = tmp_path / name
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, columns, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(records)
        return load_regions(path)

    base = write("base.csv", ["region", "week", "deaths_per_capita", "hospitalizations", "policy"])
    assert [r.region for r in base] == ["plain", "Springfield, IL", '"quoted"']
    permuted = write("permuted.csv", ["policy", "hospitalizations", "region", "week", "deaths_per_capita"])
    extra = write("extra.csv", ["week", "note", "region", "policy", "deaths_per_capita", "hospitalizations"])
    for other in (permuted, extra):
        assert [r.region for r in other] == [r.region for r in base]
        for got, want in zip(other, base):
            for name in ("deaths", "hospitalizations", "policy"):
                assert getattr(got, name).tolist() == getattr(want, name).tolist()
    np.testing.assert_array_equal(base[1].policy, [0, 0, 1, 1])
    by_week = sorted((int(r["week"]), float(r["deaths_per_capita"])) for r in records[4:8])
    assert base[1].deaths.tolist() == [d for _, d in by_week]


def test_case_study_csv_output(tmp_path):
    path = _planted_regions(tmp_path)
    config = CaseStudyConfig(
        region_csv=str(path), train_weeks=4, k_neighbors=4, test_regions=["weak_0"]
    )
    rows = case_study(config)
    out = tmp_path / "case_study.csv"
    write_case_study_csv(rows, out)
    with open(out) as fh:
        recs = list(csv.DictReader(fh))
    assert recs[0]["region"] == "weak_0"
    assert float(recs[0]["proxy_wd"]) == pytest.approx(1.0)
    assert recs[0]["model_wd"] == ""


def test_units_on_shifted_grids_fail_in_the_data_stage(tmp_path):
    from odeguide.datagen import gen_dex_dataset, write_dataset

    ds = gen_dex_dataset(n_patients=3, seed=0, n_days=4)
    unit = ds.units[1]
    unit.factual.times = unit.factual.times + 0.5  # same horizon, other grid
    write_dataset(ds, tmp_path / "data")
    config = _tiny_config(tmp_path / "run", dataset={"path": str(tmp_path / "data")})
    with pytest.raises(StageError) as err:
        run_experiment(config)
    assert err.value.stage == "data"
    assert "one time grid" in str(err.value)


def _dataset_run(tmp_path, edit, stop_after="data"):
    """A 6-unit dex dataset, edited by ``edit`` then written and read back,
    run through the stage ``stop_after``."""
    from odeguide.datagen import gen_dex_dataset, write_dataset

    ds = gen_dex_dataset(n_patients=6, seed=0, n_days=4)
    edit(ds.units)
    write_dataset(ds, tmp_path / "data")
    config = _tiny_config(tmp_path / "run", dataset={"path": str(tmp_path / "data")})
    return run_experiment(config, stop_after=stop_after)


@pytest.mark.parametrize("field", ["y", "x"])
def test_data_stage_rejects_a_non_finite_observed_value_naming_the_unit(tmp_path, field):
    def edit(units):
        f = units[4].factual
        getattr(f, field)[np.flatnonzero(f.observed)[-1]] = np.nan

    with pytest.raises(StageError, match="'patient_004' has a non-finite factual y or x") as err:
        _dataset_run(tmp_path, edit)
    assert err.value.stage == "data"


def test_data_stage_rejects_an_unobserved_first_point_naming_the_unit(tmp_path):
    # the hybrid encoders and every rollout start from y[0] and x[0]
    def edit(units):
        units[2].factual.observed[0] = False

    with pytest.raises(StageError, match="'patient_002' has an unobserved first factual point") as err:
        _dataset_run(tmp_path, edit)
    assert err.value.stage == "data"


def test_data_stage_passes_non_finite_values_at_unobserved_points(tmp_path):
    def edit(units):
        for u in units:
            f = u.factual
            assert not f.observed.all()
            f.y[~f.observed] = np.nan
            f.x[~f.observed] = np.nan

    assert _dataset_run(tmp_path, edit) is None


def test_propensity_stage_rejects_non_finite_weights_naming_the_unit(tmp_path):
    # covariates at unobserved points reach the propensity fit; NaN there
    # passes the data and hybrid stages but leaves no weight finite
    def edit(units):
        for u in units:
            u.factual.x[~u.factual.observed] = np.nan

    with pytest.raises(StageError, match=r"unit 'patient_00\d' has a non-finite IPTW weight") as err:
        _dataset_run(tmp_path, edit, stop_after="propensity")
    assert err.value.stage == "propensity"
    meta = json.loads((tmp_path / "run" / "run_meta.json").read_text())
    assert "mean_iptw_weight" not in meta


@pytest.mark.parametrize(
    "dataset,n_times",
    [({"kind": "dex", "n_units": 6, "n_days": 0}, 1), ({"kind": "covid", "n_weeks": 1}, 1)],
)
def test_data_stage_rejects_a_grid_shorter_than_the_propensity_history(tmp_path, dataset, n_times):
    config = _tiny_config(tmp_path, dataset=dataset)
    with pytest.raises(StageError, match=f"grid has {n_times} points; the propensity model needs 3") as err:
        run_experiment(config, stop_after="data")
    assert err.value.stage == "data"


_NO_MASKED_ARRAYS = """
import json, sys
from odeguide.harness import CaseStudyConfig, ExperimentConfig, case_study, run_experiment
kind, arg = sys.argv[1:]
if kind == "run":
    run_experiment(ExperimentConfig.from_file(arg))
else:
    case_study(CaseStudyConfig(**json.loads(arg)))
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("kind", ["run", "case_study"])
def test_a_run_and_a_case_study_never_import_numpy_ma(tmp_path, kind):
    # numpy.ma costs a fresh process about 19 ms and 0.5 MB and nothing reads it
    if kind == "run":
        guidance = {"eta_candidates": [0.0, 0.01], "nu": 0.01, "select": True, "n_val_units": 2}
        arg = tmp_path / "config.json"
        arg.write_text(_tiny_config(tmp_path / "out", guidance=guidance).to_json())
    else:
        regions = str(_planted_regions(tmp_path))
        arg = json.dumps({"region_csv": regions, "train_weeks": 4, "k_neighbors": 4, "test_regions": ["weak_0"]})
    src = str(Path(harness.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", _NO_MASKED_ARRAYS, kind, str(arg)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"
