import csv
import json
from pathlib import Path

import numpy as np
import pytest

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
    with pytest.raises(ValueError, match="'path' or a 'kind'"):
        ExperimentConfig(dataset={"kind": "mnist"}, out_dir="x")


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
    # stage simulates nothing; one batched rollout per stage (diffusion,
    # select-eta, sample) conditions all of that stage's units
    assert calls["simulate_expert"] == 1
    assert simulated_rows == [2]
    assert calls["predict"] == 3
    assert n_train > 2
    # one stacked reverse pass per validation unit (all candidates) and per
    # test unit (unguided and guided ensembles together)
    assert calls["sample"] == 2 + n_test


@pytest.mark.parametrize("kind", ["dex", "covid"])
def test_each_guidance_curve_equals_its_single_schedule_simulation(tmp_path, monkeypatch, kind):
    from odeguide import harness

    built = []
    original = harness._unit_inputs

    def recorded(state, units, arm, guided=False):
        conds, guidance = original(state, units, arm, guided)
        if guided:
            built.append((state, units, guidance))
        return conds, guidance

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
        for unit, (signals, _, _) in zip(units, guidance):
            f_sim, cf_sim = single(unit.treatment_factual), single(unit.treatment_counterfactual)
            _, f, cf = harness.align_factual(f_sim, unit.factual.y, cf_sim)
            np.testing.assert_array_equal(signals.f_f, y_s.transform(f))
            np.testing.assert_array_equal(signals.f_cf, y_s.transform(cf))


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
    assert metrics["hybrid_cp.predict.calls"] == 3
    assert metrics["hybrid_cp.predict.distinct_ratio"] == 1.0
    assert metrics["expert_models.simulate_expert.calls"] > 0
    assert metrics["diffusion.sample.members"] > 0
    assert metrics["guidance.select_eta.busy_s"] > 0


@pytest.mark.parametrize("key", ["n_val_units", "n_val_samples"])
@pytest.mark.parametrize("value", [0, -1, 1.5, True, "2"])
def test_config_rejects_bad_validation_counts(tmp_path, key, value):
    with pytest.raises(ValueError, match=f"guidance.{key} must be an integer >= 1"):
        _tiny_config(tmp_path, guidance={"select": True, key: value})


@pytest.mark.parametrize(
    "section,key",
    [("evaluation", "n_samples"), ("hybrid", "n_substeps"), ("diffusion", "epochs"), ("diffusion", "batch_size")],
)
@pytest.mark.parametrize("value", [0, -1, 1.5, True, "2"])
def test_config_rejects_bad_counts_when_loaded(tmp_path, section, key, value):
    with pytest.raises(ValueError, match=f"{section}.{key} must be an integer >= 1"):
        _tiny_config(tmp_path, **{section: {key: value}})


@pytest.mark.parametrize("value", [-1.0, 0, 0.0, 1, 1.0, 5.0, float("nan"), True, "0.2"])
def test_config_rejects_a_test_fraction_outside_0_1(tmp_path, value):
    with pytest.raises(ValueError, match=r"evaluation.test_fraction must lie in \(0, 1\)"):
        _tiny_config(tmp_path, evaluation={"n_samples": 3, "test_fraction": value})


def test_data_stage_rejects_a_single_unit(tmp_path):
    config = _tiny_config(tmp_path, dataset={"kind": "dex", "n_units": 1, "n_days": 4})
    with pytest.raises(StageError, match="at least 2 units") as err:
        run_experiment(config)
    assert err.value.stage == "data"


def test_run_experiment_unknown_stage_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown stage"):
        run_experiment(_tiny_config(tmp_path), stop_after="deploy")


def test_run_experiment_stage_failure_reports_stage(tmp_path):
    config = _tiny_config(tmp_path, schedule={"t_d": 5, "beta_start": 0.9, "beta_end": 0.5})
    with pytest.raises(StageError, match="diffusion"):
        run_experiment(config)
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


@pytest.mark.parametrize(
    "field, value",
    [
        ("train_weeks", 0),
        ("test_regions", "random:-2"),
        ("test_regions", "random:0"),
        ("test_regions", "random:abc"),
        ("test_regions", "first:3"),
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
