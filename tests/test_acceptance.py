"""Acceptance suite: one test per shipped guarantee, with the numeric
tolerance pinned next to each assertion. ``pytest -v`` prints one pass/fail
line per criterion."""

import csv
import itertools
import json

import numpy as np
import pytest

from odeguide import diff_engine as de
from odeguide.datagen import gen_dex_dataset, seirhd_initial_state
from odeguide.diffusion import (
    ConditioningContext,
    DiffusionTrainConfig,
    PropensityModel,
    diffusion_batch_loss,
    make_denoiser,
    make_schedule,
    propensity_weight,
    reverse_step,
    sample,
    train_diffusion,
)
from odeguide.expert_models import (
    ExpertOdeSpec,
    SeirhdParams,
    SeirmParams,
    TreatmentSchedule,
    simulate_expert,
)
from odeguide.guidance import GuidanceConfig, loss_cf, loss_f, select_eta
from odeguide.guidance import ExpertGuidanceSignals, FactualWindow
from odeguide.harness import CaseStudyConfig, ExperimentConfig, case_study, run_experiment
from odeguide.metrics import dtw, wasserstein1
from odeguide.ode_core import TimeGrid, integrate


def test_criterion_01_solver_is_fourth_order():
    """Terminal error on dy/dt = -y over [0, 1] drops by 2^4 when dt halves;
    tolerance: ratio in [12, 20]."""
    rhs = lambda state, t: -state
    errors = {}
    for dt in (0.1, 0.05):
        n = round(1.0 / dt)
        traj = integrate(rhs, np.array([1.0]), TimeGrid(t0=0.0, dt=dt, n_steps=n))
        errors[dt] = abs(float(traj.states[-1, 0]) - np.exp(-1.0))
    ratio = errors[0.1] / errors[0.05]
    assert 12.0 <= ratio <= 20.0, f"convergence ratio {ratio:.2f} outside [12, 20]"


def test_criterion_02_epidemic_models_conserve_population():
    """SEIRM and SEIR-HD keep the compartment sum within 1e-9 * N of N at
    every weekly step over 52 weeks."""
    grid = TimeGrid(t0=0.0, dt=0.05, n_steps=round(52 / 0.05))
    treatment = TreatmentSchedule(kind="binary_policy", mandate_start=20.0)
    n_pop = 1.0e6
    seirm = ExpertOdeSpec(
        family="SEIRM",
        params=SeirmParams(0.5, 0.3, 0.25, 0.02, n_pop),
        init=np.array([n_pop - 4000.0, 1500.0, 2400.0, 50.0, 50.0]),
        treatment=treatment,
    )
    seirhd = ExpertOdeSpec(
        family="SEIRHD",
        params=SeirhdParams(beta=0.6, alpha=0.35, delta=0.15, N=n_pop),
        init=seirhd_initial_state(n_pop),
        treatment=treatment,
    )
    for spec in (seirm, seirhd):
        traj = simulate_expert(spec, grid)
        drift = np.max(np.abs(traj.states.sum(axis=1) - n_pop))
        assert drift <= 1e-9 * n_pop, f"{spec.family} drift {drift:.3e} exceeds 1e-9*N"


def _rel_err(got, want):
    return np.max(np.abs(got - want) / (np.abs(want) + 1e-8))


def test_criterion_03_gradients_match_finite_differences():
    """Reverse-mode gradients within 1e-4 relative error of central
    differences on the hybrid loss, the diffusion loss, and both guidance
    losses."""
    from odeguide.expert_models import PkpdParams
    from odeguide.hybrid_cp import HybridCpConfig, _dataset_loss, make_hybrid_model

    data = gen_dex_dataset(n_patients=2, seed=0, sigma=0.0, n_days=3, drop_measurements=False)
    cfg = HybridCpConfig(m_y=2, m_x=2, hidden=(4,))
    hybrid = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=cfg, seed=0)
    err_hybrid = de.grad_check(
        lambda tensors: _dataset_loss(hybrid, tensors, data.units), hybrid.params, eps=1e-5
    )
    assert err_hybrid <= 1e-4, f"hybrid loss gradient error {err_hybrid:.2e}"

    from odeguide.diffusion import _batch_loss_fn

    rng = np.random.default_rng(0)
    denoiser = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=0)
    sched = make_schedule(t_d=4)
    batch = (
        rng.standard_normal((4, 3)),
        rng.standard_normal((4, denoiser.cond_dim)),
        np.ones((4, 3)),
        np.array([1.0, 2.0, 0.5, 1.5]),
        np.array([1, 2, 3, 4]),
        rng.standard_normal((4, 3)),
    )
    err_diff = de.grad_check(
        lambda tensors: _batch_loss_fn(tensors, denoiser, sched, *batch),
        denoiser.params,
        eps=1e-5,
    )
    assert err_diff <= 1e-4, f"diffusion loss gradient error {err_diff:.2e}"

    y0_hat = rng.standard_normal(5)
    y0_f = rng.standard_normal(5)
    signals = ExpertGuidanceSignals(
        f_cf=rng.standard_normal(5), f_f=rng.standard_normal(5)
    )
    gcfg = GuidanceConfig()
    for name, fn in (
        ("relation loss", lambda v: loss_cf(v, y0_f, signals, gcfg)),
        ("factual loss", lambda v: loss_f(v, y0_f, FactualWindow(mask=np.arange(5) < 3))),
    ):
        t = de.Tensor(y0_hat.copy())
        fn(t).backward()
        numeric = np.zeros(5)
        for i in range(5):
            hi, lo = y0_hat.copy(), y0_hat.copy()
            hi[i] += 1e-6
            lo[i] -= 1e-6
            numeric[i] = (float(fn(de.Tensor(hi)).data) - float(fn(de.Tensor(lo)).data)) / 2e-6
        err = _rel_err(t.grad, numeric)
        assert err <= 1e-4, f"{name} gradient error {err:.2e}"


def test_criterion_04_reverse_process_identities_are_exact():
    """reverse_step at the final step returns the clean estimate bitwise;
    an oracle denoiser makes full sampling return the true signal bitwise."""
    sched = make_schedule(t_d=50)
    rng = np.random.default_rng(0)
    y0_hat = rng.standard_normal(6)
    out = reverse_step(rng.standard_normal(6), 1, y0_hat, sched, rng.standard_normal(6))
    np.testing.assert_array_equal(out, y0_hat)

    model = make_denoiser(horizon=6, d_x=1, hidden=(8,), seed=0)
    cond = ConditioningContext(y_prime=np.zeros(6), x=np.zeros((6, 1)), a=np.zeros(6))
    y0_true = rng.standard_normal(6)
    ens = sample(model, cond, sched, n_samples=3, seed=1, predict_fn=lambda y, tau: y0_true)
    for row in ens.samples:
        np.testing.assert_array_equal(row, y0_true)


def test_criterion_05_learns_a_gaussian():
    """Trained on 500 draws of N(2, 0.5) with T_d = 50, a 2000-draw ensemble
    matches the mean within 3 SE (0.0335), the std within 3 SE (0.0237), and
    covers held-out draws at 90% +/- 0.10."""
    rng = np.random.default_rng(54)
    y0 = rng.normal(2.0, 0.5, size=(500, 1))
    sched = make_schedule(t_d=50, beta_start=0.004, beta_end=0.2)
    model = make_denoiser(horizon=1, d_x=1, hidden=(64, 64), seed=0)
    cond = ConditioningContext(y_prime=np.zeros(1), x=np.zeros((1, 1)), a=np.zeros(1))
    cond_rows = np.tile(cond.vector(), (500, 1))
    args = (y0, cond_rows, np.ones((500, 1)), np.ones(500), sched)
    model, _ = train_diffusion(
        model, *args, DiffusionTrainConfig(epochs=600, lr=1e-3, batch_size=64), seed=0
    )
    model, _ = train_diffusion(
        model, *args, DiffusionTrainConfig(epochs=300, lr=1e-4, batch_size=64), seed=1000
    )
    draws = sample(model, cond, sched, n_samples=2000, seed=123).samples[:, 0]
    held_out = np.random.default_rng(777).normal(2.0, 0.5, 1000)
    lo, hi = np.quantile(draws, 0.05), np.quantile(draws, 0.95)
    coverage = float(np.mean((held_out >= lo) & (held_out <= hi)))
    mean_err = abs(draws.mean() - 2.0)
    std_err = abs(draws.std(ddof=1) - 0.5)
    cov_err = abs(coverage - 0.90)
    assert mean_err <= 0.0335, f"ensemble mean off by {mean_err:.4f} (tol 0.0335)"
    assert std_err <= 0.0237, f"ensemble std off by {std_err:.4f} (tol 0.0237)"
    assert cov_err <= 0.10, f"90% coverage {coverage:.3f} off nominal by {cov_err:.3f}"


def test_criterion_06_metric_implementations_match_exact_oracles():
    """wasserstein1 equals the assignment-problem optimum for 100 random
    equal-size integer instances (n <= 8, exact); dtw equals exhaustive path
    enumeration for 100 random instances of length <= 6 (exact)."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = rng.integers(0, 20, size=n).astype(float)
        b = rng.integers(0, 20, size=n).astype(float)
        best = min(
            sum(abs(a[i] - b[p[i]]) for i in range(n))
            for p in itertools.permutations(range(n))
        )
        assert wasserstein1(a, b) == best / n

    def _paths(n, m):
        if (n, m) == (0, 0):
            yield [(0, 0)]
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            if n - di >= 0 and m - dj >= 0 and (di or dj):
                for p in _paths(n - di, m - dj):
                    yield p + [(n, m)]

    for _ in range(100):
        n, m = rng.integers(1, 7, size=2)
        a = rng.integers(0, 10, size=n).astype(float)
        b = rng.integers(0, 10, size=m).astype(float)
        exhaustive = min(
            sum(abs(a[i] - b[j]) for i, j in p) for p in _paths(int(n) - 1, int(m) - 1)
        )
        cost, _ = dtw(a, b)
        assert cost == exhaustive


def test_criterion_07_inverse_propensity_weighting_is_exact():
    """Uniform propensity 0.5 over a 3-step history gives weight 8 exactly;
    the training loss is linear in the weights to 1e-12 relative."""
    model = PropensityModel(weights=np.zeros(3), history_length=3)
    data = gen_dex_dataset(n_patients=2, seed=0, n_days=5)
    for unit in data.units:
        assert propensity_weight(model, unit) == 8.0

    rng = np.random.default_rng(1)
    denoiser = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=1)
    sched = make_schedule(t_d=4)
    y0 = rng.standard_normal((4, 3))
    cond = rng.standard_normal((4, denoiser.cond_dim))
    mask = np.ones((4, 3))
    taus = np.array([1, 2, 3, 4])
    eps = rng.standard_normal((4, 3))
    w = np.array([1.0, 2.0, 0.5, 3.0])
    base = diffusion_batch_loss(denoiser, sched, y0, cond, mask, w, taus, eps)
    scaled = diffusion_batch_loss(denoiser, sched, y0, cond, mask, 3.0 * w, taus, eps)
    rel_dev = abs(scaled - 3.0 * base) / abs(3.0 * base)
    assert rel_dev <= 1e-12, f"loss deviates from linearity by {rel_dev:.2e}"


def test_criterion_08_zero_strength_guidance_is_bit_identical():
    """Sampling with both guidance strengths at zero reproduces unguided
    sampling bit for bit at the same seed."""
    from odeguide.guidance import make_guide_fn

    rng = np.random.default_rng(2)
    model = make_denoiser(horizon=4, d_x=1, hidden=(8,), seed=2)
    sched = make_schedule(t_d=10)
    cond = ConditioningContext(
        y_prime=rng.standard_normal(4), x=rng.standard_normal((4, 1)), a=np.zeros(4)
    )
    signals = ExpertGuidanceSignals(
        f_cf=rng.standard_normal(4), f_f=rng.standard_normal(4)
    )
    guide = make_guide_fn(
        rng.standard_normal(4),
        signals,
        FactualWindow(mask=np.arange(4) < 2),
        GuidanceConfig(),
        eta=0.0,
        nu=0.0,
    )
    plain = sample(model, cond, sched, n_samples=5, seed=3)
    nulled = sample(model, cond, sched, n_samples=5, seed=3, guide_fn=guide)
    assert np.array_equal(plain.samples, nulled.samples)


def test_criterion_09_guidance_improves_counterfactual_accuracy(tmp_path):
    """Directional replication on the pharmacological preset (50 patients,
    14 days, T_d = 50), 5 seeds: median guided-minus-unguided correlation
    improvement >= 0.01 and median guided Wasserstein-1 within 5% of the
    unguided value."""
    improvements, w1_guided, w1_unguided = [], [], []
    for seed in range(5):
        config = ExperimentConfig.from_dict(
            {
                "dataset": {"kind": "dex", "n_units": 50, "n_days": 14},
                "out_dir": str(tmp_path / f"seed{seed}"),
                "seed": seed,
                "hybrid": {"m_y": 4, "m_x": 4, "hidden": [16, 16], "epochs": 8},
                "schedule": {"t_d": 50, "beta_end": 0.2},
                "diffusion": {"epochs": 150, "hidden": [64, 64]},
                "guidance": {
                    "eta_candidates": [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2],
                    "nu": 0.01,
                    "select": True,
                    "n_val_units": 3,
                    "n_val_samples": 6,
                },
                "evaluation": {"n_samples": 20, "test_fraction": 0.2},
            }
        )
        guided = run_experiment(config)
        unguided = json.loads(
            (tmp_path / f"seed{seed}" / "report_unguided.json").read_text()
        )
        improvements.append(guided.pearson_corr - unguided["pearson_corr"])
        w1_guided.append(guided.wasserstein1)
        w1_unguided.append(unguided["wasserstein1"])
    med_impr = float(np.median(improvements))
    med_w1_g = float(np.median(w1_guided))
    med_w1_u = float(np.median(w1_unguided))
    assert med_impr >= 0.01, f"median correlation improvement {med_impr:.4f} < 0.01"
    assert med_w1_g <= 1.05 * med_w1_u, (
        f"median guided W1 {med_w1_g:.3f} worse than 1.05x unguided {med_w1_u:.3f}"
    )


def test_criterion_10_strength_selection_finds_planted_optimum():
    """With exactly one candidate producing correlation 1.0, select_eta
    returns it in 100 of 100 trials."""
    config = GuidanceConfig(eta_candidates=(0.0, 0.01, 0.1, 1.0, 10.0))
    hits = 0
    for trial in range(100):
        rng = np.random.default_rng(trial)
        target = np.sort(rng.standard_normal(8))
        planted = float(rng.choice(config.eta_candidates))

        def sampler(eta, seed):
            if eta == planted:
                return np.tile(target, (4, 1))
            return rng.standard_normal((4, 8))

        chosen, _ = select_eta(config, sampler, target, seed=trial)
        hits += chosen == planted
    assert hits == 100, f"planted optimum recovered in {hits}/100 trials"


def test_criterion_11_case_study_recovers_planted_effect(tmp_path):
    """Planted one-unit shift between policy groups yields proxy effect
    1.0 +/- 1e-9; a region whose neighbors all share one policy is skipped."""
    path = tmp_path / "regions.csv"
    pre = np.linspace(0.0, 1.0, 4)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "week", "deaths_per_capita", "hospitalizations", "policy"])
        for i in range(3):
            for week in range(8):
                writer.writerow([f"weak_{i}", week, repr(float(pre[week % 4])), "0.0", 0])
            for week in range(8):
                writer.writerow(
                    [
                        f"strong_{i}",
                        week,
                        repr(float(pre[week % 4] + (week >= 4))),
                        "0.0",
                        int(week >= 4),
                    ]
                )
        # isolate an outlier whose nearest neighbors are all weak-policy
        for week in range(8):
            writer.writerow(["outlier", week, repr(float(pre[week % 4] + 100.0 * (week < 4))), "0.0", 0])
    config = CaseStudyConfig(
        region_csv=str(path), train_weeks=4, k_neighbors=4, test_regions=["weak_0"]
    )
    (row,) = case_study(config)
    assert row.skipped is None
    assert abs(row.proxy_wd - 1.0) <= 1e-9, f"proxy effect {row.proxy_wd} not 1.0 +/- 1e-9"

    homogeneous = CaseStudyConfig(
        region_csv=str(path), train_weeks=4, k_neighbors=2, test_regions=["weak_0"]
    )
    (row_h,) = case_study(homogeneous)
    assert row_h.skipped == "no policy-diverse neighbors"


def test_criterion_12_reruns_are_byte_identical(tmp_path):
    """Running the pipeline twice from the same config snapshot produces
    byte-identical reports and ensemble files."""
    base = {
        "dataset": {"kind": "dex", "n_units": 8, "n_days": 5},
        "out_dir": str(tmp_path / "first"),
        "seed": 3,
        "hybrid": {"m_y": 2, "m_x": 2, "hidden": [4], "epochs": 2},
        "schedule": {"t_d": 10},
        "diffusion": {"epochs": 5, "hidden": [16], "batch_size": 4},
        "guidance": {"eta": 0.01, "nu": 0.01, "select": False},
        "evaluation": {"n_samples": 5, "test_fraction": 0.25},
    }
    run_experiment(ExperimentConfig.from_dict(base))
    snapshot = json.loads((tmp_path / "first" / "config.json").read_text())
    snapshot["out_dir"] = str(tmp_path / "second")
    run_experiment(ExperimentConfig.from_dict(snapshot))
    for name in (
        "report.json",
        "report.csv",
        "report_unguided.json",
        "ensembles.csv",
        "ensembles_unguided.csv",
        "eta_sweep.csv",
    ):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
