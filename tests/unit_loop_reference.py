"""Per-unit loop references for the stacked-array code that replaced them:
``evaluate_ensembles`` (``harness.evaluate_ensembles``, which now scores a
(U, n_samples, T) array with unit-axis reductions) and ``fit_propensity``
(``diffusion.fit_propensity``, which now builds its features as one
(U * (T - 1), d_x + 2) block). The tests check that the stacked versions
keep these loops' bits."""

from __future__ import annotations

import numpy as np

from odeguide.diffusion import _NEWTON_STEPS, PropensityModel
from odeguide.metrics import (
    MetricReport,
    cate_rmse,
    interval_scores,
    pearson,
    wasserstein1_rows,
)


def evaluate_ensembles(ensembles, units) -> MetricReport:
    """Score one (n_samples, T) ensemble per unit, one unit at a time."""
    truths = []
    effects_est, effects_true = [], []
    means = []
    for ens, unit in zip(ensembles, units):
        cf = unit.counterfactual
        truth = cf.y_clean if cf.y_clean is not None else cf.y
        truths.append(np.asarray(truth, float))
        means.append(ens.mean(axis=0))
        f, obs = unit.factual, unit.factual.observed
        f_clean = f.y_clean if f.y_clean is not None else f.y
        effects_est.append(np.asarray(f.y, float)[obs] - means[-1][obs])
        effects_true.append(np.asarray(f_clean, float)[obs] - truths[-1][obs])
    mean_cat = np.concatenate(means)
    truth_cat = np.concatenate(truths)
    rmse = float(np.sqrt(np.mean((mean_cat - truth_cat) ** 2)))
    corr = pearson(mean_cat, truth_cat)
    per_unit = [interval_scores(e, t) for e, t in zip(ensembles, truths)]
    cov75, cov90, cov95, calib = (float(np.mean(unit_scores)) for unit_scores in zip(*per_unit))
    pooled = np.concatenate([e.T for e in ensembles], axis=1)  # (T, units x samples)
    return MetricReport(
        wasserstein1=float(np.mean(wasserstein1_rows(pooled, np.stack(truths, axis=1)))),
        rmse=rmse,
        pi_coverage_75=cov75,
        pi_coverage_90=cov90,
        pi_coverage_95=cov95,
        cate_rmse=cate_rmse(np.concatenate(effects_est), np.concatenate(effects_true)),
        calibration_score=calib,
        pearson_corr=corr,
        n_samples=int(ensembles[0].shape[0]),
        n_units=len(units),
    )


def fit_propensity(dataset) -> PropensityModel:
    """The logistic fit with its features built one unit and time at a time."""
    feats, labels = [], []
    for unit in dataset.units:
        traj = unit.factual
        for t in range(1, traj.horizon):
            feats.append(np.concatenate([traj.x[t], [float(traj.a[t - 1]), 1.0]]))
            labels.append(float(traj.a[t]))
    X = np.asarray(feats)
    yv = np.asarray(labels)
    w = np.zeros(X.shape[1])
    for _ in range(_NEWTON_STEPS):
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-X @ w))
        grad = X.T @ (yv - p)
        W = p * (1.0 - p)
        H = (X * W[:, None]).T @ X + 1e-6 * np.eye(X.shape[1])
        step = np.linalg.solve(H, grad)
        w = w + step
        if np.max(np.abs(step)) < 1e-10:
            break
    return PropensityModel(weights=w)
