"""Conditional time-series denoising diffusion with direct clean-signal
prediction, inverse-propensity-reweighted training, and ensemble sampling."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diff_engine as de
from .datagen import Dataset, UnitRecord
from .diff_engine import MlpSpec, ParamSet, Tensor, TrainingError


@dataclass(frozen=True)
class DiffusionSchedule:
    t_d: int
    beta: np.ndarray  # (T_d,), entry k is beta_{k+1}
    alpha: np.ndarray
    alpha_bar: np.ndarray
    loss_weights: np.ndarray
    lambda_const: float

    def alpha_bar_at(self, tau: int) -> float:
        """Cumulative alpha with the convention alpha_bar_0 = 1."""
        if tau == 0:
            return 1.0
        return float(self.alpha_bar[tau - 1])


def make_schedule(
    t_d: int = 50,
    beta_start: float = 1e-4,
    beta_end: float = 0.1,
    lambda_const: float = 1.0,
) -> DiffusionSchedule:
    if not (0 < beta_start <= beta_end < 1):
        raise ValueError("require 0 < beta_start <= beta_end < 1")
    if t_d < 1:
        raise ValueError("t_d must be >= 1")
    beta = np.linspace(beta_start, beta_end, t_d)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    loss_weights = lambda_const * alpha * (1.0 - alpha_bar) / beta**2
    return DiffusionSchedule(
        t_d=t_d,
        beta=beta,
        alpha=alpha,
        alpha_bar=alpha_bar,
        loss_weights=loss_weights,
        lambda_const=lambda_const,
    )


def reverse_step(
    y_tau: np.ndarray,
    tau: int,
    y0_hat: np.ndarray,
    schedule: DiffusionSchedule,
    noise: np.ndarray | None,
) -> np.ndarray:
    """One posterior sampling step from tau to tau - 1.

    The mean combines the clean-signal estimate and the current noisy sample;
    the injected noise has standard deviation sqrt(beta_tau), the upper of
    the two standard variance choices (the lower, the posterior variance of
    the forward process, systematically under-disperses ensembles when the
    clean-signal estimate carries predictive uncertainty of its own). At
    tau = 1 the step is the identity on y0_hat.
    """
    if not 1 <= tau <= schedule.t_d:
        raise ValueError(f"tau={tau} out of range [1, {schedule.t_d}]")
    if tau == 1:
        # abar_0 = 1 makes the mean collapse onto y0_hat; return it directly
        # so the identity holds bitwise rather than up to rounding.
        return np.asarray(y0_hat, float)
    beta = float(schedule.beta[tau - 1])
    alpha = float(schedule.alpha[tau - 1])
    abar = schedule.alpha_bar_at(tau)
    abar_prev = schedule.alpha_bar_at(tau - 1)
    c_clean = np.sqrt(abar_prev) * beta / (1.0 - abar)
    c_noisy = np.sqrt(alpha) * (1.0 - abar_prev) / (1.0 - abar)
    sigma = np.sqrt(beta)
    out = c_clean * y0_hat + c_noisy * y_tau
    if tau > 1 and noise is not None:
        out = out + sigma * noise
    return out


@dataclass
class ConditioningContext:
    """Denoiser conditions: point-prediction prior, covariates, treatment."""

    y_prime: np.ndarray  # (T,)
    x: np.ndarray  # (T, d_x)
    a: np.ndarray  # (T,)

    def vector(self) -> np.ndarray:
        if not (len(self.y_prime) == len(self.x) == len(self.a)):
            raise ValueError("conditioning lengths must match the horizon")
        return np.concatenate(
            [self.y_prime, np.asarray(self.x, float).ravel(), np.asarray(self.a, float)]
        )


@dataclass
class DenoiserModel:
    horizon: int
    d_x: int
    spec: MlpSpec = None
    params: ParamSet = None
    n_freq: int = 8

    @property
    def cond_dim(self) -> int:
        return self.horizon * (2 + self.d_x)


def make_denoiser(
    horizon: int,
    d_x: int,
    hidden: tuple[int, ...] = (64, 64, 64),
    seed: int = 0,
    n_freq: int = 8,
) -> DenoiserModel:
    model = DenoiserModel(horizon=horizon, d_x=d_x, n_freq=n_freq)
    n_in = horizon + 2 * n_freq + model.cond_dim
    model.spec = MlpSpec.make(n_in, horizon, hidden, act="relu")
    rng = np.random.default_rng([seed, 11])
    model.params = ParamSet(de.init_mlp_params(model.spec, rng, prefix="den_"))
    return model


def _predict_y0(model, params, y_tau, tau, t_d, cond_vec):
    """Clean-signal estimate with a skip connection: the network learns the
    correction to the noisy sample, which keeps the low-noise regime
    near-identity without training effort.

    ``y_tau`` is (..., T); the network sees it as (R, T) rows through
    ``mlp_apply``, whose plain-array forward is batch-size invariant, so a
    member's estimate does not depend on how many members share the pass.
    """
    y_tau = np.asarray(y_tau, float)
    rows = y_tau.reshape(-1, model.horizon)
    fixed = np.concatenate([de.timestep_embedding(tau, t_d, model.n_freq), cond_vec])
    inp = np.concatenate([rows, np.broadcast_to(fixed, (len(rows), fixed.size))], axis=1)
    return y_tau + de.mlp_apply(model.spec, params, inp, prefix="den_").reshape(y_tau.shape)


# -- propensity model ---------------------------------------------------


@dataclass
class PropensityModel:
    """Logistic model for P(a_t = 1 | x_t, a_{t-1})."""

    weights: np.ndarray | None = None  # (d_x + 2,), last entry is intercept
    history_length: int = 3
    prob_floor: float = 0.01

    def prob_treated(self, x_t: np.ndarray, a_prev: float) -> float:
        feats = np.concatenate([np.atleast_1d(np.asarray(x_t, float)), [a_prev, 1.0]])
        return float(1.0 / (1.0 + np.exp(-feats @ self.weights)))


def fit_propensity(
    dataset: Dataset, history_length: int = 3, n_iter: int = 50
) -> PropensityModel:
    """Maximum-likelihood logistic fit on (x_t, a_{t-1}) -> a_t pairs from
    the factual arms (Newton-Raphson with ridge damping)."""
    feats, labels = [], []
    for unit in dataset.units:
        traj = unit.factual
        for t in range(1, traj.horizon):
            feats.append(np.concatenate([traj.x[t], [float(traj.a[t - 1]), 1.0]]))
            labels.append(float(traj.a[t]))
    X = np.asarray(feats)
    yv = np.asarray(labels)
    w = np.zeros(X.shape[1])
    for _ in range(n_iter):
        p = 1.0 / (1.0 + np.exp(-X @ w))
        grad = X.T @ (yv - p)
        W = p * (1.0 - p)
        H = (X * W[:, None]).T @ X + 1e-6 * np.eye(X.shape[1])
        step = np.linalg.solve(H, grad)
        w = w + step
        if np.max(np.abs(step)) < 1e-10:
            break
    return PropensityModel(weights=w, history_length=history_length)


def propensity_weight(model: PropensityModel, unit: UnitRecord) -> float:
    """Inverse product of the probabilities of the observed treatments over
    the last ``history_length`` time points; probabilities clipped below."""
    traj = unit.factual
    d = model.history_length
    if traj.horizon < d:
        raise ValueError("trajectory shorter than history dependence length")
    prod = 1.0
    for t in range(traj.horizon - d, traj.horizon):
        a_prev = float(traj.a[t - 1]) if t >= 1 else 0.0
        p1 = model.prob_treated(traj.x[t], a_prev)
        p_obs = p1 if traj.a[t] == 1 else 1.0 - p1
        prod *= max(p_obs, model.prob_floor)
    return 1.0 / prod


# -- training -----------------------------------------------------------


@dataclass(frozen=True)
class DiffusionTrainConfig:
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 64


def train_diffusion(
    model: DenoiserModel,
    y0_rows: np.ndarray,
    cond_rows: np.ndarray,
    mask_rows: np.ndarray,
    weights: np.ndarray,
    schedule: DiffusionSchedule,
    config: DiffusionTrainConfig = DiffusionTrainConfig(),
    seed: int = 0,
) -> tuple[DenoiserModel, list[float]]:
    """Minimize the propensity- and schedule-weighted squared error between
    clean outcomes and the denoiser's estimates at random noise levels.

    ``y0_rows``: (n, T) clean outcome rows; ``cond_rows``: (n, cond_dim)
    conditioning vectors; ``mask_rows``: (n, T) observation masks limiting
    the squared norm to observed entries; ``weights``: (n,) inverse
    propensity weights.
    """
    n, T = y0_rows.shape
    if n == 0:
        raise ValueError("training set must be nonempty")
    rng = np.random.default_rng([seed, 13])
    t_d = schedule.t_d  # row tau - 1 of the table embeds step tau
    table = np.stack([de.timestep_embedding(k, t_d, model.n_freq) for k in range(1, t_d + 1)])
    params = model.params
    state = de.AdamState()
    losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            taus = rng.integers(1, schedule.t_d + 1, size=idx.size)
            eps = rng.standard_normal((idx.size, T))
            record = de.value_and_grad(
                _batch_loss_fn,
                params,
                model,
                schedule,
                y0_rows[idx],
                cond_rows[idx],
                mask_rows[idx],
                weights[idx],
                taus,
                eps,
                table[taus - 1],
            )
            if not np.isfinite(record.loss):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            params, state = de.adam_step(params, record.gradient, state, config.lr)
            epoch_loss += record.loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    trained = replace(model)
    trained.params = params
    return trained, losses


def _batch_loss_fn(tensors, model, schedule, y0, cond, mask, weights, taus, eps, embeds=None):
    B, T = y0.shape
    abar = np.array([schedule.alpha_bar_at(int(t)) for t in taus])
    y_tau = np.sqrt(abar)[:, None] * y0 + np.sqrt(1.0 - abar)[:, None] * eps
    if embeds is None:  # no table rows given: embed each row's tau here
        embeds = np.stack([de.timestep_embedding(int(t), schedule.t_d, model.n_freq) for t in taus])
    inputs = np.concatenate([y_tau, embeds, cond], axis=1)
    y0_hat = de.mlp_apply(model.spec, tensors, inputs, prefix="den_") + y_tau
    w_tau = schedule.loss_weights[taus - 1]
    diff = (y0_hat - y0) * mask
    per_row = (diff * diff).sum(axis=1)
    return (per_row * (weights * w_tau)).sum() * (1.0 / B)


def diffusion_batch_loss(
    model: DenoiserModel,
    schedule: DiffusionSchedule,
    y0: np.ndarray,
    cond: np.ndarray,
    mask: np.ndarray,
    weights: np.ndarray,
    taus: np.ndarray,
    eps: np.ndarray,
    params: ParamSet | None = None,
) -> float:
    """Loss value at fixed parameters (no gradient); linear in ``weights``."""
    if params is None:
        params = model.params
    val = _batch_loss_fn(
        {k: Tensor(v) for k, v in params.items()}, model, schedule, y0, cond, mask, weights, taus, eps
    )
    return float(val.data)


# -- sampling -----------------------------------------------------------


@dataclass
class SampleEnsemble:
    samples: np.ndarray  # (n_samples, T)


def sample(
    model: DenoiserModel,
    cond: ConditioningContext,
    schedule: DiffusionSchedule,
    n_samples: int,
    seed: int,
    guide_fn=None,
    predict_fn=None,
) -> SampleEnsemble:
    """Draw an ensemble by running the reverse process on all members at
    once, as an (n_samples, T) array.

    ``predict_fn(y_tau, tau) -> y0_hat`` replaces the trained denoiser
    entirely (oracle injection); it receives the (n_samples, T) state and
    may return (n_samples, T) or a (T,) row that broadcasts.
    ``guide_fn(y0_hat, tau) -> y0_tilde`` optionally adjusts the
    clean-signal estimate before each reverse step. A guide whose output
    broadcasts to (K, n_samples, T), such as one built with a (K, 1, 1)
    strength column, runs K guided ensembles that share every noise draw
    in one stacked pass; ``samples`` is then (K, n_samples, T), and member
    s of copy k equals member s of a separate call with that guide.

    Member s draws its initial state and its step noise from its own
    sub-seed, so prefixes of the ensemble are stable in ``n_samples``.
    Raises FloatingPointError when the ensemble is not finite.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    T = model.horizon
    cond_vec = cond.vector()
    # (t_d, n_samples, T): row 0 is the initial state, row i the noise of
    # the step from tau = t_d - i + 1
    draws = np.stack(
        [
            np.random.default_rng([seed, 17, s]).standard_normal((schedule.t_d, T))
            for s in range(n_samples)
        ],
        axis=1,
    )
    y = draws[0]
    for tau in range(schedule.t_d, 0, -1):
        if predict_fn is not None:
            y0_hat = np.broadcast_to(predict_fn(y, tau), y.shape)
        else:
            y0_hat = _predict_y0(model, model.params, y, tau, schedule.t_d, cond_vec)
        if guide_fn is not None:
            y0_hat = guide_fn(y0_hat, tau)
        noise = draws[schedule.t_d - tau + 1] if tau > 1 else None
        y = reverse_step(y, tau, y0_hat, schedule, noise)
    bad = int(np.count_nonzero(~np.isfinite(y)))
    if bad:
        raise FloatingPointError(
            f"sample: reverse diffusion gave {bad} non-finite of {y.size} values (seed {seed})"
        )
    return SampleEnsemble(samples=np.array(y, float))
