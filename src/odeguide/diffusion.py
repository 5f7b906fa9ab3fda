"""Conditional time-series denoising diffusion with direct clean-signal
prediction, inverse-propensity-reweighted training, and ensemble sampling."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diff_engine as de
from .datagen import Dataset, UnitRecord
from .diff_engine import MlpSpec, ParamSet, TrainingError


@dataclass(frozen=True)
class DiffusionSchedule:
    t_d: int
    beta: np.ndarray  # (T_d,), entry k is beta_{k+1}
    alpha: np.ndarray
    alpha_bar: np.ndarray
    loss_weights: np.ndarray

    def alpha_bar_at(self, tau: int) -> float:
        """Cumulative alpha with the convention alpha_bar_0 = 1."""
        if tau == 0:
            return 1.0
        return float(self.alpha_bar[tau - 1])


def make_schedule(
    t_d: int = 50,
    beta_start: float = 1e-4,
    beta_end: float = 0.1,
) -> DiffusionSchedule:
    de.check_count("schedule.t_d", t_d)
    for name, value in (("beta_start", beta_start), ("beta_end", beta_end)):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"schedule.{name} must be a number, got {value!r}")
    if not (0 < beta_start <= beta_end < 1):
        raise ValueError("require 0 < beta_start <= beta_end < 1")
    beta = np.linspace(beta_start, beta_end, t_d)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    loss_weights = alpha * (1.0 - alpha_bar) / beta**2
    return DiffusionSchedule(
        t_d=t_d, beta=beta, alpha=alpha, alpha_bar=alpha_bar, loss_weights=loss_weights
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
    if noise is not None:
        out = out + sigma * noise
    return out


@dataclass
class ConditioningContext:
    """Denoiser conditions: point-prediction prior, covariates, treatment;
    the fields of U stacked units carry a leading U axis."""

    y_prime: np.ndarray  # (T,)
    x: np.ndarray  # (T, d_x)
    a: np.ndarray  # (T,)

    def vector(self) -> np.ndarray:
        """(cond_dim,), or (U, cond_dim) when the fields carry a unit axis."""
        x = np.asarray(self.x, float)
        if not (np.shape(self.y_prime)[-1] == x.shape[-2] == np.shape(self.a)[-1]):
            raise ValueError("conditioning lengths must match the horizon")
        return np.concatenate(
            [self.y_prime, x.reshape(*x.shape[:-2], -1), np.asarray(self.a, float)], axis=-1
        )


@dataclass
class DenoiserModel:
    horizon: int
    d_x: int
    spec: MlpSpec = None
    params: ParamSet = None

    @property
    def cond_dim(self) -> int:
        return self.horizon * (2 + self.d_x)


@dataclass(frozen=True)
class DiffusionTrainConfig:
    epochs: int = 200
    lr: float = 1e-3
    batch_size: int = 64
    hidden: tuple[int, ...] = (64, 64, 64)

    def __post_init__(self):
        de.check_count("diffusion.epochs", self.epochs)
        de.check_count("diffusion.batch_size", self.batch_size)
        de.check_rate("diffusion.lr", self.lr)
        object.__setattr__(self, "hidden", de.check_widths("diffusion.hidden", self.hidden))


def make_denoiser(
    horizon: int,
    d_x: int,
    hidden: tuple[int, ...] = DiffusionTrainConfig.hidden,
    seed: int = 0,
) -> DenoiserModel:
    model = DenoiserModel(horizon=horizon, d_x=d_x)
    n_in = horizon + 2 * de.N_FREQ + model.cond_dim
    model.spec = MlpSpec.make(n_in, horizon, hidden, act="relu")
    rng = np.random.default_rng([seed, 11])
    model.params = ParamSet(de.init_mlp_params(model.spec, rng, prefix="den_"))
    return model


def _predict_y0(model, params, y_tau, tau, t_d, cond_vec):
    """Clean-signal estimate with a skip connection: the network learns the
    correction to the noisy sample, which keeps the low-noise regime
    near-identity without training effort.

    ``y_tau`` is (..., T) and ``cond_vec`` broadcasts against its rows. The
    first layer's pre-activation is split by weight rows into
    ``rows(y, W_y) + (rows(emb, W_e) + rows(cond, W_c)) + b0``, so the
    embedding product runs once per call and the conditioning product once
    per unit. Every product uses ``mlp_forward``'s row-invariant helpers: a
    member's estimate depends only on its noisy state and its unit's
    conditioning, and agrees with ``mlp_forward`` on the concatenated input
    to rounding (the sum is split), not bitwise.
    """
    y_tau, cond_vec = np.asarray(y_tau, float), np.asarray(cond_vec, float)
    Ws, bs = ([params[f"den_{k}{i}"] for i in range(len(model.spec.activations))] for k in "Wb")
    W_y, W_e, W_c = np.split(Ws[0], [model.horizon, model.horizon + 2 * de.N_FREQ])
    emb = de.timestep_embedding(tau, t_d)[None]
    fixed = de._rows(emb, W_e) + de._rows(cond_vec.reshape(-1, W_c.shape[0]), W_c)
    noisy = de._rows(y_tau.reshape(-1, model.horizon), W_y).reshape(*y_tau.shape[:-1], -1)
    pre = noisy + fixed.reshape(*cond_vec.shape[:-1], -1) + bs[0]
    out = de._layers(model.spec, Ws, bs, pre.reshape(-1, pre.shape[-1]))[-1]
    return y_tau + out.reshape(y_tau.shape)


# -- propensity model ---------------------------------------------------


@dataclass
class PropensityModel:
    """Logistic model for P(a_t = 1 | x_t, a_{t-1})."""

    weights: np.ndarray | None = None  # (d_x + 2,), last entry is intercept
    history_length: int = 3
    prob_floor: float = 0.01

    def prob_treated(self, x_t: np.ndarray, a_prev: float) -> float:
        feats = np.concatenate([np.atleast_1d(np.asarray(x_t, float)), [a_prev, 1.0]])
        with np.errstate(over="ignore"):  # 1 / (1 + inf) is the exact limit 0
            return float(1.0 / (1.0 + np.exp(-feats @ self.weights)))


_NEWTON_STEPS = 50  # at most; the fit stops once a step is below 1e-10


def fit_propensity(dataset: Dataset) -> PropensityModel:
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
    for _ in range(_NEWTON_STEPS):
        with np.errstate(over="ignore"):  # 1 / (1 + inf) is the exact limit 0
            p = 1.0 / (1.0 + np.exp(-X @ w))
        grad = X.T @ (yv - p)
        W = p * (1.0 - p)
        H = (X * W[:, None]).T @ X + 1e-6 * np.eye(X.shape[1])
        step = np.linalg.solve(H, grad)
        w = w + step
        if np.max(np.abs(step)) < 1e-10:
            break
    return PropensityModel(weights=w)


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

    Each batch's loss and gradient come from ``_batch_loss_and_grad``, one
    forward and one closed-form backward pass, bitwise equal to the tape
    denoiser loss of ``tests/tape_reference.py``, its test reference.
    """
    n, T = y0_rows.shape
    if n == 0:
        raise ValueError("training set must be nonempty")
    rng = np.random.default_rng([seed, 13])
    t_d = schedule.t_d  # row tau - 1 of the table embeds step tau
    table = np.stack([de.timestep_embedding(k, t_d) for k in range(1, t_d + 1)])
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
            loss, grads = _batch_loss_and_grad(
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
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            params, state = de.adam_step(params, grads, state, config.lr)
            epoch_loss += loss
            n_batches += 1
        losses.append(epoch_loss / n_batches)
    trained = replace(model)
    trained.params = params
    return trained, losses


def _noised_inputs(model, schedule, y0, cond, taus, eps, embeds):
    """The noisy rows ``y_tau`` and the denoiser's input rows
    (y_tau | embedding | conditioning)."""
    abar = schedule.alpha_bar[taus - 1]
    y_tau = np.sqrt(abar)[:, None] * y0 + np.sqrt(1.0 - abar)[:, None] * eps
    if embeds is None:  # no table rows given: embed each row's tau here
        embeds = np.stack([de.timestep_embedding(int(t), schedule.t_d) for t in taus])
    return y_tau, np.concatenate([y_tau, embeds, cond], axis=1)


def _weighted_sse(y0_hat, y0, mask, row_weights):
    """Batch mean of the row-weighted squared error on the masked entries."""
    diff = (y0_hat - y0) * mask
    return ((diff * diff).sum(axis=1) * row_weights).sum() * (1.0 / len(y0))


def _batch_loss_fn(params, model, schedule, *batch):
    """``_batch_loss_and_grad``'s loss; given Tensor parameters, one loss
    node whose backward step is its gradient."""
    loss_and_grad = lambda arrays: _batch_loss_and_grad(arrays, model, schedule, *batch)
    if de.holds_tensors(params):
        return de.loss_node(loss_and_grad, params)
    return loss_and_grad(params)[0]


def _batch_loss_and_grad(params, model, schedule, y0, cond, mask, weights, taus, eps, embeds=None):
    """The batch loss and its parameter gradient from one forward and one
    backward pass. The backward takes the steps of the tape in
    ``tests/tape_reference.py`` in the tape's order, so both are bitwise
    the tape's."""
    y_tau, inputs = _noised_inputs(model, schedule, y0, cond, taus, eps, embeds)
    n_layers = len(model.spec.activations)
    Ws, bs = ([params[f"den_{k}{i}"] for i in range(n_layers)] for k in "Wb")
    hs = de.mlp_forward(model.spec, Ws, bs, inputs)
    y0_hat = hs[-1] + y_tau
    row_weights = weights * schedule.loss_weights[taus - 1]
    loss = float(_weighted_sse(y0_hat, y0, mask, row_weights))
    # d loss / d diff: the tape accumulates g * diff once per factor of diff * diff
    g_diff = ((1.0 / len(y0)) * row_weights)[:, None] * ((y0_hat - y0) * mask)
    dWs, dbs, _ = de.mlp_backward(model.spec, Ws, hs, (g_diff + g_diff) * mask, dx=False)
    return loss, dict(zip([f"den_{k}{i}" for k in "Wb" for i in range(n_layers)], dWs + dbs))


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
    val = _batch_loss_fn(dict(params.items()), model, schedule, y0, cond, mask, weights, taus, eps)
    return float(val)


# -- sampling -----------------------------------------------------------


_NOISE_BLOCK_STEPS = 10  # reverse steps of noise each member draws at once


@dataclass
class SampleEnsemble:
    samples: np.ndarray  # (n_samples, T); stacked passes add leading (K, U) axes


def sample(
    model: DenoiserModel,
    cond: ConditioningContext,
    schedule: DiffusionSchedule,
    n_samples: int,
    seed: int | list[int],
    guide_fn=None,
    predict_fn=None,
) -> SampleEnsemble:
    """Draw ensembles by running the reverse process on every member of
    every unit at once.

    ``seed`` is one int, or a sequence of U unit seeds with ``cond``'s
    fields carrying a leading U axis; ``samples`` is then (U, n_samples, T)
    instead of (n_samples, T). Member s of unit u draws its initial state
    and step noise from ``[seed_u, 17, s]``, so ensemble prefixes are stable
    in ``n_samples`` and a unit's ensemble equals its one-unit call.

    ``predict_fn(y_tau, tau) -> y0_hat`` replaces the trained denoiser
    entirely (oracle injection); it receives the (..., n_samples, T) state
    and may return that shape or a (T,) row that broadcasts.
    ``guide_fn(y0_hat, tau) -> y0_tilde`` optionally adjusts the
    clean-signal estimate before each reverse step. A guide whose output
    has a leading K axis, such as one built with a (K, 1, 1) strength
    column ((K, 1, 1, 1) with units), runs K guided copies that share every
    noise draw in one stacked pass; copy k of ``samples`` equals a separate
    call with that guide. Raises FloatingPointError, naming the first unit
    with a non-finite value, when the ensemble is not finite.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    T = model.horizon
    seeds = np.ravel(seed).tolist()
    shape = (*np.shape(seed), n_samples, T)
    rngs = [np.random.default_rng([s, 17, m]) for s in seeds for m in range(n_samples)]

    def draws():  # every member's next (T,) vector, one step after another;
        # a (k, T) draw continues a stream as k draws of (T,) would
        for left in range(schedule.t_d, 0, -_NOISE_BLOCK_STEPS):
            k = min(left, _NOISE_BLOCK_STEPS)
            block = np.stack([rng.standard_normal((k, T)) for rng in rngs], axis=1)
            yield from block.reshape(k, *shape)

    noise = draws()  # t_d draws: the initial state and the steps tau > 1
    cond_vec = cond.vector()[..., None, :]  # broadcasts over the members
    y = next(noise)
    for tau in range(schedule.t_d, 0, -1):
        if predict_fn is not None:
            y0_hat = np.broadcast_to(predict_fn(y, tau), y.shape)
        else:
            y0_hat = _predict_y0(model, model.params, y, tau, schedule.t_d, cond_vec)
        if guide_fn is not None:
            y0_hat = guide_fn(y0_hat, tau)
        y = reverse_step(y, tau, y0_hat, schedule, next(noise) if tau > 1 else None)
    finite = np.isfinite(y)
    if not finite.all():
        u = int(np.argmin(finite.reshape(-1, len(seeds), n_samples * T).all(axis=(0, 2))))
        raise FloatingPointError(
            f"sample: reverse diffusion gave {finite.size - np.count_nonzero(finite)} non-finite "
            f"of {y.size} values, first in unit {u} (seed {seeds[u]})"
        )
    return SampleEnsemble(samples=np.array(y, float))
