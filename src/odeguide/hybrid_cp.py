"""Hybrid counterfactual predictor: learned latent ODEs for outcome and
covariate channels co-evolving with a mechanistic expert state, learned
initial-state encoders, and learned readouts.

The rollout integrates U units at once on their shared time grid: the
latent states are (U, m_y), (U, m_x) and (U, e) arrays with one row per
unit, so every RK4 stage is one batched MLP evaluation. Each unit's
treatment reaches the expert as the (U, 1) drive of
``expert_models.make_drive``, tabulated off the tape once per rollout over
every stage time: the dose plasma level for PKPD, the contact rate beta_t
(from the unit's own mandate start) for SEIRM. On the tape the expert's
right-hand side is one node per stage, evaluated on arrays, whose gradient
is the product with its closed-form Jacobian. Training backpropagates
through one rollout of the whole training set. Inference (``predict``) runs the same
rollout on plain numpy arrays for any number of units; the plain-array MLP
forward is row-invariant, so a unit's prediction is the same bits whichever
units share the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import diff_engine as de
from .datagen import Dataset, UnitRecord
from .diff_engine import MlpSpec, ParamSet, Tensor, TrainingError
from .expert_models import (
    PkpdParams,
    SeirmParams,
    make_drive,
    pkpd_jacobian,
    pkpd_terms,
    seirm_jacobian,
    seirm_terms,
    tabulate_drive,
)


@dataclass(frozen=True)
class HybridCpConfig:
    m_y: int = 8
    m_x: int = 8
    hidden: tuple[int, ...] = (32, 32)
    activation: str = "tanh"
    n_substeps: int = 1  # RK4 substeps per data-grid interval
    lr: float = 0.01
    epochs: int = 50
    decay_lambda: float = 0.005


@dataclass
class HybridCpModel:
    family: str  # "SEIRM" | "PKPD"
    expert_params: SeirmParams | PkpdParams
    d_x: int
    config: HybridCpConfig
    specs: dict[str, MlpSpec] = field(default_factory=dict)
    params: ParamSet | None = None

    @property
    def e_dim(self) -> int:
        if self.family == "SEIRM":
            return 5
        return self.expert_params.dim


def make_hybrid_model(
    family: str,
    expert_params,
    d_x: int,
    config: HybridCpConfig = HybridCpConfig(),
    seed: int = 0,
) -> HybridCpModel:
    if family not in ("SEIRM", "PKPD"):
        raise ValueError(f"unsupported expert family {family!r}")
    model = HybridCpModel(family=family, expert_params=expert_params, d_x=d_x, config=config)
    e = model.e_dim
    my, mx, h, act = config.m_y, config.m_x, config.hidden, config.activation
    model.specs = {
        "fy": MlpSpec.make(my + e + mx + 1, my, h, act),
        "fx": MlpSpec.make(mx + my + 1, mx, h, act),
        "gxi": MlpSpec.make(d_x + 2, mx, h, act),
        "gzeta": MlpSpec.make(mx + 2, my, h, act),
        "geta": MlpSpec.make(d_x + 2, e, h, act),
        "gy": MlpSpec.make(e + my + mx + 1, 1, h, act),
        "gx": MlpSpec.make(mx + 1, d_x, h, act),
    }
    rng = np.random.default_rng([seed, 7])
    arrays: dict[str, np.ndarray] = {}
    for name, spec in model.specs.items():
        arrays.update(de.init_mlp_params(spec, rng, prefix=f"{name}_"))
    model.params = ParamSet(arrays)
    return model


def _cat(parts):
    """Concatenate along the last axis, on the tape when any part is a Tensor."""
    if any(isinstance(p, Tensor) for p in parts):
        return de.concat(parts)
    return np.concatenate(parts, axis=-1)


def normalize_expert_state(raw, family: str, expert_params):
    """Map an unconstrained encoder output onto the family's state space:
    positivity via softplus, plus a per-row total-population rescale for
    SEIRM."""
    pos = de.softplus(raw)
    if family == "SEIRM":
        total = pos.sum(axis=-1)
        return pos * (expert_params.N / total.reshape(*total.shape, 1))
    return pos


def encode_init(model: HybridCpModel, params, x0, a0, y0):
    """Initial latent states (z_x, z_y, z_e) from the first observations:
    ``x0`` is (U, d_x), ``a0`` and ``y0`` are (U,)."""
    a0 = np.asarray(a0, float)[:, None]
    y0 = np.asarray(y0, float)[:, None]
    obs = np.concatenate([np.asarray(x0, float), a0, y0], axis=1)
    zx0 = de.mlp_apply(model.specs["gxi"], params, obs, prefix="gxi_")
    zy0 = de.mlp_apply(model.specs["gzeta"], params, _cat([zx0, a0, y0]), prefix="gzeta_")
    ze_raw = de.mlp_apply(model.specs["geta"], params, obs, prefix="geta_")
    ze0 = normalize_expert_state(ze_raw, model.family, model.expert_params)
    return zx0, zy0, ze0


def expert_rhs(model: HybridCpModel, ze, drive):
    """Mechanistic derivative of the expert state (last axis) under the
    treatment drive; never learned. ``drive`` broadcasts against one state
    column: a scalar for one unit, (U, 1) for a batch. A Tensor ``ze`` gives
    one tape node whose gradient is the product with the closed-form
    Jacobian."""
    z = ze.data if isinstance(ze, Tensor) else ze
    cols = [z[..., k : k + 1] for k in range(model.e_dim)]
    p = model.expert_params
    if model.family == "SEIRM":
        dze = np.concatenate(seirm_terms(*cols, p, drive), axis=-1)
    else:
        dze = np.concatenate(pkpd_terms(cols, p, drive), axis=-1)
    if not isinstance(ze, Tensor):
        return dze
    if model.family == "SEIRM":
        jac = seirm_jacobian(z, p, np.broadcast_to(drive, z[..., :1].shape)[..., 0])
    else:
        jac = pkpd_jacobian(z, p)
    return de.custom_vjp(dze, ze, lambda g: np.einsum("...i,...ij->...j", g, jac))


def hybrid_rhs(model: HybridCpModel, params, state, zy_lag, a_t, drive):
    """Coupled derivative of the state (z_y, z_x, z_e); the covariate channel
    sees the outcome latent through a one-grid-step delay buffer."""
    zy, zx, ze = state
    dzy = de.mlp_apply(model.specs["fy"], params, _cat([zy, ze, zx, a_t]), prefix="fy_")
    dzx = de.mlp_apply(model.specs["fx"], params, _cat([zx, zy_lag, a_t]), prefix="fx_")
    dze = expert_rhs(model, ze, drive)
    return dzy, dzx, dze


def readout(model: HybridCpModel, params, zy, zx, ze, a_t):
    """Outcome (U, 1) and covariates (U, d_x) from the latent states."""
    y = de.mlp_apply(model.specs["gy"], params, _cat([ze, zy, zx, a_t]), prefix="gy_")
    x = de.mlp_apply(model.specs["gx"], params, _cat([zx, a_t]), prefix="gx_")
    return y, x


def _rk4_joint(model, params, state, zy_lag, a_t, t, dt, drive):
    """One RK4 step of the state tuple; ``drive(t)`` gives the treatment
    drive at a stage time, and the delay buffer and treatment stay fixed."""

    def rhs(s, t_stage):
        return hybrid_rhs(model, params, s, zy_lag, a_t, drive(t_stage))

    def shift(h, k):
        return tuple(z + h * d for z, d in zip(state, k))

    k1 = rhs(state, t)
    k2 = rhs(shift(0.5 * dt, k1), t + 0.5 * dt)
    k3 = rhs(shift(0.5 * dt, k2), t + 0.5 * dt)
    k4 = rhs(shift(dt, k3), t + dt)
    sixth = dt / 6.0
    return tuple(
        z + sixth * (d1 + 2 * d2 + 2 * d3 + d4) for z, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4)
    )


def rollout(
    model: HybridCpModel,
    params,
    x0,
    a0,
    y0,
    a_seq,
    times: np.ndarray,
    treatments,
):
    """Encode, integrate, and read out U units at every point of their
    shared grid.

    ``x0`` is (U, d_x); ``a0`` and ``y0`` are (U,); ``a_seq`` is (U, T);
    ``treatments`` holds one schedule per unit. Returns the outcome (U, T)
    and covariates (U, T, d_x): tensors during training, arrays during
    inference.
    """
    a_seq = np.asarray(a_seq, float)
    if a_seq.shape[1] != len(times):
        raise ValueError("treatment sequence must cover the grid")

    n_sub = model.config.n_substeps
    # every substep's start and size, as (T - 1, n_sub) arrays
    dts = np.repeat(np.diff(times)[:, None] / n_sub, n_sub, axis=1)
    starts = times[:-1, None] + np.arange(n_sub) * dts
    drive = make_drive(model.family, model.expert_params, treatments, model.config.decay_lambda)
    table, row = tabulate_drive(drive, starts.ravel(), dts.ravel())

    def drive_at(t):
        return table[row[t], :, None]

    zx, zy, ze = encode_init(model, params, x0, a0, y0)
    y_out, x_out = readout(model, params, zy, zx, ze, a_seq[:, :1])
    ys, xs = [y_out], [x_out]
    zy_lag = zy
    for k in range(len(times) - 1):
        zy_start = zy
        a_t = a_seq[:, k : k + 1]
        for t, dt in zip(starts[k], dts[k]):
            zy, zx, ze = _rk4_joint(model, params, (zy, zx, ze), zy_lag, a_t, t, dt, drive_at)
        zy_lag = zy_start
        y_out, x_out = readout(model, params, zy, zx, ze, a_seq[:, k + 1 : k + 2])
        ys.append(y_out)
        xs.append(x_out)
    return _cat(ys), _cat(xs).reshape(len(treatments), len(times), model.d_x)


def predict(model: HybridCpModel, x0, a0, y0, a_seq, times, treatment):
    """Deterministic point predictions of U units on the model's own
    parameters: ``rollout``'s arguments, with ``treatment`` one schedule per
    unit. Returns the outcome (U, T) and covariates (U, T, d_x) arrays."""
    params = dict(model.params.items())
    return rollout(model, params, x0, a0, y0, a_seq, np.asarray(times, float), treatment)


def _dataset_loss(model: HybridCpModel, tensors, units: list[UnitRecord]):
    """Mean squared error of one batched rollout over the factual arms:
    outcome and covariate errors, each averaged over the observed points
    only. Works on tensors for training and on plain arrays for evaluation."""
    trajs = [u.factual for u in units]
    times = trajs[0].times
    if any(not np.array_equal(tr.times, times) for tr in trajs):
        raise ValueError("all units must share one time grid")
    y_hat, x_hat = rollout(
        model,
        tensors,
        np.stack([tr.x[0] for tr in trajs]),
        [float(tr.a[0]) for tr in trajs],
        [float(tr.y[0]) for tr in trajs],
        np.stack([tr.a for tr in trajs]),
        times,
        [u.treatment_factual for u in units],
    )
    # (unit, time) pairs of the observed points, unit-major
    obs = np.nonzero(np.stack([tr.observed for tr in trajs]))
    y = np.stack([tr.y for tr in trajs])[obs]
    x = np.stack([tr.x for tr in trajs])[obs]
    dx = x_hat[obs] - x
    return ((y_hat[obs] - y) ** 2).sum() * (1.0 / y.size) + (dx * dx).sum() * (1.0 / x.size)


def train_hybrid(
    model: HybridCpModel, dataset: Dataset, config: HybridCpConfig | None = None
) -> tuple[HybridCpModel, list[float]]:
    """Fit the learned components to factual arms by MSE on observed points.

    The mechanistic expert parameters are never touched.
    """
    if not dataset.units:
        raise ValueError("dataset must be nonempty")
    if config is None:
        config = model.config
    params = model.params
    state = de.AdamState()
    losses: list[float] = []

    def loss_fn(tensors):
        return _dataset_loss(model, tensors, dataset.units)

    for epoch in range(config.epochs):
        record = de.value_and_grad(loss_fn, params)
        if not np.isfinite(record.loss):
            raise TrainingError(f"loss diverged at epoch {epoch}")
        losses.append(record.loss)
        params, state = de.adam_step(params, record.gradient, state, config.lr)
    final = float(_dataset_loss(model, dict(params.items()), dataset.units))
    losses.append(final)
    trained = replace(model)
    trained.params = params
    return trained, losses
