"""Hybrid counterfactual predictor: learned latent ODEs for outcome and
covariate channels co-evolving with a mechanistic expert state, learned
initial-state encoders, and learned readouts.

The rollout integrates U units at once on their shared time grid. The
latent state is one packed (U, m_y + e + m_x) array (z_y | z_e | z_x), one
row per unit, stepped by ``ode_core.rk4_update``, the same RK4 that steps
the expert alone; so every RK4 stage is one batched evaluation of each
learned field, and the outcome field reads the packed state whole. Each unit's
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
from .ode_core import rk4_update


@dataclass(frozen=True)
class HybridCpConfig:
    m_y: int = 8
    m_x: int = 8
    hidden: tuple[int, ...] = (32, 32)
    activation: str = "tanh"
    n_substeps: int = 1  # RK4 substeps per data-grid interval
    lr: float = 0.01
    epochs: int = 50


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
    zy0 = de.mlp_apply(model.specs["gzeta"], params, de.concat([zx0, a0, y0]), prefix="gzeta_")
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
        jacobian = lambda: seirm_jacobian(z, p, np.broadcast_to(drive, z[..., :1].shape)[..., 0])
    else:
        dze = np.concatenate(pkpd_terms(cols, p, drive), axis=-1)
        jacobian = lambda: pkpd_jacobian(z, p)
    return de.custom_vjp(dze, ze, lambda g: np.einsum("...i,...ij->...j", g, jacobian()))


def readout(model: HybridCpModel, params, zy, zx, ze, a_t):
    """Outcome (U, 1) and covariates (U, d_x) from the latent states."""
    y = de.mlp_apply(model.specs["gy"], params, de.concat([ze, zy, zx, a_t]), prefix="gy_")
    x = de.mlp_apply(model.specs["gx"], params, de.concat([zx, a_t]), prefix="gx_")
    return y, x


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
    drive = make_drive(model.family, model.expert_params, treatments)
    table, row = tabulate_drive(drive, starts.ravel(), dts.ravel())
    my, e = model.config.m_y, model.e_dim

    zx, zy, ze = encode_init(model, params, x0, a0, y0)
    z = de.concat([zy, ze, zx])  # the packed state (z_y | z_e | z_x)
    y_out, x_out = readout(model, params, zy, zx, ze, a_seq[:, :1])
    ys, xs = [y_out], [x_out]
    # the covariate channel sees the outcome latent through a one-grid-step
    # delay buffer; the buffer and the treatment stay fixed over an interval
    zy_lag = zy
    for k in range(len(times) - 1):
        zy_start = zy
        a_t = a_seq[:, k : k + 1]

        def rhs(z, t):
            dzy = de.mlp_apply(model.specs["fy"], params, de.concat([z, a_t]), prefix="fy_")
            fx_in = de.concat([z[:, my + e :], zy_lag, a_t])
            dzx = de.mlp_apply(model.specs["fx"], params, fx_in, prefix="fx_")
            dze = expert_rhs(model, z[:, my : my + e], table[row[t], :, None])
            return de.concat([dzy, dze, dzx])

        for t, dt in zip(starts[k], dts[k]):
            z, _ = rk4_update(rhs, z, t, dt)
        zy, ze, zx = z[:, :my], z[:, my : my + e], z[:, my + e :]
        zy_lag = zy_start
        y_out, x_out = readout(model, params, zy, zx, ze, a_seq[:, k + 1 : k + 2])
        ys.append(y_out)
        xs.append(x_out)
    return de.concat(ys), de.concat(xs).reshape(len(treatments), len(times), model.d_x)


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


def train_hybrid(model: HybridCpModel, dataset: Dataset) -> tuple[HybridCpModel, list[float]]:
    """Fit the learned components to factual arms by MSE on observed points,
    with the optimiser settings of ``model.config``.

    The mechanistic expert parameters are never touched.
    """
    if not dataset.units:
        raise ValueError("dataset must be nonempty")
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
