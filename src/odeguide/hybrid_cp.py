"""Hybrid counterfactual predictor: learned latent ODEs for outcome and
covariate channels co-evolving with a mechanistic expert state, learned
initial-state encoders, and learned readouts.

The rollout integrates U units at once on their shared time grid. The
latent state is one packed (U, m_y + e + m_x) array (z_y | z_e | z_x), one
row per unit, stepped by ``ode_core.rk4_update``, the same RK4 that steps
the expert alone; so every RK4 stage is one batched evaluation of each
learned field, and the outcome field reads the packed state whole. Each unit's
treatment reaches the expert as the (U, 1) drive of
``expert_models.make_drive``, tabulated once per rollout over every stage
time: the dose plasma level for PKPD, the contact rate beta_t (from the
unit's own mandate start) for SEIRM. The expert's right-hand side is the
simulations' block kernel. Training runs one rollout of the whole training
set, keeping every MLP call's layer outputs, and takes the gradient by the
discrete adjoint of that rollout (the exact gradient of the computed loss);
a tape copy of the rollout in ``tests/tape_reference.py`` is its test
reference. Inference (``predict``) runs the same rollout for any number of
units; the MLP forward is row-invariant, so a unit's prediction is the same
bits whichever units share the call.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import diff_engine as de
from .datagen import Dataset, UnitRecord
from .diff_engine import MlpSpec, ParamSet, TrainingError
from .expert_models import (
    PkpdParams,
    SeirmParams,
    _derivative_fn,
    make_drive,
    pkpd_jacobian,
    seirm_jacobian,
    tabulate_drive,
)
from .ode_core import rk4_update


@dataclass(frozen=True)
class HybridCpConfig:
    m_y: int = 8
    m_x: int = 8
    hidden: tuple[int, ...] = (32, 32)
    activation: str = "tanh"
    lr: float = 0.01
    epochs: int = 50

    def __post_init__(self):
        for key in ("m_y", "m_x", "epochs"):
            de.check_count(f"hybrid.{key}", getattr(self, key))
        object.__setattr__(self, "hidden", de.check_widths("hybrid.hidden", self.hidden))
        de.check_activation("hybrid.activation", self.activation)
        de.check_rate("hybrid.lr", self.lr)


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
    positivity via softplus log(1 + e^x), plus a per-row total-population
    rescale for SEIRM."""
    pos = np.logaddexp(0.0, raw)
    if family == "SEIRM":
        return pos * (expert_params.N / pos.sum(axis=-1, keepdims=True))
    return pos


def encode_init(model: HybridCpModel, mlp, x0, a0, y0):
    """Initial latent states (z_x, z_y, z_e) from the first observations:
    ``x0`` is (U, d_x), ``a0`` and ``y0`` are (U,); ``mlp(name, v)``
    evaluates the MLP ``name``."""
    a0 = np.asarray(a0, float)[:, None]
    y0 = np.asarray(y0, float)[:, None]
    obs = np.concatenate([np.asarray(x0, float), a0, y0], axis=1)
    zx0 = mlp("gxi", obs)
    zy0 = mlp("gzeta", np.concatenate([zx0, a0, y0], axis=-1))
    ze0 = normalize_expert_state(mlp("geta", obs), model.family, model.expert_params)
    return zx0, zy0, ze0


def _drive_column(drive):
    """A drive that broadcasts against one state column, (U, 1) or a
    scalar, as one that broadcasts against one compartment, (U,)."""
    return drive[..., 0] if np.ndim(drive) else drive


def _expert_jacobian(model: HybridCpModel, z: np.ndarray, drive) -> np.ndarray:
    """d expert_rhs / d z, (..., e, e)."""
    p = model.expert_params
    if model.family == "SEIRM":
        return seirm_jacobian(z, p, _drive_column(drive))
    return pkpd_jacobian(z, p)


# the simulations' derivative kernel, bound once per family and parameter set
_expert_field = lru_cache(maxsize=16)(_derivative_fn)


def expert_rhs(model: HybridCpModel, ze, drive):
    """Mechanistic derivative of the expert state (last axis) under the
    treatment drive; never learned. ``drive`` broadcasts against one state
    column: a scalar for one unit, (U, 1) for a batch."""
    return _expert_field(model.family, model.expert_params)(ze, _drive_column(drive))


def readout(mlp, zy, zx, ze, a_t):
    """Outcome (U, 1) and covariates (U, d_x) from the latent states."""
    y = mlp("gy", np.concatenate([ze, zy, zx, a_t], axis=-1))
    x = mlp("gx", np.concatenate([zx, a_t], axis=-1))
    return y, x


def _drive_table(model: HybridCpModel, times: np.ndarray, treatments):
    """Each grid interval's size, the step of its one RK4 update, and the
    (U, 1) drive at a stage time of those steps, tabulated once over every
    stage."""
    dts = np.diff(times)
    drive = make_drive(model.family, model.expert_params, treatments)
    table, row = tabulate_drive(drive, times[:-1], dts)
    return dts, lambda t: table[row[t], :, None]


def rollout(
    model: HybridCpModel,
    params,
    x0,
    a0,
    y0,
    a_seq,
    times: np.ndarray,
    treatments,
    mlp=None,
):
    """Encode, integrate, and read out U units at every point of their
    shared grid.

    ``x0`` is (U, d_x); ``a0`` and ``y0`` are (U,); ``a_seq`` is (U, T);
    ``treatments`` holds one schedule per unit. Returns the outcome (U, T)
    and covariates (U, T, d_x). Every MLP is evaluated by ``mlp(name, v)``,
    by default ``_bound_mlps``'s. ``tests/tape_reference.py`` holds a copy
    of this rollout on the autodiff tape.
    """
    a_seq = np.asarray(a_seq, float)
    if a_seq.shape[1] != len(times):
        raise ValueError("treatment sequence must cover the grid")
    if mlp is None:
        mlp, _ = _bound_mlps(model, params)
    dts, drive_at = _drive_table(model, times, treatments)
    my, e = model.config.m_y, model.e_dim

    zx, zy, ze = encode_init(model, mlp, x0, a0, y0)
    z = np.concatenate([zy, ze, zx], axis=-1)  # the packed state (z_y | z_e | z_x)
    y_out, x_out = readout(mlp, zy, zx, ze, a_seq[:, :1])
    ys, xs = [y_out], [x_out]
    # the covariate channel sees the outcome latent through a one-grid-step
    # delay buffer; the buffer and the treatment stay fixed over an interval
    zy_lag = zy
    for k in range(len(times) - 1):
        zy_start = zy
        a_t = a_seq[:, k : k + 1]

        def rhs(z, t):
            dzy = mlp("fy", np.concatenate([z, a_t], axis=-1))
            dzx = mlp("fx", np.concatenate([z[:, my + e :], zy_lag, a_t], axis=-1))
            dze = expert_rhs(model, z[:, my : my + e], drive_at(t))
            return np.concatenate([dzy, dze, dzx], axis=-1)

        z, _ = rk4_update(rhs, z, times[k], dts[k])
        zy, ze, zx = z[:, :my], z[:, my : my + e], z[:, my + e :]
        zy_lag = zy_start
        y_out, x_out = readout(mlp, zy, zx, ze, a_seq[:, k + 1 : k + 2])
        ys.append(y_out)
        xs.append(x_out)
    xs = np.concatenate(xs, axis=-1)
    return np.concatenate(ys, axis=-1), xs.reshape(len(treatments), len(times), model.d_x)


def _bound_mlps(model: HybridCpModel, params, kept=None):
    """``rollout``'s ``mlp(name, v)``: ``mlp_forward`` on (U, n_in) rows
    with every MLP's layers looked up once, and those layers as [Ws, bs]
    per MLP name. With ``kept``, each call's layer outputs are appended to
    ``kept[name]``."""
    layers = {
        name: [[params[f"{name}_{k}{i}"] for i in range(len(spec.activations))] for k in "Wb"]
        for name, spec in model.specs.items()
    }

    def forward(name, v):
        hs = de.mlp_forward(model.specs[name], *layers[name], v)
        if kept is not None:
            kept[name].append(hs)
        return hs[-1]

    return forward, layers


def predict(model: HybridCpModel, x0, a0, y0, a_seq, times, treatment):
    """Deterministic point predictions of U units on the model's own
    parameters: ``rollout``'s arguments, with ``treatment`` one schedule per
    unit. Returns the outcome (U, T) and covariates (U, T, d_x) arrays."""
    times = np.asarray(times, float)
    return rollout(model, model.params, x0, a0, y0, a_seq, times, treatment)


def _factual_batch(units: list[UnitRecord]):
    """The factual arms of ``units`` as ``rollout``'s inputs after
    ``params``, and the (unit, time) indices of the observed points,
    unit-major, with their outcomes and covariates."""
    trajs = [u.factual for u in units]
    times = trajs[0].times
    if any(not np.array_equal(tr.times, times) for tr in trajs):
        raise ValueError("all units must share one time grid")
    inputs = (
        np.stack([tr.x[0] for tr in trajs]),
        [float(tr.a[0]) for tr in trajs],
        [float(tr.y[0]) for tr in trajs],
        np.stack([tr.a for tr in trajs]),
        times,
        [u.treatment_factual for u in units],
    )
    obs = np.nonzero(np.stack([tr.observed for tr in trajs]))
    return inputs, obs, np.stack([tr.y for tr in trajs])[obs], np.stack([tr.x for tr in trajs])[obs]


def _mse(y_hat, x_hat, obs, y, x):
    """Outcome and covariate squared errors, each averaged over the
    observed points ``obs``."""
    dx = x_hat[obs] - x
    return ((y_hat[obs] - y) ** 2).sum() * (1.0 / y.size) + (dx * dx).sum() * (1.0 / x.size)


def _dataset_loss(model: HybridCpModel, params, units: list[UnitRecord]):
    """Mean squared error of one batched rollout over the factual arms:
    outcome and covariate errors, each averaged over the observed points
    only. Given Tensor parameters, one loss node whose backward step is
    ``_loss_and_grad``'s adjoint."""
    batch = _factual_batch(units)
    if de.holds_tensors(params):
        return de.loss_node(lambda arrays: _loss_and_grad(model, arrays, batch), params)
    inputs, *target = batch
    return _mse(*rollout(model, params, *inputs), *target)


def _loss_and_grad(model: HybridCpModel, params: ParamSet, batch) -> tuple[float, dict]:
    """``_dataset_loss`` over ``batch = _factual_batch(units)`` and its
    parameter gradient, on arrays: one rollout that keeps every MLP call's
    layer outputs, then the discrete adjoint of that rollout, which is the
    exact gradient of the computed loss (discretise, then optimise).

    The adjoint ``lam`` is the gradient of the loss with respect to the
    packed state, walked from the last grid point to the first: each point
    adds its readouts' gradients and the gradient of the delay buffer that
    the next interval read; each interval's RK4 step z' = z + c (k1 + 2 k2 +
    2 k3 + k4), c = dt / 6, maps ``lam`` through the vector-Jacobian
    products ``v`` of its four stages. A loss that is not finite gets no
    gradient.
    """
    inputs, obs, y, x = batch
    kept = {name: [] for name in model.specs}  # each call's layer outputs, in call order
    keep, layers = _bound_mlps(model, params, kept)
    y_hat, x_hat = rollout(model, params, *inputs, mlp=keep)
    loss = float(_mse(y_hat, x_hat, obs, y, x))
    if not np.isfinite(loss):
        return loss, {}
    g_y, g_x = np.zeros_like(y_hat), np.zeros_like(x_hat)
    g_y[obs] = (2.0 / y.size) * (y_hat[obs] - y)
    g_x[obs] = (2.0 / x.size) * (x_hat[obs] - x)
    grads = {name: np.zeros_like(value) for name, value in params.items()}

    def back(name, g, dx=True):
        """Backpropagate ``g`` through the last kept call of MLP ``name``;
        returns its input gradient."""
        hs = kept[name].pop()
        dWs, dbs, d_in = de.mlp_backward(model.specs[name], layers[name][0], hs, g, dx)
        for i, (dW, db) in enumerate(zip(dWs, dbs)):
            grads[f"{name}_W{i}"] += dW
            grads[f"{name}_b{i}"] += db
        return d_in

    my, e = model.config.m_y, model.e_dim
    ze_cols, zx_cols = slice(my, my + e), slice(my + e, None)

    def read_back(lam, p):
        d_gy = back("gy", g_y[:, p : p + 1])  # gy reads (z_e | z_y | z_x | a)
        d_gx = back("gx", g_x[:, p])  # gx reads (z_x | a)
        lam[:, :my] += d_gy[:, e : e + my]
        lam[:, ze_cols] += d_gy[:, :e]
        lam[:, zx_cols] += d_gy[:, e + my : -1] + d_gx[:, :-1]

    def stage_back(g, drive, lag):
        """The stage's vector-Jacobian product: ``g`` through fx, fy and the
        expert; fx's gradient of the delay buffer goes into ``lag``."""
        d_fx = back("fx", g[:, zx_cols])  # fx reads (z_x | zy_lag | a)
        ze = kept["fy"][-1][0][:, ze_cols]  # fy reads (z | a)
        v = back("fy", g[:, :my])[:, :-1]
        v[:, zx_cols] += d_fx[:, : -1 - my]
        lag += d_fx[:, -1 - my : -1]
        jacobian = _expert_jacobian(model, ze, drive)
        v[:, ze_cols] += np.einsum("...i,...ij->...j", g[:, ze_cols], jacobian)
        return v

    times, treatments = inputs[4:]
    dts, drive_at = _drive_table(model, times, treatments)
    lam = np.zeros((len(y_hat), my + e + model.config.m_x))
    lag_grads = np.zeros((len(times), len(y_hat), my))  # per grid point read by fx
    read_back(lam, len(times) - 1)
    for k in reversed(range(len(times) - 1)):
        lag = lag_grads[max(k - 1, 0)]  # interval k's fx reads z_y at this point
        t, dt = times[k], dts[k]
        c = dt / 6.0
        v4 = stage_back(c * lam, drive_at(t + dt), lag)
        v3 = stage_back(2 * c * lam + dt * v4, drive_at(t + 0.5 * dt), lag)
        v2 = stage_back(2 * c * lam + (0.5 * dt) * v3, drive_at(t + 0.5 * dt), lag)
        v1 = stage_back(c * lam + (0.5 * dt) * v2, drive_at(t), lag)
        lam = lam + v1 + v2 + v3 + v4
        lam[:, :my] += lag_grads[k]
        read_back(lam, k)
    # the encoders: z_e0 = normalize(softplus(geta)), z_y0 = gzeta(z_x0 | a0 | y0), z_x0 = gxi
    raw = kept["geta"][-1][-1]
    d_pos = lam[:, ze_cols]
    if model.family == "SEIRM":  # z_e0 = pos * (N / total)
        pos, n_pop = np.logaddexp(0.0, raw), model.expert_params.N
        total = pos.sum(axis=-1, keepdims=True)
        d_total = -(d_pos * pos).sum(axis=-1, keepdims=True) * n_pop / total**2
        d_pos = d_pos * (n_pop / total) + d_total
    back("geta", d_pos / (1.0 + np.exp(-raw)), dx=False)
    d_zeta = back("gzeta", lam[:, :my])
    back("gxi", lam[:, zx_cols] + d_zeta[:, : model.config.m_x], dx=False)
    return loss, grads


def train_hybrid(model: HybridCpModel, dataset: Dataset) -> tuple[HybridCpModel, list[float]]:
    """Fit the learned components to factual arms by MSE on observed points,
    with the optimiser settings of ``model.config``.

    Each epoch's gradient is ``_loss_and_grad``'s closed-form adjoint; the
    tape rollout of ``tests/tape_reference.py`` is its test reference. The
    mechanistic expert parameters are never touched.
    """
    if not dataset.units:
        raise ValueError("dataset must be nonempty")
    config = model.config
    params = model.params
    state = de.AdamState()
    losses: list[float] = []
    batch = _factual_batch(dataset.units)
    for epoch in range(config.epochs):
        loss, grads = _loss_and_grad(model, params, batch)
        if not np.isfinite(loss):
            raise TrainingError(f"loss diverged at epoch {epoch}")
        losses.append(loss)
        params, state = de.adam_step(params, grads, state, config.lr)
    inputs, *target = batch
    final = float(_mse(*rollout(model, params, *inputs), *target))
    losses.append(final)
    trained = replace(model)
    trained.params = params
    return trained, losses
