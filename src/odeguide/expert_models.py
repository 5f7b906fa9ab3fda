"""Mechanistic right-hand sides and treatment coupling.

Provides the SEIRM epidemic model, the richer SEIR-HD model used only for
data generation, the 4- and 5-variable immune-response/drug (PKPD) models,
exponential decay of the contact rate under a policy mandate, and the
closed-form plasma concentration produced by dosing events.

Simulations run on a batch. An ``ExpertOdeSpec`` may hold B initial states
as a (B, dim) array, with one parameter set and one treatment schedule per
row, and ``simulate_expert`` integrates every row in one RK4 call. The
treatment drive of ``make_drive`` (the dose plasma level for PKPD, the
contact rate beta_t for the epidemic models) is tabulated once per
integration over every RK4 stage time by ``tabulate_drive``; each stage
reads its (B,) row of that table. Each family's derivative is bound to its
parameters (those that differ between rows as (B,) vectors) once per
integration and evaluates over coefficient blocks: the rates that multiply
one state column form one product (PKPD's five rates on z4, SEIRM's
recovery and death rates on I), and SEIR-HD's compartment chain is a few
calls over (B, 10) column blocks. Every entry keeps the operation order of
the per-compartment expressions, so every row equals its own one-row
simulation bitwise. One kernel serves every caller: data generation, the
guidance curves and the hybrid predictor. The PKPD rows of a batch share
their Hill exponents, so each Hill term is one numpy power by a scalar; with
a non-integer exponent its bits follow numpy's SIMD target (``x ** 2.0`` is
``x * x`` and ``x ** 1.0`` is ``x`` on every target).

``seirm_jacobian`` and ``pkpd_jacobian`` give the closed-form Jacobians of
the SEIRM and PKPD derivatives, which the hybrid predictor backpropagates
through.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, fields

import numpy as np

from .ode_core import OdeTrajectory, TimeGrid, integrate, sorted_unique

SEIRM_DIM = 5
SEIRHD_DIM = 10


class ParamRangeError(ValueError):
    """A parameter outside its range; ``key`` names the field."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def _from_flat_dict(cls, data: dict, section: str):
    """``cls`` from a config ``section``: every key one of its fields, the
    value of a ``float`` field a finite number and of a ``bool`` field true
    or false. Every error names the key as ``<section>.<key>``."""
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(types)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    for key, value in data.items():
        flag = types[key] == "bool"
        if types[key] in ("float", "bool") and (
            isinstance(value, bool) != flag or not isinstance(value, (int, float))
        ):
            kind = "true or false" if flag else "a number"
            raise ValueError(f"{section}.{key} must be {kind}, got {value!r}")
        if types[key] == "float" and isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{section}.{key} must be finite, got {value!r}")
    try:
        return cls(**data)
    except ParamRangeError as err:
        raise ValueError(f"{section}.{err.key}: {err}") from None


@dataclass(frozen=True)
class SeirmParams:
    beta: float
    alpha: float
    gamma: float
    mu: float
    N: float

    def __post_init__(self):
        if self.N <= 0:
            raise ParamRangeError("N", "population N must be positive")
        for name in ("beta", "alpha", "gamma", "mu"):
            if getattr(self, name) < 0:
                raise ParamRangeError(name, f"{name} must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict, section: str = "params") -> "SeirmParams":
        return _from_flat_dict(cls, data, section)


@dataclass(frozen=True)
class SeirhdParams:
    """Compartment transition rates for the 10-state epidemic model.

    Severity split delta and incubation exit alpha are the per-city
    heterogeneity knobs; the remaining rates default to fixed weekly values.
    """

    beta: float
    alpha: float
    delta: float
    N: float
    rate_presym_exit: float = 0.5
    rate_severe_exit: float = 0.3
    gamma: float = 0.25
    rate_death: float = 0.2
    frac_asym: float = 0.4
    frac_hosp_death: float = 0.1

    def __post_init__(self):
        if self.N <= 0:
            raise ParamRangeError("N", "population N must be positive")
        for f in fields(self):
            if f.name != "beta" and getattr(self, f.name) < 0:
                raise ParamRangeError(f.name, f"{f.name} must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict, section: str = "params") -> "SeirhdParams":
        return _from_flat_dict(cls, data, section)


@dataclass(frozen=True)
class PkpdParams:
    k_IR: float = 0.1
    k_PF: float = 0.05
    k_O: float = 0.2
    E_max: float = 1.0
    EC_50: float = 0.5
    h_P: float = 2.0
    k_Dex: float = 1.0
    k_2: float = 0.5
    k_3: float = 1.0
    k_DP: float = 0.4
    k_IIR: float = 0.2
    k_DC: float = 0.1
    h_C: float = 1.0
    k_1: float = 0.01
    full_model: bool = False

    def __post_init__(self):
        if self.EC_50 <= 0:
            raise ParamRangeError("EC_50", "EC_50 must be positive")
        if self.h_P < 1:
            raise ParamRangeError("h_P", "h_P must be >= 1")

    @property
    def dim(self) -> int:
        return 5 if self.full_model else 4

    @classmethod
    def from_dict(cls, data: dict, section: str = "params") -> "PkpdParams":
        return _from_flat_dict(cls, data, section)


@dataclass(frozen=True)
class TreatmentSchedule:
    """Either a binary policy sequence with a mandate start, or dose events."""

    kind: str  # "binary_policy" | "dosing"
    mandate_start: float | None = None
    doses: tuple[tuple[float, float], ...] = ()  # (t_i, d_i), dosing only
    k_d: float = 5.0

    def __post_init__(self):
        if self.kind not in ("binary_policy", "dosing"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for _, d in self.doses:
            if not 0.0 <= d <= 1.0:
                raise ValueError("dose levels must lie in [0, 1]")
        if self.kind == "binary_policy" and self.doses:
            raise ValueError("a binary_policy schedule takes no doses")
        if self.kind == "dosing" and self.mandate_start is not None:
            raise ValueError("a dosing schedule takes no mandate_start")

    def to_dict(self) -> dict:
        """The JSON form used by dataset manifests and simulation configs."""
        return {
            "kind": self.kind,
            "mandate_start": self.mandate_start,
            "doses": [[t, d] for t, d in self.doses],
            "k_d": self.k_d,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TreatmentSchedule":
        """Inverse of ``to_dict``; omitted keys take the field defaults."""
        data = dict(data)
        data["doses"] = tuple((float(t), float(d)) for t, d in data.get("doses", ()))
        return _from_flat_dict(cls, data, "treatment")


@dataclass(frozen=True)
class ExpertOdeSpec:
    """One simulation, or a batch of them: ``init`` is (dim,) or (B, dim),
    and with a batch ``params`` and ``treatment`` may each be a length-B
    tuple with one entry per row instead of one value for all rows. PKPD
    rows share one model dimension and one pair of Hill exponents ``h_P``
    and ``h_C``; their ``EC_50`` and rates may differ."""

    family: str  # "SEIRM" | "SEIRHD" | "PKPD"
    params: SeirmParams | SeirhdParams | PkpdParams | tuple
    init: np.ndarray
    treatment: TreatmentSchedule | tuple

    def __post_init__(self):
        init = np.asarray(self.init)
        if init.ndim not in (1, 2):
            raise ValueError("initial state must be (dim,) or a (B, dim) batch")
        for name in ("params", "treatment"):
            value = getattr(self, name)
            if isinstance(value, tuple) and (init.ndim != 2 or len(value) != len(init)):
                raise ValueError(f"per-row {name} need one entry per row of a (B, dim) init")
        expected = {"SEIRM": SEIRM_DIM, "SEIRHD": SEIRHD_DIM}.get(self.family)
        if self.family == "PKPD":
            rows = self.params if isinstance(self.params, tuple) else (self.params,)
            shared = {(p.dim, p.h_P, p.h_C) for p in rows}
            if len(shared) > 1:
                raise ValueError("PKPD rows must share one model dimension, h_P and h_C")
            ((expected, _, _),) = shared
        if expected is None:
            raise ValueError(f"unknown family {self.family!r}")
        if init.shape[-1] != expected:
            raise ValueError(
                f"{self.family} initial state must have dimension {expected}"
            )


def _row_params(params):
    """One parameter object for a batch: each field that differs between the
    entries of a per-row tuple becomes a (B,) vector; the others keep their
    scalar value. Every entry was validated when it was built."""
    if not isinstance(params, tuple):
        return params
    first = params[0]
    batch = copy.copy(first)
    for f in fields(first):
        values = [getattr(p, f.name) for p in params]
        if any(v != values[0] for v in values):
            object.__setattr__(batch, f.name, np.array(values, float))
    return batch


# -- right-hand sides ---------------------------------------------------


def _columns(state) -> list:
    """One compartment per entry (last axis): (B,) vectors for a batch."""
    return [state[..., k] for k in range(state.shape[-1])]


def seirm_jacobian(state: np.ndarray, params: SeirmParams, beta_t) -> np.ndarray:
    """d SEIRM derivative / d state, (..., 5, 5) for states (..., 5); ``beta_t``
    broadcasts against one compartment."""
    s, _, i, _, _ = _columns(state)
    jac = np.zeros(state.shape + (SEIRM_DIM,))
    jac[..., 0, 0] = -beta_t * i / params.N
    jac[..., 0, 2] = -beta_t * s / params.N
    jac[..., 1, 0], jac[..., 1, 2] = -jac[..., 0, 0], -jac[..., 0, 2]
    jac[..., 1, 1], jac[..., 2, 1] = -params.alpha, params.alpha
    jac[..., 2, 2] = -params.gamma - params.mu
    jac[..., 3, 2], jac[..., 4, 2] = params.gamma, params.mu
    return jac


def hospital_inflow_rate(states: np.ndarray, params: SeirhdParams) -> np.ndarray:
    """Instantaneous admission rate into H_R + H_D (severe-case exits), for
    any array of states (compartments on the last axis)."""
    return params.rate_severe_exit * states[..., 5]


def pkpd_jacobian(state: np.ndarray, params: PkpdParams) -> np.ndarray:
    """d PKPD derivative / d state, (..., dim, dim) for states (..., dim). Each
    relu's slope is ``z > 0``, as on the autodiff tape; the drive enters
    additively, so the Jacobian does not depend on it."""
    p = params
    z1, z2, _, z4 = _columns(state)[:4]
    z1c = np.maximum(z1, 0.0)
    c = np.asarray(p.EC_50, float) ** p.h_P  # the kernel's Hill constant, bit for bit
    hill_slope = p.E_max * p.h_P * z1c ** (p.h_P - 1) * c / (c + z1c**p.h_P) ** 2
    jac = np.zeros(state.shape + (p.dim,))
    jac[..., 0, 0] = p.k_PF * z4 - p.k_O + (z1 > 0) * (hill_slope - p.k_Dex * z2)
    jac[..., 0, 1] = -p.k_Dex * z1c
    jac[..., 0, 3] = p.k_IR + p.k_PF * z1
    jac[..., 1, 1], jac[..., 1, 2], jac[..., 2, 2] = -p.k_2, p.k_3, -p.k_3
    jac[..., 3, 0] = -p.k_IIR * z4
    jac[..., 3, 3] = p.k_DP - p.k_IIR * z1 - p.k_DC
    if p.full_model:
        z5c = np.maximum(state[..., 4], 0.0)
        jac[..., 3, 3] = p.k_DP - p.k_IIR * z1 - p.k_DC * z5c**p.h_C
        jac[..., 3, 4] = -p.k_DC * z4 * (state[..., 4] > 0) * p.h_C * z5c ** (p.h_C - 1)
        jac[..., 4, 0] = p.k_1
    return jac


def _seirm_block(p):
    """The SEIRM derivative of states on the last axis, with the recovery
    and death rates times I as one product."""
    by_i = np.stack(np.broadcast_arrays(p.gamma, p.mu)).reshape(2, -1)
    alpha, n_pop = np.asarray(p.alpha, float), np.asarray(p.N, float)

    def seirm(x, beta_t):
        if x.ndim != 2:
            return seirm(x.reshape(-1, x.shape[-1]), np.reshape(beta_t, -1)).reshape(x.shape)
        result = np.empty(x.shape)
        out = result.T  # one row per compartment
        s, e, i = x.T[:3]
        infection = beta_t * s * i / n_pop
        incubated = alpha * e
        np.negative(infection, out=out[0])
        np.subtract(infection, incubated, out=out[1])
        np.multiply(by_i, i, out=out[3:])  # gamma i, mu i
        np.subtract(incubated - out[3], out[4], out=out[2])
        return result

    return seirm


def _pkpd_block(p):
    """The PKPD derivative of states on the last axis, with every rate that
    multiplies z4 in one product."""
    by_z4 = np.stack(np.broadcast_arrays(p.k_IR, p.k_PF, p.k_DP, p.k_IIR, p.k_DC)).reshape(5, -1)
    # as 0-d arrays: a ufunc takes them in less time than Python floats
    k_O, E_max, k_Dex, k_3, k_1, neg_k_2, neg_k_3 = (
        np.asarray(v, float) for v in (p.k_O, p.E_max, p.k_Dex, p.k_3, p.k_1, -p.k_2, -p.k_3)
    )
    hill_c = np.asarray(p.EC_50, float) ** p.h_P
    h_P, h_C, full = p.h_P, p.h_C, p.full_model

    def pkpd(x, z3_t):
        if x.ndim != 2:
            return pkpd(x.reshape(-1, x.shape[-1]), np.reshape(z3_t, -1)).reshape(x.shape)
        result = np.empty(x.shape)
        out = result.T  # one row per compartment
        z1, z2, z3, z4 = x.T[:4]
        ir, pf, dp, iir, dc = by_z4 * z4
        z1c = np.maximum(z1, 0.0)  # negative immune response is unphysical
        z1c_h = z1c**h_P
        hill = E_max * z1c_h / (hill_c + z1c_h)
        np.subtract(ir + pf * z1 - k_O * z1 + hill, k_Dex * z1c * z2, out=out[0])
        np.add(neg_k_2 * z2, k_3 * (z3 + z3_t), out=out[1])
        np.multiply(neg_k_3, z3, out=out[2])
        if full:
            dc = dc * np.maximum(x[:, 4], 0.0) ** h_C
            np.multiply(k_1, z1, out=out[4])
        np.subtract(dp - iir * z1, dc, out=out[3])
        return result

    return pkpd


def _derivative_fn(family: str, params):
    """The family's derivative ``f(state, drive)`` over the last axis of a
    state (dim,) or a batch (B, dim), with ``params`` (scalars or (B,)
    vectors) bound once. Each family evaluates over column blocks, every
    entry in the operation order of its per-compartment expressions, so
    trajectories keep their bits."""
    if family == "SEIRM":
        return _seirm_block(params)
    if family == "PKPD":
        return _pkpd_block(params)
    # SEIR-HD: E, I_A, I_P, I_M, I_S, H_R and H_D (compartments 1-7) form a
    # chain: each gains a share of an upstream exit flow and loses its own
    # outflow.
    p = params
    rates = np.stack(np.broadcast_arrays(
        p.alpha, p.gamma, p.rate_presym_exit, p.gamma, p.rate_severe_exit, p.gamma, p.rate_death
    ), axis=-1)
    shares = np.stack(np.broadcast_arrays(
        p.frac_asym, 1 - p.frac_asym, 1 - p.delta, p.delta, 1 - p.frac_hosp_death, p.frac_hosp_death
    ), axis=-1)
    sources = np.array([0, 0, 2, 2, 4, 4])  # the exit flow each of I_A ... H_D gains from

    def seirhd(x, beta_t):
        flows = rates * x[..., 1:8]  # exit_e, g i_a, exit_ip, g i_m, exit_is, g h_r, rd h_d
        infectious = ((x[..., 2] + x[..., 3]) + x[..., 4]) + x[..., 5]
        infection = beta_t * x[..., 0] * infectious / p.N
        out = np.empty(x.shape)
        np.multiply(shares, flows[..., sources], out=out[..., 2:8])
        out[..., 1] = infection
        np.subtract(out[..., 1:8], flows, out=out[..., 1:8])
        out[..., 0] = -infection
        out[..., 8] = p.gamma * ((x[..., 2] + x[..., 4]) + x[..., 6])
        out[..., 9] = flows[..., 6]
        return out

    return seirhd


# -- treatment coupling -------------------------------------------------


# the contact rate's exponential decay rate under a mandate, per unit time
DECAY_LAMBDA = 0.005


def make_drive(family: str, params, treatments):
    """The treatment's input to the expert as ``drive(t) -> (B, 1)``, one row
    per schedule in ``treatments``; ``params`` is one parameter set or one
    per row. For a 1-D array of times ``drive`` returns (B, n_t), each entry
    bitwise equal to its one-time call.

    PKPD: the plasma level of past doses; a dose of level ``d`` at ``t_i``
    adds ``k_d * d * exp(k_3 * (t_i - t))`` once ``t > t_i``. Rows with fewer
    doses get empty slots that never start. SEIRM and SEIRHD: the contact
    rate, ``beta`` before the row's mandate start (or with no mandate) and
    ``beta * exp(-DECAY_LAMBDA * (t - start))`` from it on.
    """
    p = _row_params(params)
    rows = len(treatments)
    if family == "PKPD":
        if any(tr.kind != "dosing" for tr in treatments):
            raise ValueError("a PKPD drive requires dosing schedules")
        n = max(len(tr.doses) for tr in treatments)
        dose_t = np.zeros((n, rows, 1))
        starts = np.full_like(dose_t, np.inf)
        amount = np.zeros_like(dose_t)  # k_d * d
        for row, tr in enumerate(treatments):
            for j, (t_i, d_i) in enumerate(tr.doses):
                dose_t[j, row], starts[j, row], amount[j, row] = t_i, t_i, tr.k_d * d_i
        k3 = np.reshape(p.k_3, (-1, 1))

        def plasma(t):
            total = np.zeros((rows, np.size(t)))
            for j in range(n):
                level = amount[j] * np.exp(k3 * (dose_t[j] - t))
                total = total + np.where(t > starts[j], level, 0.0)
            return total

        return plasma
    if family not in ("SEIRM", "SEIRHD"):
        raise ValueError(f"unknown family {family!r}")
    if np.any(np.asarray(p.beta) < 0):
        raise ValueError("the contact rate beta must be nonnegative")
    start = np.array(
        [[np.inf if tr.mandate_start is None else tr.mandate_start] for tr in treatments]
    )
    beta = np.reshape(p.beta, (-1, 1))

    def contact_rate(t):
        elapsed = np.maximum(t - start, 0.0)  # exact where the mandate is on
        return np.where(t < start, beta, beta * np.exp(-DECAY_LAMBDA * elapsed))

    return contact_rate


def tabulate_drive(drive, starts, dt) -> tuple[np.ndarray, dict]:
    """Evaluate ``drive`` once at every RK4 stage time of the steps that
    start at ``starts`` with step ``dt`` (a scalar or one per start):
    ``t``, ``t + 0.5 * dt`` and ``t + dt``, as ``ode_core.rk4_update`` forms
    them. Returns the (n_t, B) table and a dict from each stage time to its
    row, so that a stage reads its drive as ``table[row[t]]``."""
    starts = np.asarray(starts, float)
    times = sorted_unique(np.concatenate([starts, starts + 0.5 * dt, starts + dt]))
    return np.ascontiguousarray(drive(times).T), {t: k for k, t in enumerate(times.tolist())}


# -- full simulation ----------------------------------------------------


def simulate_expert(spec: ExpertOdeSpec, grid: TimeGrid) -> OdeTrajectory:
    """Integrate the mechanistic system with its treatment coupling. A
    (dim,) ``init`` gives states (n_steps + 1, dim); a (B, dim) batch is
    integrated in one RK4 call and gives (n_steps + 1, B, dim)."""
    init = np.asarray(spec.init, float)
    batch = np.atleast_2d(init)
    treatments = spec.treatment
    if not isinstance(treatments, tuple):
        treatments = (treatments,) * len(batch)
    drive = make_drive(spec.family, spec.params, treatments)
    table, row = tabulate_drive(drive, grid.times[:-1], grid.dt)
    derivative = _derivative_fn(spec.family, _row_params(spec.params))

    def rhs(state, t):
        return derivative(state, table[row[t]])

    traj = integrate(rhs, batch, grid)
    if init.ndim == 1:
        return OdeTrajectory(grid=grid, states=traj.states[:, 0])
    return traj
