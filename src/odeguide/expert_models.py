"""Mechanistic right-hand sides and treatment coupling.

Provides the SEIRM epidemic model, the richer SEIR-HD model used only for
data generation, the 4- and 5-variable immune-response/drug (PKPD) models,
exponential decay of the contact rate under a policy mandate, and the
closed-form plasma concentration produced by dosing events.

The per-compartment derivative expressions are written with plain arithmetic
so they evaluate both on numpy floats and on autodiff tensors.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .diff_engine import relu
from .ode_core import OdeTrajectory, TimeGrid, integrate

SEIRM_DIM = 5
SEIRHD_DIM = 10


def _from_flat_dict(cls, data: dict):
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class SeirmParams:
    beta: float
    alpha: float
    gamma: float
    mu: float
    N: float

    def __post_init__(self):
        if self.N <= 0:
            raise ValueError("population N must be positive")
        for name in ("beta", "alpha", "gamma", "mu"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "SeirmParams":
        return _from_flat_dict(cls, data)


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
            raise ValueError("population N must be positive")
        for f in fields(self):
            if f.name != "beta" and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")

    @classmethod
    def from_dict(cls, data: dict) -> "SeirhdParams":
        return _from_flat_dict(cls, data)


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
            raise ValueError("EC_50 must be positive")
        if self.h_P < 1:
            raise ValueError("h_P must be >= 1")

    @property
    def dim(self) -> int:
        return 5 if self.full_model else 4

    @classmethod
    def from_dict(cls, data: dict) -> "PkpdParams":
        return _from_flat_dict(cls, data)


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
        return _from_flat_dict(cls, data)


@dataclass(frozen=True)
class ExpertOdeSpec:
    family: str  # "SEIRM" | "SEIRHD" | "PKPD"
    params: SeirmParams | SeirhdParams | PkpdParams
    init: np.ndarray
    treatment: TreatmentSchedule

    def __post_init__(self):
        expected = {"SEIRM": SEIRM_DIM, "SEIRHD": SEIRHD_DIM}.get(self.family)
        if self.family == "PKPD":
            expected = self.params.dim
        if expected is None:
            raise ValueError(f"unknown family {self.family!r}")
        if np.asarray(self.init).size != expected:
            raise ValueError(
                f"{self.family} initial state must have dimension {expected}"
            )


# -- right-hand sides ---------------------------------------------------


def seirm_terms(s, e, i, r, m, params: SeirmParams, beta_t):
    """Per-compartment derivative expressions (generic arithmetic)."""
    infection = beta_t * s * i / params.N
    ds = -infection
    de = infection - params.alpha * e
    di = params.alpha * e - params.gamma * i - params.mu * i
    dr = params.gamma * i
    dm = params.mu * i
    return ds, de, di, dr, dm


def seirm_rhs(state: np.ndarray, t: float, params: SeirmParams, beta_t: float) -> np.ndarray:
    if beta_t < 0:
        raise ValueError("beta_t must be nonnegative")
    s, e, i, r, m = state
    return np.array(seirm_terms(s, e, i, r, m, params, beta_t))


def seirhd_terms(state: Sequence, params: SeirhdParams, beta_t):
    s, e, i_a, i_p, i_m, i_s, h_r, h_d, r, d = state
    infectious = i_a + i_p + i_m + i_s
    infection = beta_t * s * infectious / params.N
    exit_e = params.alpha * e
    exit_ip = params.rate_presym_exit * i_p
    exit_is = params.rate_severe_exit * i_s
    ds = -infection
    de = infection - exit_e
    dia = params.frac_asym * exit_e - params.gamma * i_a
    dip = (1 - params.frac_asym) * exit_e - exit_ip
    dim = (1 - params.delta) * exit_ip - params.gamma * i_m
    dis = params.delta * exit_ip - exit_is
    dhr = (1 - params.frac_hosp_death) * exit_is - params.gamma * h_r
    dhd = params.frac_hosp_death * exit_is - params.rate_death * h_d
    dr = params.gamma * (i_a + i_m + h_r)
    dd = params.rate_death * h_d
    return ds, de, dia, dip, dim, dis, dhr, dhd, dr, dd


def seirhd_rhs(state: np.ndarray, t: float, params: SeirhdParams, beta_t: float) -> np.ndarray:
    if beta_t < 0:
        raise ValueError("beta_t must be nonnegative")
    return np.array(seirhd_terms(state, params, beta_t))


def hospital_inflow_rate(state: np.ndarray, params: SeirhdParams) -> float:
    """Instantaneous admission rate into H_R + H_D (severe-case exits)."""
    return params.rate_severe_exit * state[5]


def pkpd_terms(state: Sequence, params: PkpdParams, z3_t):
    """Immune/drug derivative expressions; ``z3_t`` is the dosing signal
    added to the plasma state when it feeds lung-tissue uptake."""
    if params.full_model:
        z1, z2, z3, z4, z5 = state
    else:
        z1, z2, z3, z4 = state
    z1c = relu(z1)  # negative immune response is unphysical
    hill = params.E_max * z1c**params.h_P / (params.EC_50**params.h_P + z1c**params.h_P)
    dz1 = (
        params.k_IR * z4
        + params.k_PF * z4 * z1
        - params.k_O * z1
        + hill
        - params.k_Dex * z1c * z2
    )
    dz2 = -params.k_2 * z2 + params.k_3 * (z3 + z3_t)
    dz3 = -params.k_3 * z3
    if params.full_model:
        z5c = relu(z5)
        dz4 = params.k_DP * z4 - params.k_IIR * z4 * z1 - params.k_DC * z4 * z5c**params.h_C
        dz5 = params.k_1 * z1
        return dz1, dz2, dz3, dz4, dz5
    dz4 = params.k_DP * z4 - params.k_IIR * z4 * z1 - params.k_DC * z4
    return dz1, dz2, dz3, dz4


def pkpd_rhs(state: np.ndarray, t: float, params: PkpdParams, z3_t: float) -> np.ndarray:
    if len(state) != params.dim:
        raise ValueError(f"state dimension {len(state)} does not match model ({params.dim})")
    return np.array(pkpd_terms(state, params, z3_t))


# -- treatment coupling -------------------------------------------------


def dex_plasma(t: float, schedule: TreatmentSchedule, k3: float) -> float:
    """Plasma concentration produced by past dose events: each dose of level
    ``d`` at time ``t_i`` contributes ``k_d * d * exp(k3 * (t_i - t))`` once
    ``t > t_i``."""
    if schedule.kind != "dosing":
        raise ValueError("dex_plasma requires a dosing schedule")
    total = 0.0
    for t_i, d_i in schedule.doses:
        if t > t_i:
            total += schedule.k_d * d_i * np.exp(k3 * (t_i - t))
    return total


def beta_schedule(
    t: float, initial_beta: float, lam: float, mandate_start: float | None
) -> float:
    """Constant contact rate before the mandate, exponential decay after."""
    if initial_beta < 0 or lam < 0:
        raise ValueError("initial_beta and lambda must be nonnegative")
    if mandate_start is None or t < mandate_start:
        return initial_beta
    return initial_beta * np.exp(-lam * (t - mandate_start))


# -- full simulation ----------------------------------------------------


def make_rhs(spec: ExpertOdeSpec, decay_lambda: float = 0.005):
    """Bind the treatment schedule into a plain ``rhs(state, t)``."""
    if spec.family == "SEIRM":
        params = spec.params

        def rhs(state, t):
            bt = beta_schedule(t, params.beta, decay_lambda, spec.treatment.mandate_start)
            return seirm_rhs(state, t, params, bt)

    elif spec.family == "SEIRHD":
        params = spec.params

        def rhs(state, t):
            bt = beta_schedule(t, params.beta, decay_lambda, spec.treatment.mandate_start)
            return seirhd_rhs(state, t, params, bt)

    elif spec.family == "PKPD":
        params = spec.params

        def rhs(state, t):
            z3_t = dex_plasma(t, spec.treatment, params.k_3)
            return pkpd_rhs(state, t, params, z3_t)

    else:
        raise ValueError(f"unknown family {spec.family!r}")
    return rhs


def simulate_expert(
    spec: ExpertOdeSpec, grid: TimeGrid, decay_lambda: float = 0.005
) -> OdeTrajectory:
    """Integrate the mechanistic system with its treatment coupling."""
    return integrate(make_rhs(spec, decay_lambda), np.asarray(spec.init, float), grid)
