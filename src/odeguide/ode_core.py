"""Deterministic fixed-step RK4 integration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

StateVector = np.ndarray  # 1-D float64 array; dimension owned by the system


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class OdeTrajectory:
    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, dim)

    def __post_init__(self):
        if self.states.shape[0] != self.grid.n_steps + 1:
            raise ValueError("states length must be n_steps + 1")


def rk4_step(rhs: Callable, state: StateVector, t: float, dt: float) -> StateVector:
    """One classic 4-stage Runge-Kutta update."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    state = np.asarray(state, dtype=np.float64)
    k1 = np.asarray(rhs(state, t), dtype=np.float64)
    k2 = np.asarray(rhs(state + 0.5 * dt * k1, t + 0.5 * dt), dtype=np.float64)
    k3 = np.asarray(rhs(state + 0.5 * dt * k2, t + 0.5 * dt), dtype=np.float64)
    k4 = np.asarray(rhs(state + dt * k3, t + dt), dtype=np.float64)
    for k in (k1, k2, k3, k4):
        if k.shape != state.shape:
            raise IntegrationError(f"rhs returned shape {k.shape}, expected {state.shape}")
        if not np.all(np.isfinite(k)):
            raise IntegrationError(f"non-finite derivative at t={t}")
    return state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate(rhs: Callable, init: StateVector, grid: TimeGrid) -> OdeTrajectory:
    init = np.asarray(init, dtype=np.float64)
    if not np.all(np.isfinite(init)):
        raise IntegrationError("initial state must be finite")
    states = np.empty((grid.n_steps + 1, init.size))
    states[0] = init
    t = grid.t0
    for step in range(grid.n_steps):
        try:
            states[step + 1] = rk4_step(rhs, states[step], t, grid.dt)
        except IntegrationError as err:
            raise IntegrationError(f"step {step}: {err}") from err
        t = grid.t0 + (step + 1) * grid.dt
    return OdeTrajectory(grid=grid, states=states)
