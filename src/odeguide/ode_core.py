"""Deterministic fixed-step RK4 integration of one state or of a batch of
states, one row per trajectory."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

StateVector = np.ndarray  # (dim,) or a batch (B, dim); dim owned by the system


class IntegrationError(RuntimeError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    dt: float
    n_steps: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.dt)):
            raise ValueError("t0 and dt must be finite")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        n = self.n_steps
        integral = isinstance(n, (int, np.integer)) or (isinstance(n, float) and n.is_integer())
        if isinstance(n, bool) or not integral:
            raise ValueError(f"n_steps must be an integer, got {n!r}")
        object.__setattr__(self, "n_steps", int(n))
        if self.n_steps < 0:
            raise ValueError("n_steps must be nonnegative")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass(frozen=True)
class OdeTrajectory:
    grid: TimeGrid
    states: np.ndarray  # (n_steps + 1, dim) or (n_steps + 1, B, dim)

    def __post_init__(self):
        if self.states.shape[0] != self.grid.n_steps + 1:
            raise ValueError("states length must be n_steps + 1")


def sorted_unique(values) -> np.ndarray:
    """``np.unique`` of a 1-D array of non-NaN values (such as stage times),
    without the ``numpy.ma`` import it costs."""
    s = np.sort(values)
    return s[np.concatenate([np.ones(min(s.size, 1), bool), s[1:] != s[:-1]])]


def _first_bad_row(values: np.ndarray) -> str:
    """' in row r' for the first non-finite row of a batch, '' for one state."""
    if values.ndim < 2:
        return ""
    finite = np.isfinite(values).reshape(len(values), -1).all(axis=1)
    return f" in row {int(np.argmin(finite))}"


def rk4_update(rhs: Callable, state, t: float, dt: float):
    """One classic 4-stage Runge-Kutta update, by arithmetic alone, so that
    ``state`` may be an array or a Tensor of the tape reference in
    ``tests/tape_reference.py``; ``rhs(state, t)`` returns
    derivatives of the same shape. Returns the new state and the slopes
    (k1, k2, k3, k4). Opposite infinities among the slopes give a NaN
    without a warning, so that a caller may check the slopes first."""
    k1 = rhs(state, t)
    k2 = rhs(state + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = rhs(state + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = rhs(state + dt * k3, t + dt)
    with np.errstate(invalid="ignore"):
        return state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), (k1, k2, k3, k4)


def rk4_step(rhs: Callable, state: StateVector, t: float, dt: float) -> StateVector:
    """One checked ``rk4_update`` of a state or a batch of states: every
    slope must have the state's shape and be finite."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    state = np.asarray(state, dtype=np.float64)
    new, slopes = rk4_update(
        lambda s, t_stage: np.asarray(rhs(s, t_stage), dtype=np.float64), state, t, dt
    )
    for k in slopes:
        if k.shape != state.shape:
            raise IntegrationError(f"rhs returned shape {k.shape}, expected {state.shape}")
    # a non-finite slope makes the step non-finite, so only then are the
    # slopes scanned; finite slopes whose sum overflows step on as before
    if not np.isfinite(new).all():
        for k in slopes:
            if not np.isfinite(k).all():
                raise IntegrationError(f"non-finite derivative{_first_bad_row(k)} at t={t}")
    return new


def integrate(rhs: Callable, init: StateVector, grid: TimeGrid) -> OdeTrajectory:
    """Step ``init`` across the grid from each of ``grid.times`` but the
    last; ``states`` is (n_steps + 1, *init.shape)."""
    init = np.asarray(init, dtype=np.float64)
    if not np.all(np.isfinite(init)):
        raise IntegrationError(f"initial state{_first_bad_row(init)} must be finite")
    states = np.empty((grid.n_steps + 1, *init.shape))
    states[0] = init
    for step, t in enumerate(grid.times[:-1].tolist()):
        try:
            states[step + 1] = rk4_step(rhs, states[step], t, grid.dt)
        except IntegrationError as err:
            raise IntegrationError(f"step {step}: {err}") from err
    return OdeTrajectory(grid=grid, states=states)
