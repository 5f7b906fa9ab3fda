import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tape_reference import Tensor
from odeguide.ode_core import (
    IntegrationError,
    OdeTrajectory,
    TimeGrid,
    integrate,
    rk4_step,
    rk4_update,
    sorted_unique,
)


def test_rk4_zero_field_fixes_state():
    out = rk4_step(lambda y, t: np.zeros_like(y), np.array([1.0, 2.0]), 0.0, 0.1)
    assert np.array_equal(out, [1.0, 2.0])


def test_rk4_exponential_growth_polynomial():
    # one step of y' = y from 1 equals the degree-4 Taylor polynomial of e^0.1
    out = rk4_step(lambda y, t: y, np.array([1.0]), 0.0, 0.1)
    h = 0.1
    expected = 1 + h + h**2 / 2 + h**3 / 6 + h**4 / 24
    assert out[0] == pytest.approx(expected, abs=1e-15)
    assert out[0] == pytest.approx(1.1051708333333332, abs=1e-12)


def test_rk4_zero_dt_is_identity():
    out = rk4_step(lambda y, t: -y, np.array([1.0]), 0.0, 0.0)
    assert out[0] == 1.0


def test_rk4_rejects_nonfinite_derivative():
    with pytest.raises(IntegrationError):
        rk4_step(lambda y, t: np.array([np.nan]), np.array([1.0]), 0.5, 0.1)


def test_rk4_rejects_shape_mismatch():
    with pytest.raises(IntegrationError):
        rk4_step(lambda y, t: np.array([1.0, 2.0]), np.array([1.0]), 0.0, 0.1)


def test_integrate_zero_steps_returns_init():
    traj = integrate(lambda y, t: y, np.array([3.0]), TimeGrid(0.0, 0.1, 0))
    assert traj.states.shape == (1, 1)
    assert traj.states[0, 0] == 3.0


def test_integrate_exponential_decay_accuracy():
    grid = TimeGrid(0.0, 0.01, 100)
    traj = integrate(lambda y, t: -y, np.array([1.0]), grid)
    assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-8


def test_integrate_error_carries_step_index():
    def rhs(y, t):
        return np.array([np.inf]) if t > 0.45 else -y

    with pytest.raises(IntegrationError, match="step"):
        integrate(rhs, np.array([1.0]), TimeGrid(0.0, 0.1, 10))


def test_fourth_order_convergence():
    def final_error(dt):
        n = round(1.0 / dt)
        traj = integrate(lambda y, t: -y, np.array([1.0]), TimeGrid(0.0, dt, n))
        return abs(traj.states[-1, 0] - np.exp(-1.0))

    ratio = final_error(0.1) / final_error(0.05)
    assert 12.0 <= ratio <= 20.0


def test_grid_times_and_span():
    grid = TimeGrid(1.0, 0.5, 4)
    assert np.allclose(grid.times, [1.0, 1.5, 2.0, 2.5, 3.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 5)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.1, -1)


@pytest.mark.parametrize(
    "t0, dt, n_steps",
    [(0.0, np.nan, 3), (np.inf, 0.1, 3), (np.nan, 0.1, 3), (0.0, np.inf, 3)],
)
def test_grid_rejects_nonfinite_start_and_step(t0, dt, n_steps):
    with pytest.raises(ValueError, match="finite"):
        TimeGrid(t0, dt, n_steps)


@pytest.mark.parametrize("n_steps", [2.5, float("nan"), float("inf"), "3", True])
def test_grid_rejects_nonintegral_step_count(n_steps):
    with pytest.raises(ValueError, match="n_steps must be an integer"):
        TimeGrid(0.0, 0.1, n_steps)


def test_grid_accepts_integral_float_step_count():
    grid = TimeGrid(0.0, 0.1, 3.0)
    assert grid.n_steps == 3 and isinstance(grid.n_steps, int)
    assert integrate(lambda y, t: -y, np.array([1.0]), grid).states.shape == (4, 1)


def test_integrate_batch_keeps_rows_apart():
    grid = TimeGrid(0.0, 0.05, 20)
    init = np.array([[1.0, 2.0], [-3.0, 0.5], [0.0, 4.0]])
    batch = integrate(lambda y, t: -y * np.array([[1.0], [2.0], [0.5]]), init, grid)
    assert batch.states.shape == (21, 3, 2)
    for r, rate in enumerate((1.0, 2.0, 0.5)):
        alone = integrate(lambda y, t: -rate * y, init[r], grid)
        assert np.array_equal(batch.states[:, r], alone.states)


def test_integrate_batch_error_names_step_and_row():
    def rhs(y, t):
        out = -y
        if t > 0.45:
            out[2, 1] = np.nan
        return out

    with pytest.raises(IntegrationError, match=r"step 4: non-finite derivative in row 2"):
        integrate(rhs, np.ones((4, 2)), TimeGrid(0.0, 0.1, 10))
    with pytest.raises(IntegrationError, match="row 1 must be finite"):
        integrate(lambda y, t: -y, np.array([[1.0], [np.inf]]), TimeGrid(0.0, 0.1, 2))


def test_trajectory_shape_validation():
    with pytest.raises(ValueError):
        OdeTrajectory(grid=TimeGrid(0.0, 0.1, 2), states=np.zeros((2, 1)))


@settings(max_examples=30, deadline=None)
@given(
    rate=st.floats(min_value=-2.0, max_value=2.0),
    y0=st.floats(min_value=-5.0, max_value=5.0),
)
def test_linear_ode_matches_closed_form(rate, y0):
    grid = TimeGrid(0.0, 0.02, 50)
    traj = integrate(lambda y, t: rate * y, np.array([y0]), grid)
    assert traj.states[-1, 0] == pytest.approx(y0 * np.exp(rate), abs=1e-6, rel=1e-6)


@pytest.mark.parametrize("stage", [1, 2, 3], ids=["k2", "k3", "k4"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_later_non_finite_slope_names_its_step_row_and_time(stage, bad):
    calls = []

    def rhs(y, t):
        calls.append(t)
        out = -y
        # only the given stage of step 3 is non-finite, in row 2
        if len(calls) == 4 * 3 + stage + 1:
            out[2, 1] = bad
        return out

    with pytest.raises(IntegrationError, match=r"^step 3: non-finite derivative in row 2 at t=0\.75$"):
        integrate(rhs, np.ones((4, 2)), TimeGrid(0.0, 0.25, 10))


def test_finite_slopes_whose_sum_overflows_step_on_as_before():
    # every slope is finite, but k1 + 2 k2 + 2 k3 + k4 overflows in row 0
    def rhs(y, t):
        return np.array([[1e308], [1.0]])

    with np.errstate(over="ignore"):
        out = rk4_step(rhs, np.zeros((2, 1)), 0.0, 1.0)
        traj = integrate(rhs, np.zeros((2, 1)), TimeGrid(0.0, 1.0, 3))
    assert out[0, 0] == np.inf and out[1, 0] == 1.0
    assert np.all(traj.states[1:, 0, 0] == np.inf)
    assert np.array_equal(traj.states[:, 1, 0], [0.0, 1.0, 2.0, 3.0])


# -- rk4_update on the autodiff tape ------------------------------------

RATES = np.array([[-1.0, 0.5], [2.0, -0.3], [0.1, 1.5]])


def _logistic_rhs(y, t):
    """A nonlinear batch field written in operators a tape Tensor has."""
    return RATES * y - 0.3 * y * y + t


def test_rk4_update_on_a_tensor_batch_gives_rk4_steps_bits():
    state = np.random.default_rng(0).normal(size=(3, 2))
    new, slopes = rk4_update(_logistic_rhs, Tensor(state), 0.2, 0.1)
    assert isinstance(new, Tensor) and all(isinstance(k, Tensor) for k in slopes)
    np.testing.assert_array_equal(new.data, rk4_step(_logistic_rhs, state, 0.2, 0.1))


def test_rk4_update_tape_gradient_matches_central_differences():
    rng = np.random.default_rng(1)
    state, weights = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))

    def loss(y):
        return (rk4_update(_logistic_rhs, y, 0.2, 0.1)[0] * weights).sum()

    z = Tensor(state)
    loss(z).backward()
    h = 1e-6
    fd = np.zeros_like(state)
    for idx in np.ndindex(state.shape):
        step = np.zeros_like(state)
        step[idx] = h
        fd[idx] = (loss(state + step) - loss(state - step)) / (2 * h)
    np.testing.assert_allclose(z.grad, fd, rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize(
    "values",
    [[], [2.0], [3.0, 1.0, 3.0, 3.0, -1.0, 1.0], [0.5] * 4, np.arange(10.0)[::-1], [np.inf, -np.inf, 1.0, np.inf]],
)
def test_sorted_unique_equals_np_unique(values):
    values = np.asarray(values, float)
    out = sorted_unique(values)
    assert out.dtype == np.unique(values).dtype
    assert out.tobytes() == np.unique(values).tobytes()
