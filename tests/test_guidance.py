import numpy as np
import pytest

import tape_reference as ref
from odeguide.diff_engine import Tensor
from odeguide.guidance import (
    ExpertGuidanceSignals,
    FactualWindow,
    GuidanceConfig,
    SelectionError,
    align_factual,
    grad_loss_cf,
    grad_loss_f,
    loss_cf,
    loss_f,
    make_guide_fn,
    select_eta,
)


def _signals(f_cf, f_f):
    return ExpertGuidanceSignals(f_cf=np.asarray(f_cf, float), f_f=np.asarray(f_f, float))


def _numpy_loss_cf(y0_hat, y0_f, f_cf, f_f, use_value=True, use_direction=True):
    gen = np.asarray(y0_hat, float) - np.asarray(y0_f, float)
    exp = np.asarray(f_cf, float) - np.asarray(f_f, float)

    def fd(r):
        return np.concatenate([np.diff(r), [r[-1] - r[-2]]])

    total = 0.0
    if use_value:
        total += np.sum((gen - exp) ** 2)
    if use_direction:
        total += np.sum((fd(gen) - fd(exp)) ** 2)
    return total


@pytest.mark.parametrize("flags", [(True, True), (True, False), (False, True)])
def test_loss_cf_matches_numpy_oracle(flags):
    use_value, use_direction = flags
    rng = np.random.default_rng(0)
    y0_hat = rng.standard_normal(6)
    y0_f = rng.standard_normal(6)
    f_cf = rng.standard_normal(6)
    f_f = rng.standard_normal(6)
    config = GuidanceConfig(use_value=use_value, use_direction=use_direction)
    got = loss_cf(y0_hat, y0_f, _signals(f_cf, f_f), config)
    want = _numpy_loss_cf(y0_hat, y0_f, f_cf, f_f, use_value, use_direction)
    assert float(got) == pytest.approx(want, rel=1e-12)


def test_loss_cf_hand_example():
    # gen relation (1,1,2) vs expert relation (0,0,0): value term 1+1+4 = 6,
    # direction term (0,1,1) vs (0,0,0) = 2.
    y0_hat = np.array([1.0, 1.0, 2.0])
    zeros = np.zeros(3)
    config = GuidanceConfig()
    assert float(loss_cf(y0_hat, zeros, _signals(zeros, zeros), config)) == pytest.approx(8.0)


def test_loss_cf_with_both_terms_disabled_is_zero():
    config = GuidanceConfig(use_value=False, use_direction=False)
    val = loss_cf(np.ones(3), np.zeros(3), _signals(np.ones(3), np.zeros(3)), config)
    assert float(val) == 0.0


def test_loss_cf_rejects_grid_mismatch():
    with pytest.raises(ValueError, match="grid"):
        loss_cf(np.ones(3), np.zeros(4), _signals(np.zeros(3), np.zeros(3)), GuidanceConfig())


def test_loss_f_window_restriction():
    y0_hat = np.array([1.0, 2.0, 3.0, 4.0])
    y0_f = np.array([0.0, 0.0, 0.0, 0.0])
    assert loss_f(y0_hat, y0_f, FactualWindow(mask=np.arange(4) < 2)) == pytest.approx(5.0)
    assert loss_f(y0_hat, y0_f, FactualWindow(mask=np.zeros(4, bool))) == 0.0
    with pytest.raises(ValueError, match="range"):
        loss_f(y0_hat, y0_f, FactualWindow(mask=np.arange(5) == 4))


def test_loss_f_on_an_empty_window_ignores_non_finite_values_outside_it():
    y0_hat = np.array([1.0, np.inf, np.nan, 4.0])
    window = FactualWindow(mask=np.zeros(4, bool))
    assert loss_f(y0_hat, np.zeros(4), window) == 0.0
    t = Tensor(y0_hat)
    loss = loss_f(t, np.zeros(4), window)
    loss.backward()
    assert float(loss.data) == 0.0 and not np.any(t.grad)


def test_factual_window_before_divergence():
    a_f = np.array([0, 0, 1, 1])
    a_cf = np.array([0, 0, 0, 0])
    np.testing.assert_array_equal(FactualWindow.before_divergence(a_f, a_cf).mask, [1, 1, 0, 0])
    same = FactualWindow.before_divergence(a_f, a_f)
    np.testing.assert_array_equal(same.mask, [1, 1, 1, 1])


def _numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi[i] += eps
        lo[i] -= eps
        g[i] = (f(hi) - f(lo)) / (2 * eps)
    return g


def test_grad_loss_cf_matches_finite_differences():
    rng = np.random.default_rng(1)
    y0_hat = rng.standard_normal(5)
    y0_f = rng.standard_normal(5)
    signals = _signals(rng.standard_normal(5), rng.standard_normal(5))
    config = GuidanceConfig()
    got = grad_loss_cf(y0_hat, y0_f, signals, config)
    want = _numeric_grad(
        lambda v: _numpy_loss_cf(v, y0_f, signals.f_cf, signals.f_f), y0_hat
    )
    np.testing.assert_allclose(got, want, atol=1e-7)


def test_grad_loss_f_matches_finite_differences():
    rng = np.random.default_rng(2)
    y0_hat = rng.standard_normal(5)
    y0_f = rng.standard_normal(5)
    window = FactualWindow(mask=np.arange(5) < 3)
    got = grad_loss_f(y0_hat, y0_f, window)
    want = _numeric_grad(
        lambda v: float(np.sum((v[:3] - y0_f[:3]) ** 2)), y0_hat
    )
    np.testing.assert_allclose(got, want, atol=1e-7)
    np.testing.assert_array_equal(got[3:], [0.0, 0.0])


def test_guided_update_formula_and_zero_strength_identity():
    y = np.array([1.0, -2.0, 0.5])
    y0_f = np.array([0.5, 0.5, 0.0])
    signals = _signals([0.2, -0.1, 0.3], [0.0, 0.4, 0.1])
    window = FactualWindow(mask=np.array([True, True, False]))
    config = GuidanceConfig()
    g_cf = grad_loss_cf(y, y0_f, signals, config)
    g_f = grad_loss_f(y, y0_f, window)
    out = make_guide_fn(y0_f, signals, window, config, eta=2.0, nu=0.5)(y, 1)
    np.testing.assert_allclose(out, y - 2.0 * g_cf - 0.5 * g_f)
    zero = make_guide_fn(y0_f, signals, window, config, eta=0.0, nu=0.0)(y, 1)
    np.testing.assert_array_equal(zero, y)


def test_make_guide_fn_zero_strengths_is_bitwise_identity():
    rng = np.random.default_rng(3)
    y0_f = rng.standard_normal(4)
    signals = _signals(rng.standard_normal(4), rng.standard_normal(4))
    guide = make_guide_fn(
        y0_f, signals, FactualWindow(mask=np.arange(4) < 1), GuidanceConfig(), eta=0.0, nu=0.0
    )
    y0_hat = rng.standard_normal(4)
    np.testing.assert_array_equal(guide(y0_hat, 5), y0_hat)


def test_guided_update_descends_the_relation_loss():
    rng = np.random.default_rng(4)
    y0_hat = rng.standard_normal(6)
    y0_f = rng.standard_normal(6)
    signals = _signals(rng.standard_normal(6), rng.standard_normal(6))
    config = GuidanceConfig()
    before = float(loss_cf(y0_hat, y0_f, signals, config))
    window = FactualWindow(mask=np.zeros(6, bool))
    stepped = make_guide_fn(y0_f, signals, window, config, eta=1e-3, nu=0.0)(y0_hat, 1)
    after = float(loss_cf(stepped, y0_f, signals, config))
    assert after < before


def test_negative_strengths_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        GuidanceConfig(eta=-1.0)


# -- alignment ----------------------------------------------------------


def _all(n):
    return np.ones(n, bool)


def test_align_identity_when_simulation_matches_observation():
    obs = np.array([0.0, 1.0, 3.0, 2.0])
    transform, aligned, aligned_cf = align_factual(obs, obs, obs, _all(4))
    assert transform.scale == pytest.approx(1.0)
    assert transform.shift == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(aligned, obs, atol=1e-12)
    np.testing.assert_allclose(aligned_cf, obs, atol=1e-12)


def test_align_recovers_affine_map_and_warps_counterfactual():
    sim = np.array([0.0, 1.0, 2.0, 3.0])
    obs = 2.0 * sim + 3.0
    cf_sim = sim + 1.0
    transform, aligned_f, aligned_cf = align_factual(sim, cf_sim, obs, _all(4))
    assert transform.scale == pytest.approx(2.0)
    assert transform.shift == pytest.approx(3.0)
    np.testing.assert_allclose(aligned_f, obs, atol=1e-9)
    np.testing.assert_allclose(aligned_cf, 2.0 * cf_sim + 3.0, atol=1e-9)


def test_align_fits_on_observed_points_only():
    sim = np.arange(6.0)
    obs = 2.0 * sim + 3.0
    observed = np.array([True, False, True, True, False, True])
    obs[~observed] = [50.0, -7.0]  # off the map; never read
    transform, aligned_f, _ = align_factual(sim, sim, obs, observed)
    assert transform.scale == pytest.approx(2.0)
    assert transform.shift == pytest.approx(3.0)
    np.testing.assert_allclose(aligned_f, 2.0 * sim + 3.0, atol=1e-9)


def test_align_constant_simulation_uses_pure_shift():
    sim = np.full(4, 2.0)
    obs = np.full(4, 7.0)
    transform, aligned, _ = align_factual(sim, sim, obs, _all(4))
    assert transform.scale == 1.0
    assert transform.shift == pytest.approx(5.0)
    np.testing.assert_allclose(aligned, obs)


def test_align_one_observed_point_gives_a_pure_shift():
    sim, cf = np.array([1.0, 4.0, 2.0]), np.array([0.0, 1.0, 5.0])
    observed = np.array([False, True, False])
    transform, aligned_f, aligned_cf = align_factual(sim, cf, np.array([9.0, 10.0, -3.0]), observed)
    assert transform.scale == 1.0
    assert transform.shift == 6.0
    np.testing.assert_array_equal(aligned_f, sim + 6.0)
    np.testing.assert_array_equal(aligned_cf, cf + 6.0)


def test_align_expert_constant_on_observed_points_gives_a_pure_shift():
    # the expert varies only where the outcome is unobserved
    sim = np.array([2.0, 8.0, 2.0, -1.0, 2.0])
    observed = np.array([True, False, True, False, True])
    obs = np.array([3.0, 0.0, 4.0, 0.0, 5.0])
    transform, aligned_f, _ = align_factual(sim, sim, obs, observed)
    assert transform.scale == 1.0
    assert transform.shift == pytest.approx(2.0)
    np.testing.assert_allclose(aligned_f, sim + 2.0)


@pytest.mark.parametrize("poison", [np.nan, np.inf, 1e300])
def test_align_ignores_unobserved_outcomes(poison):
    rng = np.random.default_rng(4)
    sim, cf, obs = rng.standard_normal((3, 2, 9))
    observed = rng.random((2, 9)) < 0.6
    observed[:, 0] = True
    poisoned = np.where(observed, obs, poison)
    (t, f, f_cf), (t_p, f_p, f_cf_p) = (align_factual(sim, cf, y, observed) for y in (obs, poisoned))
    for a, b in ((f, f_p), (f_cf, f_cf_p), (t.scale, t_p.scale), (t.shift, t_p.shift)):
        assert np.isfinite(b).all()
        assert a.tobytes() == b.tobytes()


def test_align_each_unit_equals_its_one_unit_call_bitwise():
    rng = np.random.default_rng(7)
    sim, cf, obs = rng.standard_normal((3, 5, 15))
    sim[2] = 0.5  # a constant expert beside fitted ones
    observed = rng.random((5, 15)) < 0.5
    observed[:, 0] = True
    transform, aligned_f, aligned_cf = align_factual(sim, cf, obs, observed)
    assert transform.scale.shape == transform.shift.shape == (5,)
    assert transform.scale[2] == 1.0
    for i in range(5):
        one, f_i, cf_i = align_factual(sim[i : i + 1], cf[i : i + 1], obs[i : i + 1], observed[i : i + 1])
        assert f_i.tobytes() == aligned_f[i : i + 1].tobytes()
        assert cf_i.tobytes() == aligned_cf[i : i + 1].tobytes()
        assert one.scale.tobytes() == transform.scale[i : i + 1].tobytes()


def test_align_reduces_mismatch_under_noise():
    rng = np.random.default_rng(5)
    sim = np.linspace(0.0, 5.0, 20)
    obs = 1.5 * sim - 2.0 + 0.05 * rng.standard_normal(20)
    _, aligned, _ = align_factual(sim, sim, obs, _all(20))
    assert aligned.shape == obs.shape
    rmse_aligned = np.sqrt(np.mean((aligned - obs) ** 2))
    rmse_raw = np.sqrt(np.mean((sim - obs) ** 2))
    assert rmse_aligned < rmse_raw


def test_align_rejects_curves_of_different_lengths():
    sim, obs = np.arange(5.0), np.arange(4.0)
    with pytest.raises(ValueError, match=r"expert curves \(5,\) and \(5,\), outcome \(4,\)"):
        align_factual(sim, sim, obs, _all(4))


def test_align_rejects_empty_input():
    with pytest.raises(ValueError, match="nonempty"):
        align_factual(np.array([]), np.array([]), np.array([]), _all(0))
    with pytest.raises(ValueError, match="nonempty"):
        align_factual(np.ones((2, 3)), np.ones((2, 3)), np.ones((2, 3)), np.array([[True] * 3, [False] * 3]))


# -- strength selection -------------------------------------------------


def test_select_eta_single_candidate():
    config = GuidanceConfig(eta_candidates=(3.0,))
    target = np.array([1.0, 2.0, 3.0])
    eta, entries = select_eta(config, lambda e, s: np.tile(target, (2, 1)), target, seed=0)
    assert eta == 3.0
    assert len(entries) == 1 and entries[0].correlation == pytest.approx(1.0)


def test_select_eta_prefers_planted_best_candidate():
    target = np.array([0.0, 1.0, 2.0, 3.0])

    def sampler(eta, seed):
        if eta == 0.5:
            return np.tile(target, (3, 1))
        return np.tile(target[::-1], (3, 1))

    config = GuidanceConfig(eta_candidates=(0.0, 0.5, 2.0))
    eta, entries = select_eta(config, sampler, target, seed=0)
    assert eta == 0.5
    assert [e.eta for e in entries] == [0.0, 0.5, 2.0]


def test_select_eta_tie_keeps_smallest():
    target = np.array([0.0, 1.0, 2.0])
    config = GuidanceConfig(eta_candidates=(5.0, 1.0, 3.0))
    eta, _ = select_eta(config, lambda e, s: np.tile(target, (2, 1)), target, seed=0)
    assert eta == 1.0


def test_select_eta_skips_undefined_correlations():
    target = np.array([0.0, 1.0, 2.0])

    def sampler(eta, seed):
        if eta == 0.0:
            return np.zeros((2, 3))  # constant mean: correlation undefined
        return np.tile(target, (2, 1))

    config = GuidanceConfig(eta_candidates=(0.0, 1.0))
    eta, entries = select_eta(config, sampler, target, seed=0)
    assert eta == 1.0
    assert np.isnan(entries[0].correlation)


def test_select_eta_all_undefined_raises():
    config = GuidanceConfig(eta_candidates=(0.0, 1.0))
    with pytest.raises(SelectionError, match="undefined"):
        select_eta(config, lambda e, s: np.zeros((2, 3)), np.arange(3.0), seed=0)


def test_guidance_config_rejects_empty_candidates():
    with pytest.raises(ValueError, match="nonempty"):
        GuidanceConfig(eta_candidates=())


def test_loss_cf_gradient_through_tensor_inputs():
    y0_hat = Tensor(np.array([1.0, 2.0, 3.0]))
    val = loss_cf(y0_hat, np.zeros(3), _signals(np.zeros(3), np.zeros(3)), GuidanceConfig())
    val.backward()
    assert y0_hat.grad is not None and y0_hat.grad.shape == (3,)


def _tape_grad(loss_fn, y0_hat):
    t = ref.Tensor(np.asarray(y0_hat, float))
    loss_fn(t).backward()
    return t.grad


def _assert_rel_close(got, want, rel=1e-12):
    scale = np.max(np.abs(want))
    if scale == 0.0:
        np.testing.assert_array_equal(got, want)
    else:
        err = np.max(np.abs(got - want)) / scale
        assert err <= rel, f"relative error {err:.2e} > {rel:.0e}"


@pytest.mark.parametrize("T", [15, 52])
@pytest.mark.parametrize("flags", [(True, True), (True, False), (False, True), (False, False)])
def test_closed_form_grad_loss_cf_matches_tape(T, flags):
    rng = np.random.default_rng(T)
    y0_f = rng.standard_normal(T)
    signals = _signals(rng.standard_normal(T), rng.standard_normal(T))
    config = GuidanceConfig(use_value=flags[0], use_direction=flags[1])
    rows = rng.standard_normal((4, T))
    batched = grad_loss_cf(rows, y0_f, signals, config)
    assert batched.shape == rows.shape
    for row, got in zip(rows, batched):
        want = _tape_grad(lambda t: ref.loss_cf(t, y0_f, signals, config), row)
        _assert_rel_close(grad_loss_cf(row, y0_f, signals, config), want)
        _assert_rel_close(got, want)


@pytest.mark.parametrize("T", [15, 52])
@pytest.mark.parametrize("indices", [(), (0,), (0, 1, 2, 3, 4), (2, 5, 7)])
def test_closed_form_grad_loss_f_matches_tape(T, indices):
    rng = np.random.default_rng(T + len(indices))
    y0_f = rng.standard_normal(T)
    window = FactualWindow(mask=np.isin(np.arange(T), indices))
    rows = rng.standard_normal((3, T))
    batched = grad_loss_f(rows, y0_f, window)
    assert batched.shape == rows.shape
    for row, got in zip(rows, batched):
        want = _tape_grad(lambda t: ref.loss_f(t, y0_f, window), row)
        _assert_rel_close(grad_loss_f(row, y0_f, window), want)
        _assert_rel_close(got, want)


def test_grad_loss_f_ignores_nonfinite_factual_values_outside_the_window():
    y0_f = np.array([1.0, 2.0, np.nan, np.inf])
    got = grad_loss_f(np.zeros(4), y0_f, FactualWindow(mask=np.arange(4) < 2))
    np.testing.assert_array_equal(got, [-2.0, -4.0, 0.0, 0.0])


def test_make_guide_fn_strength_column_guides_rows_separately():
    rng = np.random.default_rng(5)
    y0_f = rng.standard_normal(6)
    signals = _signals(rng.standard_normal(6), rng.standard_normal(6))
    window = FactualWindow(mask=np.arange(6) < 2)
    config = GuidanceConfig()
    etas = np.array([0.0, 0.01, 0.1])
    rows = rng.standard_normal((3, 6))
    column = make_guide_fn(y0_f, signals, window, config, eta=etas[:, None], nu=0.01)
    stacked = column(rows, 4)
    for k, eta in enumerate(etas):
        single = make_guide_fn(y0_f, signals, window, config, eta=eta, nu=0.01)
        np.testing.assert_array_equal(stacked[k], single(rows[k], 4))


def test_stacked_before_divergence_equals_each_rows_first_divergence():
    rng = np.random.default_rng(6)
    a_f = rng.integers(0, 2, (4, 3, 7))
    a_cf = np.where(rng.random(a_f.shape) < 0.15, 1 - a_f, a_f)
    a_cf[0, 0] = a_f[0, 0]  # never diverges
    a_cf[0, 1, 0] = 1 - a_f[0, 1, 0]  # diverges at index 0
    stacked = FactualWindow.before_divergence(a_f, a_cf).mask
    assert stacked.shape == a_f.shape
    for idx in np.ndindex(a_f.shape[:-1]):
        diverging = np.flatnonzero(a_f[idx] != a_cf[idx])
        first = diverging[0] if diverging.size else a_f.shape[-1]
        np.testing.assert_array_equal(stacked[idx], np.arange(a_f.shape[-1]) < first)
        np.testing.assert_array_equal(stacked[idx], FactualWindow.before_divergence(a_f[idx], a_cf[idx]).mask)
    assert stacked[0, 0].all() and not stacked[0, 1].any()


def test_unit_axis_guidance_gradients_equal_each_units_own():
    rng = np.random.default_rng(7)
    U, S, T = 3, 4, 6
    y_f = rng.standard_normal((U, 1, T))
    signals = _signals(rng.standard_normal((U, 1, T)), rng.standard_normal((U, 1, T)))
    window = FactualWindow(mask=np.arange(T) < np.array([6, 0, 3])[:, None, None])
    rows = rng.standard_normal((U, S, T))
    g_cf = grad_loss_cf(rows, y_f, signals, GuidanceConfig())
    g_f = grad_loss_f(rows, y_f, window)
    for u in range(U):
        one = _signals(signals.f_cf[u, 0], signals.f_f[u, 0])
        np.testing.assert_array_equal(g_cf[u], grad_loss_cf(rows[u], y_f[u, 0], one, GuidanceConfig()))
        one_window = FactualWindow(mask=window.mask[u, 0])
        np.testing.assert_array_equal(g_f[u], grad_loss_f(rows[u], y_f[u, 0], one_window))
    with pytest.raises(ValueError, match="grid"):
        grad_loss_cf(rows, y_f[..., :-1], signals, GuidanceConfig())
    with pytest.raises(ValueError, match="range"):
        grad_loss_f(rows, y_f, FactualWindow(mask=np.ones(T + 1, bool)))


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"eta": float("nan")}, "guidance.eta must be a finite nonnegative number, got nan"),
        ({"nu": float("inf")}, "guidance.nu must be a finite nonnegative number, got inf"),
        ({"eta": "x"}, "guidance.eta must be a finite nonnegative number, got 'x'"),
        ({"nu": True}, "guidance.nu must be a finite nonnegative number, got True"),
        ({"eta_candidates": (-0.5, 0.0)}, "guidance.eta_candidates must .* got -0.5"),
        ({"eta_candidates": (0.0, float("nan"))}, "guidance.eta_candidates must .* got nan"),
    ],
)
def test_guidance_config_rejects_bad_strengths(kwargs, message):
    with pytest.raises(ValueError, match=message):
        GuidanceConfig(**kwargs)


def _numeric_grad_nd(f, x, eps=1e-6):
    """``_numeric_grad`` of a function of an array of any shape."""
    return _numeric_grad(lambda v: f(v.reshape(x.shape)), x.ravel(), eps).reshape(x.shape)


def test_loss_f_windows_the_last_axis_of_stacked_rows():
    rng = np.random.default_rng(8)
    y0_hat, y0_f = rng.standard_normal((3, 3)), rng.standard_normal(3)
    window = FactualWindow(mask=np.array([True, True, False]))
    got = loss_f(y0_hat, y0_f, window)
    assert got == pytest.approx(sum(float(np.sum((row[:2] - y0_f[:2]) ** 2)) for row in y0_hat), rel=1e-14)
    numeric = _numeric_grad_nd(lambda v: float(loss_f(v, y0_f, window)), y0_hat)
    np.testing.assert_allclose(grad_loss_f(y0_hat, y0_f, window), numeric, atol=1e-7)


def test_loss_cf_of_stacked_rows_is_the_sum_of_each_rows_loss():
    rng = np.random.default_rng(9)
    rows, y0_f = rng.standard_normal((4, 6)), rng.standard_normal(6)
    signals, config = _signals(rng.standard_normal(6), rng.standard_normal(6)), GuidanceConfig()
    got = loss_cf(rows, y0_f, signals, config)
    assert got == pytest.approx(sum(float(loss_cf(row, y0_f, signals, config)) for row in rows), rel=1e-14)
    numeric = _numeric_grad_nd(lambda v: float(loss_cf(v, y0_f, signals, config)), rows)
    np.testing.assert_allclose(grad_loss_cf(rows, y0_f, signals, config), numeric, atol=1e-6)
    with pytest.raises(ValueError, match="share the data grid"):
        loss_cf(rows, y0_f[:-1], signals, config)


def test_the_direction_term_on_a_one_point_grid_raises_naming_its_length():
    one = np.ones(1)
    signals = _signals(one, 0.5 * one)
    for fn in (loss_cf, grad_loss_cf):
        with pytest.raises(ValueError, match="at least 2 points, got 1"):
            fn(one, 0.0 * one, signals, GuidanceConfig())
    value_only = GuidanceConfig(use_direction=False)  # u = 1 - 0 - 0.5
    assert loss_cf(one, 0.0 * one, signals, value_only) == 0.25
    np.testing.assert_array_equal(grad_loss_cf(one, 0.0 * one, signals, value_only), [1.0])
