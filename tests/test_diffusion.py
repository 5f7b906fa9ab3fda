import numpy as np
import pytest

import tape_reference as ref
from odeguide import diff_engine as de
from odeguide.datagen import gen_dex_dataset
from odeguide.diffusion import (
    ConditioningContext,
    DiffusionTrainConfig,
    PropensityModel,
    diffusion_batch_loss,
    fit_propensity,
    make_denoiser,
    make_schedule,
    propensity_weight,
    reverse_step,
    sample,
    train_diffusion,
)


def test_schedule_arrays_and_conventions():
    s = make_schedule(t_d=3, beta_start=0.1, beta_end=0.3)
    np.testing.assert_allclose(s.beta, [0.1, 0.2, 0.3])
    np.testing.assert_allclose(s.alpha, [0.9, 0.8, 0.7])
    np.testing.assert_allclose(s.alpha_bar, [0.9, 0.72, 0.504])
    assert s.alpha_bar_at(0) == 1.0
    assert s.alpha_bar_at(3) == pytest.approx(0.504)


def test_schedule_loss_weights_hand_computed():
    s = make_schedule(t_d=2, beta_start=0.1, beta_end=0.2)
    expected = np.array([0.9 * 0.1 / 0.01, 0.8 * (1 - 0.72) / 0.04])
    np.testing.assert_allclose(s.loss_weights, expected)


def test_schedule_alpha_bar_strictly_decreasing():
    s = make_schedule(t_d=50)
    assert np.all(np.diff(s.alpha_bar) < 0)
    assert 0 < s.alpha_bar[-1] < s.alpha_bar[0] < 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(t_d=0),
        dict(beta_start=0.0),
        dict(beta_start=0.5, beta_end=0.2),
        dict(beta_end=1.0),
    ],
)
def test_schedule_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        make_schedule(**kwargs)


def test_reverse_step_final_step_returns_clean_estimate_exactly():
    s = make_schedule(t_d=5, beta_start=0.05, beta_end=0.3)
    y0_hat = np.array([0.3, -1.2, 4.0])
    y1 = np.array([9.9, 9.9, 9.9])
    out = reverse_step(y1, 1, y0_hat, s, np.ones(3))
    np.testing.assert_array_equal(out, y0_hat)


def test_reverse_step_hand_computed_coefficients():
    s = make_schedule(t_d=2, beta_start=0.1, beta_end=0.2)
    y_tau = np.array([1.0])
    y0_hat = np.array([2.0])
    noise = np.array([0.5])
    abar1, abar2 = 0.9, 0.72
    c_clean = np.sqrt(abar1) * 0.2 / (1 - abar2)
    c_noisy = np.sqrt(0.8) * (1 - abar1) / (1 - abar2)
    want = c_clean * 2.0 + c_noisy * 1.0 + np.sqrt(0.2) * 0.5
    out = reverse_step(y_tau, 2, y0_hat, s, noise)
    np.testing.assert_allclose(out, [want])


def test_reverse_step_noise_none_is_deterministic_mean():
    s = make_schedule(t_d=3)
    y_tau = np.array([1.0, 2.0])
    y0_hat = np.array([0.0, 1.0])
    a = reverse_step(y_tau, 2, y0_hat, s, None)
    b = reverse_step(y_tau, 2, y0_hat, s, np.zeros(2))
    np.testing.assert_array_equal(a, b)


def test_conditioning_vector_layout_and_validation():
    cond = ConditioningContext(
        y_prime=np.array([1.0, 2.0]),
        x=np.array([[3.0, 4.0], [5.0, 6.0]]),
        a=np.array([0.0, 1.0]),
    )
    np.testing.assert_array_equal(cond.vector(), [1, 2, 3, 4, 5, 6, 0, 1])
    bad = ConditioningContext(y_prime=np.ones(3), x=np.ones((2, 2)), a=np.ones(2))
    with pytest.raises(ValueError, match="lengths"):
        bad.vector()


def _cond(T, d_x, fill=0.0):
    return ConditioningContext(
        y_prime=np.full(T, fill), x=np.full((T, d_x), fill), a=np.zeros(T)
    )


def test_zeroed_denoiser_predicts_the_noisy_input():
    from odeguide.diffusion import _predict_y0

    model = make_denoiser(horizon=4, d_x=1, hidden=(8,))
    model.params = de.ParamSet({k: np.zeros_like(v) for k, v in model.params.items()})
    s = make_schedule(t_d=3)
    y_tau = np.array([0.5, -1.0, 2.0, 0.0])
    out = _predict_y0(model, model.params, y_tau, 2, s.t_d, _cond(4, 1).vector())
    np.testing.assert_array_equal(out, y_tau)


@pytest.mark.parametrize("horizon,d_x", [(52, 2), (15, 1)], ids=["covid", "dex"])
def test_split_first_layer_agrees_with_mlp_apply_on_the_concatenated_input(horizon, d_x):
    from odeguide.diffusion import _predict_y0

    model = make_denoiser(horizon=horizon, d_x=d_x, hidden=(64, 64), seed=3)
    rng = np.random.default_rng(4)
    y = rng.standard_normal((2, 3, 5, horizon))  # (K, U, S, T)
    cond = rng.standard_normal((3, 1, model.cond_dim))  # (U, 1, cond_dim)
    got = _predict_y0(model, model.params, y, 17, 50, cond)
    emb = de.timestep_embedding(17, 50)
    fixed = np.concatenate([np.broadcast_to(emb, (3, 1, emb.size)), cond], axis=-1)
    inp = np.concatenate([y, np.broadcast_to(fixed, (*y.shape[:-1], fixed.shape[-1]))], axis=-1)
    want = y + ref.mlp_apply(model.spec, model.params, inp, prefix="den_")
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    # each member alone, with its unit's conditioning, has its bits in the pass
    for k, u, s in [(0, 0, 0), (1, 2, 4), (0, 1, 3)]:
        alone = _predict_y0(model, model.params, y[k, u, s], 17, 50, cond[u, 0])
        np.testing.assert_array_equal(alone, got[k, u, s])


def test_denoiser_same_seed_reproducible():
    a = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=5)
    b = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=5)
    da, db = dict(a.params.items()), dict(b.params.items())
    assert all(np.array_equal(da[k], db[k]) for k in da)


def test_indifferent_propensity_model_gives_weight_eight():
    model = PropensityModel(weights=np.zeros(3), history_length=3)
    data = gen_dex_dataset(n_patients=1, seed=0, n_days=5)
    assert propensity_weight(model, data.units[0]) == pytest.approx(8.0)


def test_propensity_probability_floor_caps_weights():
    model = PropensityModel(weights=np.array([0.0, 0.0, -50.0]), history_length=2)
    data = gen_dex_dataset(n_patients=4, seed=0, n_days=5)
    treated = next(u for u in data.units if u.meta["treated"])
    # p(a=1) ~ 0 under the crafted weights, so each observed treated step is
    # clipped at the floor.
    w = propensity_weight(model, treated)
    assert w <= 1.0 / model.prob_floor**2 + 1e-9


def test_fit_propensity_recovers_treatment_signal():
    data = gen_dex_dataset(n_patients=20, seed=0, n_days=8)
    model = fit_propensity(data)
    assert model.weights.shape == (3,)
    probs_treated, probs_control = [], []
    for u in data.units:
        traj = u.factual
        for t in range(1, traj.horizon):
            p = model.prob_treated(traj.x[t], float(traj.a[t - 1]))
            (probs_treated if traj.a[t] == 1 else probs_control).append(p)
    assert np.mean(probs_treated) > np.mean(probs_control)


def test_propensity_fit_that_nearly_separates_does_not_overflow():
    # the fit on these three patients drives logits past exp's range; the
    # limit 1 / (1 + inf) = 0 is exact, so neither the fit nor the weights
    # may raise under warnings-as-errors
    data = gen_dex_dataset(n_patients=3, seed=3, n_days=3)
    model = fit_propensity(data)
    assert np.isfinite(model.weights).all()
    weights = [propensity_weight(model, u) for u in data.units]
    assert np.isfinite(weights).all()
    assert PropensityModel(weights=np.array([0.0, 0.0, -1000.0])).prob_treated(0.0, 0.0) == 0.0


def test_batch_loss_is_linear_in_weights():
    model = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=1)
    s = make_schedule(t_d=4)
    rng = np.random.default_rng(0)
    y0 = rng.standard_normal((4, 3))
    cond = rng.standard_normal((4, model.cond_dim))
    mask = np.ones((4, 3))
    taus = np.array([1, 2, 3, 4])
    eps = rng.standard_normal((4, 3))
    w = np.array([1.0, 2.0, 0.5, 3.0])
    base = diffusion_batch_loss(model, s, y0, cond, mask, w, taus, eps)
    doubled = diffusion_batch_loss(model, s, y0, cond, mask, 2.0 * w, taus, eps)
    assert doubled == pytest.approx(2.0 * base, rel=1e-12)


def test_batch_loss_ignores_masked_entries():
    model = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=1)
    s = make_schedule(t_d=4)
    rng = np.random.default_rng(1)
    y0 = rng.standard_normal((2, 3))
    cond = rng.standard_normal((2, model.cond_dim))
    taus = np.array([2, 3])
    eps = rng.standard_normal((2, 3))
    w = np.ones(2)
    zero_mask = np.zeros((2, 3))
    assert diffusion_batch_loss(model, s, y0, cond, zero_mask, w, taus, eps) == 0.0


def test_training_reduces_loss():
    rng = np.random.default_rng(0)
    T, n = 4, 16
    model = make_denoiser(horizon=T, d_x=1, hidden=(16,), seed=0)
    s = make_schedule(t_d=10)
    y0 = rng.standard_normal((n, T))
    cond = np.concatenate([y0, np.zeros((n, 2 * T))], axis=1)
    mask = np.ones((n, T))
    weights = np.ones(n)
    config = DiffusionTrainConfig(epochs=30, lr=1e-2, batch_size=8)
    trained, losses = train_diffusion(model, y0, cond, mask, weights, s, config, seed=0)
    assert len(losses) == config.epochs
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("t_d", [1, 5, 50])
def test_training_embeds_each_row_from_the_table_bitwise(monkeypatch, t_d):
    """Training hands each row the table row of its tau, which must be
    ``timestep_embedding(tau, ...)``; dropping the table (the loss then
    embeds row by row) gives bitwise the same losses and parameters."""
    from odeguide import diffusion

    rng = np.random.default_rng(4)
    T, n = 3, 24
    model = make_denoiser(horizon=T, d_x=1, hidden=(8,), seed=2)
    s = make_schedule(t_d=t_d)
    data = (rng.standard_normal((n, T)), rng.standard_normal((n, model.cond_dim)))
    args = (data[0], data[1], np.ones((n, T)), rng.uniform(0.5, 2.0, n), s)
    config = DiffusionTrainConfig(epochs=4, lr=1e-2, batch_size=10)
    original = diffusion._batch_loss_and_grad
    seen = set()

    def checked(*a):
        taus, embeds = a[7], a[9]
        for tau, row in zip(taus, embeds):
            np.testing.assert_array_equal(row, de.timestep_embedding(int(tau), t_d))
            seen.add(int(tau))
        return original(*a)

    monkeypatch.setattr(diffusion, "_batch_loss_and_grad", checked)
    trained, losses = train_diffusion(model, *args, config, seed=3)
    assert seen == set(range(1, t_d + 1)) or len(seen) > 20
    monkeypatch.setattr(diffusion, "_batch_loss_and_grad", lambda *a: original(*a[:9]))
    untabled, untabled_losses = train_diffusion(model, *args, config, seed=3)
    assert losses == untabled_losses
    for name, value in untabled.params.items():
        np.testing.assert_array_equal(trained.params[name], value)


def _tape_train_diffusion(model, y0_rows, cond_rows, mask_rows, weights, schedule, config, seed):
    """``train_diffusion`` as it ran on the autodiff tape: each batch's loss
    and gradient from ``value_and_grad`` over the tape's ``batch_loss``."""
    n, T = y0_rows.shape
    rng = np.random.default_rng([seed, 13])
    t_d = schedule.t_d
    table = np.stack([de.timestep_embedding(k, t_d) for k in range(1, t_d + 1)])
    params, state, losses = model.params, de.AdamState(), []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            taus = rng.integers(1, t_d + 1, size=idx.size)
            eps = rng.standard_normal((idx.size, T))
            record = de.value_and_grad(
                ref.on_tape(ref.batch_loss), params, model, schedule, y0_rows[idx], cond_rows[idx],
                mask_rows[idx], weights[idx], taus, eps, table[taus - 1],
            )
            params, state = de.adam_step(params, record.gradient, state, config.lr)
            batch_losses.append(record.loss)
        losses.append(sum(batch_losses) / len(batch_losses))
    return params, losses


@pytest.mark.parametrize(
    "horizon,d_x,hidden,n,batch_size",
    [(3, 1, (8,), 24, 10), (5, 2, (16, 16, 16), 37, 8), (15, 1, (64, 64, 64), 64, 64)],
)
def test_closed_form_training_equals_the_tape_bitwise(horizon, d_x, hidden, n, batch_size):
    rng = np.random.default_rng(horizon)
    model = make_denoiser(horizon=horizon, d_x=d_x, hidden=hidden, seed=1)
    s = make_schedule(t_d=20)
    mask = (rng.uniform(size=(n, horizon)) < 0.7).astype(float)
    args = (
        rng.standard_normal((n, horizon)),
        rng.standard_normal((n, model.cond_dim)),
        mask,
        rng.uniform(0.5, 3.0, n),
        s,
        DiffusionTrainConfig(epochs=5, lr=1e-2, batch_size=batch_size),
    )
    trained, losses = train_diffusion(model, *args, seed=4)
    ref_params, ref_losses = _tape_train_diffusion(model, *args, seed=4)
    assert losses == ref_losses
    for name, value in ref_params.items():
        np.testing.assert_array_equal(trained.params[name], value)


def test_training_rejects_empty_set():
    model = make_denoiser(horizon=3, d_x=1)
    s = make_schedule(t_d=4)
    with pytest.raises(ValueError, match="nonempty"):
        train_diffusion(
            model,
            np.zeros((0, 3)),
            np.zeros((0, model.cond_dim)),
            np.zeros((0, 3)),
            np.zeros(0),
            s,
        )


def test_sampling_prefix_stable_in_ensemble_size():
    model = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=2)
    s = make_schedule(t_d=5)
    cond = _cond(3, 1)
    one = sample(model, cond, s, n_samples=1, seed=7)
    three = sample(model, cond, s, n_samples=3, seed=7)
    np.testing.assert_array_equal(one.samples[0], three.samples[0])


def test_sampling_with_oracle_predictor_returns_it_exactly():
    model = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=2)
    s = make_schedule(t_d=6)
    target = np.array([1.5, -0.5, 2.0])
    ens = sample(
        model, _cond(3, 1), s, n_samples=4, seed=0, predict_fn=lambda y, tau: target
    )
    for row in ens.samples:
        np.testing.assert_array_equal(row, target)


def test_identity_guide_matches_unguided_bitwise():
    model = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=3)
    s = make_schedule(t_d=5)
    cond = _cond(3, 1, fill=0.2)
    plain = sample(model, cond, s, n_samples=2, seed=1)
    guided = sample(model, cond, s, n_samples=2, seed=1, guide_fn=lambda y0, tau: y0)
    np.testing.assert_array_equal(plain.samples, guided.samples)


def test_sample_rejects_empty_ensemble():
    model = make_denoiser(horizon=3, d_x=1)
    with pytest.raises(ValueError, match="n_samples"):
        sample(model, _cond(3, 1), make_schedule(t_d=2), n_samples=0, seed=0)


# -- batched sampler against a per-member reference ----------------------


def _per_member_reference(model, cond, schedule, n_samples, seed, guide_fn=None):
    """The reverse process one member and one (T,) vector at a time, each
    member drawing its initial state and step noise in turn from its own
    sub-seed."""
    from odeguide.diffusion import _predict_y0

    T = model.horizon
    out = np.empty((n_samples, T))
    for s in range(n_samples):
        rng = np.random.default_rng([seed, 17, s])
        y = rng.standard_normal(T)
        for tau in range(schedule.t_d, 0, -1):
            y0_hat = _predict_y0(model, model.params, y, tau, schedule.t_d, cond.vector())
            if guide_fn is not None:
                y0_hat = guide_fn(y0_hat, tau)
            noise = rng.standard_normal(T) if tau > 1 else None
            y = reverse_step(y, tau, y0_hat, schedule, noise)
        out[s] = y
    return out


def _guide(T, eta, nu, seed=0):
    from odeguide.guidance import (
        ExpertGuidanceSignals,
        FactualWindow,
        GuidanceConfig,
        make_guide_fn,
    )

    rng = np.random.default_rng(seed)
    signals = ExpertGuidanceSignals(f_cf=rng.standard_normal(T), f_f=rng.standard_normal(T))
    window = FactualWindow(mask=np.arange(T) < 2)
    return make_guide_fn(
        rng.standard_normal(T), signals, window, GuidanceConfig(), eta=eta, nu=nu
    )


@pytest.mark.parametrize("guided", [False, True])
def test_batched_sampler_matches_per_member_reference_bitwise(guided):
    # bound: bitwise, because the denoiser's stacked row products give each
    # row the same result whatever the number of rows
    model = make_denoiser(horizon=6, d_x=2, hidden=(16, 16), seed=4)
    s = make_schedule(t_d=12)
    rng = np.random.default_rng(8)
    cond = ConditioningContext(
        y_prime=rng.standard_normal(6), x=rng.standard_normal((6, 2)), a=np.zeros(6)
    )
    guide = _guide(6, eta=0.05, nu=0.01) if guided else None
    batched = sample(model, cond, s, n_samples=7, seed=11, guide_fn=guide).samples
    reference = _per_member_reference(model, cond, s, 7, 11, guide)
    np.testing.assert_array_equal(batched, reference)


def test_stacked_candidate_pass_equals_separate_calls_bitwise():
    model = make_denoiser(horizon=5, d_x=1, hidden=(16,), seed=6)
    s = make_schedule(t_d=10)
    cond = _cond(5, 1, fill=0.3)
    etas = np.array([0.0, 0.01, 0.05, 0.1])
    stacked = sample(
        model, cond, s, n_samples=3, seed=9, guide_fn=_guide(5, etas[:, None, None], 0.01)
    ).samples
    assert stacked.shape == (4, 3, 5)
    for k, eta in enumerate(etas):
        single = sample(model, cond, s, n_samples=3, seed=9, guide_fn=_guide(5, eta, 0.01))
        np.testing.assert_array_equal(stacked[k], single.samples)


def test_zero_strength_column_guidance_is_bit_identical():
    model = make_denoiser(horizon=4, d_x=1, hidden=(8,), seed=2)
    s = make_schedule(t_d=10)
    cond = _cond(4, 1, fill=0.1)
    zeros = np.zeros((5, 1))
    plain = sample(model, cond, s, n_samples=5, seed=3)
    nulled = sample(model, cond, s, n_samples=5, seed=3, guide_fn=_guide(4, zeros, zeros))
    np.testing.assert_array_equal(plain.samples, nulled.samples)


def test_sample_raises_on_nonfinite_ensemble():
    model = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=2)
    s = make_schedule(t_d=4)
    with pytest.raises(FloatingPointError, match="sample: .*non-finite"):
        sample(
            model, _cond(3, 1), s, n_samples=2, seed=0, predict_fn=lambda y, tau: np.full(3, np.inf)
        )


# -- the unit axis ---------------------------------------------------------


@pytest.mark.parametrize("mode", ["unguided", "guided", "column"])
def test_unit_axis_pass_equals_one_unit_calls_bitwise(mode):
    # bound: bitwise, as for the member axis; unit 0's arms never diverge,
    # unit 1's diverge at index 0 (empty window), unit 2's at index 3
    from odeguide.guidance import (
        ExpertGuidanceSignals,
        FactualWindow,
        GuidanceConfig,
        make_guide_fn,
    )

    U, T = 3, 6
    model = make_denoiser(horizon=T, d_x=2, hidden=(16, 16), seed=4)
    s = make_schedule(t_d=8)
    rng = np.random.default_rng(12)
    a = rng.integers(0, 2, (U, T)).astype(float)
    cond = ConditioningContext(
        y_prime=rng.standard_normal((U, T)), x=rng.standard_normal((U, T, 2)), a=a
    )
    a_cf = np.zeros((U, 1, T))
    a_cf[1, 0, 0] = 1.0
    a_cf[2, 0, 3:] = 1.0
    window = FactualWindow.before_divergence(np.zeros((U, 1, T)), a_cf)
    np.testing.assert_array_equal(window.mask[:, 0].sum(axis=1), [T, 0, 3])
    signals = ExpertGuidanceSignals(
        f_cf=rng.standard_normal((U, 1, T)), f_f=rng.standard_normal((U, 1, T))
    )
    y_f = rng.standard_normal((U, 1, T))
    column = np.array([0.0, 0.02, 0.1])[:, None, None, None]
    eta = {"unguided": None, "guided": 0.05, "column": column}[mode]
    seeds = [11, 5, 2**31 + 7]

    def guide(y_f, signals, window, eta):
        if eta is None:
            return None
        return make_guide_fn(y_f, signals, window, GuidanceConfig(), eta=eta, nu=0.3)

    stacked = sample(model, cond, s, 4, seeds, guide(y_f, signals, window, eta)).samples
    assert stacked.shape == ((3,) if mode == "column" else ()) + (U, 4, T)
    for u in range(U):
        one = ConditioningContext(y_prime=cond.y_prime[u], x=cond.x[u], a=a[u])
        one_guide = guide(
            y_f[u, 0],
            ExpertGuidanceSignals(f_cf=signals.f_cf[u, 0], f_f=signals.f_f[u, 0]),
            FactualWindow(mask=window.mask[u, 0]),
            eta if mode != "column" else eta[:, 0],
        )
        single = sample(model, one, s, 4, seeds[u], one_guide).samples
        np.testing.assert_array_equal(stacked[..., u, :, :], single)


@pytest.mark.parametrize("column", [False, True])
def test_sample_names_the_first_non_finite_unit(column):
    model = make_denoiser(horizon=3, d_x=1, hidden=(8,), seed=2)
    s = make_schedule(t_d=4)
    cond = ConditioningContext(y_prime=np.zeros((3, 3)), x=np.zeros((3, 3, 1)), a=np.zeros((3, 3)))

    def predict(y, tau):  # units 1 and 2 diverge
        return np.where(np.arange(3)[:, None, None] >= 1, np.inf, 0.0)

    guide = (lambda y0, tau: np.stack([y0, y0])) if column else None
    with pytest.raises(FloatingPointError, match=r"sample: .*non-finite .*first in unit 1 \(seed 8\)"):
        sample(model, cond, s, 2, [7, 8, 9], guide_fn=guide, predict_fn=predict)
