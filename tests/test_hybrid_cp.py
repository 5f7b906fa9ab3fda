from dataclasses import replace

import numpy as np
import pytest

import tape_reference as ref
from expert_terms import array_power, seirm_terms
from odeguide import diff_engine as de
from odeguide import hybrid_cp
from odeguide.datagen import gen_covid_dataset, gen_dex_dataset
from odeguide.expert_models import (
    PkpdParams,
    SeirmParams,
    TreatmentSchedule,
    _derivative_fn,
    make_drive,
)
from odeguide.hybrid_cp import (
    HybridCpConfig,
    _dataset_loss,
    _factual_batch,
    _loss_and_grad,
    expert_rhs,
    make_hybrid_model,
    normalize_expert_state,
    predict,
    train_hybrid,
)

TINY = HybridCpConfig(m_y=2, m_x=2, hidden=(4,), epochs=4, lr=0.01)


def _tiny_model(seed=0):
    return make_hybrid_model("PKPD", PkpdParams(), d_x=3, config=TINY, seed=seed)


def treatment_drive(model, treatment, t):
    """The expert drive of one unit at one time, as a scalar."""
    drive = make_drive(model.family, model.expert_params, (treatment,))
    return drive(t)[0, 0]


def test_unknown_family_rejected():
    with pytest.raises(ValueError, match="family"):
        make_hybrid_model("SIR", PkpdParams(), d_x=3)


def test_normalize_seirm_uniform_state_splits_population_evenly():
    params = SeirmParams(0.5, 0.3, 0.25, 0.02, 100.0)
    out = normalize_expert_state(np.ones(5), "SEIRM", params)
    np.testing.assert_allclose(out, np.full(5, 20.0))
    assert out.sum() == pytest.approx(100.0)


def test_normalize_seirm_always_sums_to_population():
    params = SeirmParams(0.5, 0.3, 0.25, 0.02, 1234.5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        out = normalize_expert_state(rng.normal(size=5), "SEIRM", params)
        assert out.sum() == pytest.approx(1234.5)
        assert np.all(out > 0)


def test_normalize_pkpd_is_softplus_positivity():
    raw = np.array([-2.0, 0.0, 3.0, -10.0])
    out = normalize_expert_state(raw, "PKPD", PkpdParams())
    np.testing.assert_allclose(out, np.log1p(np.exp(raw)))
    assert np.all(out > 0)


def test_expert_derivative_matches_mechanistic_terms():
    params = SeirmParams(0.5, 0.3, 0.25, 0.02, 1000.0)
    model = make_hybrid_model("SEIRM", params, d_x=3, config=TINY)
    ze = np.array([800.0, 100.0, 60.0, 30.0, 10.0])
    sched = TreatmentSchedule(kind="binary_policy", mandate_start=1e9)
    got = expert_rhs(model, ze, treatment_drive(model, sched, 0.0))
    want = np.array(seirm_terms(*ze, params, params.beta))
    np.testing.assert_allclose(np.asarray(got, float), want)


@pytest.mark.parametrize("full_model", [False, True], ids=["4-dim", "5-dim"])
def test_hybrid_expert_equals_the_simulation_kernel_bitwise(full_model):
    # non-integer Hill exponents, which no power shortcut takes
    params = PkpdParams(h_P=1.7, h_C=2.3, full_model=full_model)
    model = make_hybrid_model("PKPD", params, d_x=3, config=TINY)
    ze = np.random.default_rng(15).exponential(4.0, (200, params.dim))
    drive = np.linspace(0.0, 1.0, len(ze))[:, None]  # (U, 1), as a rollout passes it
    want = _derivative_fn("PKPD", params)(ze, drive[:, 0])
    assert expert_rhs(model, ze, drive).tobytes() == want.tobytes()


def test_zeroed_readouts_predict_zero_everywhere():
    model = _tiny_model()
    zeroed = {k: np.zeros_like(v) for k, v in model.params.items()}
    model.params = de.ParamSet(zeroed)
    times = np.arange(4.0)
    a_seq = np.array([0.0, 1.0, 1.0, 1.0])
    sched = TreatmentSchedule(kind="dosing", doses=((1.0, 0.5),))
    y, x = predict_unit_like(model, times, a_seq, sched)
    np.testing.assert_array_equal(y, np.zeros(4))
    np.testing.assert_array_equal(x, np.zeros((4, 3)))


def predict_unit_like(model, times, a_seq, sched):
    y, x = predict(model, np.zeros((1, model.d_x)), a_seq[:1], [0.0], a_seq[None, :], times, [sched])
    return y[0], x[0]


def test_prediction_shapes_and_determinism():
    model = _tiny_model(seed=3)
    times = np.arange(5.0)
    a_seq = np.zeros(5)
    sched = TreatmentSchedule(kind="dosing")
    y1, x1 = predict_unit_like(model, times, a_seq, sched)
    y2, x2 = predict_unit_like(model, times, a_seq, sched)
    assert y1.shape == (5,) and x1.shape == (5, 3)
    np.testing.assert_array_equal(y1, y2)
    np.testing.assert_array_equal(x1, x2)


def test_same_seed_same_initial_parameters():
    a = _tiny_model(seed=9).params
    b = _tiny_model(seed=9).params
    c = _tiny_model(seed=10).params
    da, db, dc = dict(a.items()), dict(b.items()), dict(c.items())
    assert all(np.array_equal(da[k], db[k]) for k in da)
    assert any(not np.array_equal(da[k], dc[k]) for k in da)


def test_mismatched_treatment_grid_rejected():
    model = _tiny_model()
    sched = TreatmentSchedule(kind="dosing")
    with pytest.raises(ValueError, match="grid"):
        predict_unit_like(model, np.arange(4.0), np.zeros(3), sched)


def test_training_reduces_loss():
    data = gen_dex_dataset(n_patients=2, seed=0, sigma=0.0, n_days=4, drop_measurements=False)
    model = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=TINY, seed=0)
    trained, losses = train_hybrid(model, data)
    assert len(losses) == TINY.epochs + 1
    assert losses[-1] < losses[0]
    assert trained.params is not model.params


def test_training_rejects_empty_dataset():
    from odeguide.datagen import Dataset

    model = _tiny_model()
    with pytest.raises(ValueError, match="nonempty"):
        train_hybrid(model, Dataset(units=[], schema_version=1, seed=0))


def test_training_gradient_matches_finite_differences():
    from odeguide.hybrid_cp import _dataset_loss

    data = gen_dex_dataset(n_patients=1, seed=1, sigma=0.0, n_days=3, drop_measurements=False)
    model = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=TINY, seed=1)

    def loss_fn(tensors):
        return _dataset_loss(model, tensors, data.units)

    max_err = de.grad_check(loss_fn, model.params, eps=1e-5)
    assert max_err < 2e-4


def test_training_halves_loss_on_noiseless_data():
    data = gen_dex_dataset(n_patients=2, seed=2, sigma=0.0, n_days=4, drop_measurements=False)
    config = HybridCpConfig(m_y=2, m_x=2, hidden=(8,), epochs=40, lr=0.02)
    model = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=config, seed=0)
    trained, losses = train_hybrid(model, data)
    assert losses[-1] < 0.5 * losses[0]
    unit = data.units[0]
    f = unit.factual
    y, x = predict(trained, f.x[:1], f.a[:1], f.y[:1], f.a[None, :], f.times, [unit.treatment_factual])
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(x))


# -- batched rollout against a per-unit reference ------------------------

# Bound on the batched rollout's loss, gradients and predictions against the
# per-unit reference, relative to the largest magnitude of each compared
# array: the arithmetic per unit is the same, but matrix products run on
# (U, n) rows instead of (n,) vectors and the loss sums run in another
# order, so the two agree to rounding (about 2e-15 here), far inside it.
BATCH_RTOL = 1e-12


def _reference_rollout(model, params, traj, treatment):
    """One unit on 1-D states, unit by unit, as the predictor ran before it
    was batched. Returns per-point outcome scalars and covariate vectors."""

    def cat(parts):
        if any(isinstance(p, ref.Tensor) for p in parts):
            return ref.concat(parts)
        return np.concatenate([np.atleast_1d(p) for p in parts])

    def mlp(name, v):
        return ref.mlp_apply(model.specs[name], params, v, prefix=f"{name}_")

    def rhs(zy, zx, ze, zy_lag, a_t, t):
        dzy = mlp("fy", cat([zy, ze, zx, a_t]))
        dzx = mlp("fx", cat([zx, zy_lag, a_t]))
        return dzy, dzx, ref.expert_rhs(model, ze, treatment_drive(model, treatment, t))

    def read(zy, zx, ze, a_t):
        return mlp("gy", cat([ze, zy, zx, a_t]))[0], mlp("gx", cat([zx, a_t]))

    a, times = traj.a.astype(float), traj.times
    obs = np.concatenate([traj.x[0], [a[0], traj.y[0]]])
    zx = mlp("gxi", obs)
    zy = mlp("gzeta", cat([zx, a[0], traj.y[0]]))
    ze = ref.normalize_expert_state(mlp("geta", obs), model.family, model.expert_params)
    y, x = read(zy, zx, ze, a[0])
    ys, xs = [y], [x]
    zy_lag = zy
    for k in range(len(times) - 1):
        zy_start = zy
        t, dt = times[k], times[k + 1] - times[k]
        state = (zy, zx, ze)
        k1 = rhs(*state, zy_lag, a[k], t)
        k2 = rhs(*(z + 0.5 * dt * d for z, d in zip(state, k1)), zy_lag, a[k], t + 0.5 * dt)
        k3 = rhs(*(z + 0.5 * dt * d for z, d in zip(state, k2)), zy_lag, a[k], t + 0.5 * dt)
        k4 = rhs(*(z + dt * d for z, d in zip(state, k3)), zy_lag, a[k], t + dt)
        zy, zx, ze = (
            z + dt / 6.0 * (d1 + 2 * d2 + 2 * d3 + d4)
            for z, d1, d2, d3, d4 in zip(state, k1, k2, k3, k4)
        )
        zy_lag = zy_start
        y, x = read(zy, zx, ze, a[k + 1])
        ys.append(y)
        xs.append(x)
    return ys, xs


def _reference_loss(model, tensors, units):
    y_terms, x_terms = [], []
    for unit in units:
        traj = unit.factual
        ys, xs = _reference_rollout(model, tensors, traj, unit.treatment_factual)
        for k in np.flatnonzero(traj.observed):
            y_terms.append((ys[k] - float(traj.y[k])) ** 2)
            diff = xs[k] - traj.x[k]
            x_terms.append((diff * diff).sum())
    n_y = len(y_terms)
    n_x = n_y * units[0].factual.d_x
    return sum(y_terms[1:], y_terms[0]) * (1.0 / n_y) + sum(x_terms[1:], x_terms[0]) * (1.0 / n_x)


def _dex_case():
    data = gen_dex_dataset(n_patients=4, seed=5, sigma=0.1, n_days=6, drop_measurements=True)
    masks = {tuple(u.factual.observed) for u in data.units}
    assert len(masks) > 1, "the case needs masks that differ per unit"
    model = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=TINY, seed=2)
    return model, data.units


def _covid_case():
    cities = [("a", 2.0e5), ("b", 5.0e5), ("c", 1.0e6), ("d", 3.0e6)]
    data = gen_covid_dataset(cities, seed=3, n_weeks=44)
    starts = {u.treatment_factual.mandate_start for u in data.units}
    assert len(starts) == 2, "the case needs both mandate starts"
    params = SeirmParams(0.5, 0.3, 0.25, 0.02, 1000.0)
    model = make_hybrid_model("SEIRM", params, d_x=data.units[0].factual.d_x, config=TINY, seed=4)
    return model, data.units


CASES = {"dex_masked": _dex_case, "covid_both_mandates": _covid_case}


def _assert_close(got, want, rtol):
    scale = np.max(np.abs(want))
    assert np.max(np.abs(np.asarray(got) - want)) <= rtol * scale


@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_loss_and_gradients_match_per_unit_reference(case):
    model, units = CASES[case]()
    got = de.value_and_grad(lambda t: _dataset_loss(model, t, units), model.params)
    want = de.value_and_grad(ref.on_tape(lambda t: _reference_loss(model, t, units)), model.params)
    _assert_close(got.loss, want.loss, BATCH_RTOL)
    for name in model.params.names():
        _assert_close(got.gradient[name], want.gradient[name], BATCH_RTOL)


def _predict_arm(model, units, arm):
    """One ``predict`` call over ``units``' ``arm``, started from the factual
    initial observation."""
    trajs = [getattr(u, arm) for u in units]
    return predict(
        model,
        np.stack([u.factual.x[0] for u in units]),
        [tr.a[0] for tr in trajs],
        [u.factual.y[0] for u in units],
        np.stack([tr.a for tr in trajs]),
        units[0].factual.times,
        [getattr(u, f"treatment_{arm}") for u in units],
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_predict_matches_per_unit_reference(case):
    model, units = CASES[case]()
    params = dict(model.params.items())
    y, x = _predict_arm(model, units, "factual")
    assert y.shape == (len(units), units[0].factual.horizon)
    for i, unit in enumerate(units):
        ys, xs = _reference_rollout(model, params, unit.factual, unit.treatment_factual)
        _assert_close(y[i], np.array([float(v) for v in ys]), BATCH_RTOL)
        _assert_close(x[i], np.stack(xs), BATCH_RTOL)


@pytest.mark.parametrize("arm", ["factual", "counterfactual"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_each_row_of_a_batched_predict_equals_its_single_unit_call(case, arm):
    model, units = CASES[case]()
    y, x = _predict_arm(model, units, arm)
    for i, unit in enumerate(units):
        y1, x1 = _predict_arm(model, [unit], arm)
        np.testing.assert_array_equal(y1[0], y[i])
        np.testing.assert_array_equal(x1[0], x[i])


@pytest.mark.parametrize("field", ["y", "x"])
def test_unobserved_points_do_not_reach_the_loss(field):
    model, units = _dex_case()
    unit_index, k = next(
        (i, k)
        for i, u in enumerate(units)
        for k in range(1, u.factual.horizon)
        if not u.factual.observed[k]
    )
    before = de.value_and_grad(lambda t: _dataset_loss(model, t, units), model.params)
    arr = getattr(units[unit_index].factual, field)
    arr[k] = arr[k] + 123.0
    after = de.value_and_grad(lambda t: _dataset_loss(model, t, units), model.params)
    assert after.loss == before.loss
    for name in model.params.names():
        np.testing.assert_array_equal(after.gradient[name], before.gradient[name])


def test_final_loss_equals_value_and_grad_loss_bitwise():
    data = gen_dex_dataset(n_patients=3, seed=6, sigma=0.1, n_days=4, drop_measurements=True)
    model = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=TINY, seed=0)
    trained, losses = train_hybrid(model, data)
    record = de.value_and_grad(lambda t: _dataset_loss(trained, t, data.units), trained.params)
    tape = de.value_and_grad(ref.on_tape(lambda t: ref.dataset_loss(trained, t, data.units)), trained.params)
    assert losses[-1] == record.loss == tape.loss


def test_units_on_different_grids_rejected():
    model, units = _dex_case()
    units[1].factual.times = units[1].factual.times + 0.5
    with pytest.raises(ValueError, match="grid"):
        _dataset_loss(model, dict(model.params.items()), units)


def test_both_trainers_raise_one_training_error_on_divergence():
    from odeguide import diffusion, hybrid_cp
    from odeguide.diffusion import make_denoiser, make_schedule, train_diffusion

    assert hybrid_cp.TrainingError is diffusion.TrainingError is de.TrainingError
    data = gen_dex_dataset(n_patients=2, seed=0, sigma=0.0, n_days=3, drop_measurements=False)
    model = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=TINY, seed=0)
    model.params = de.ParamSet({k: np.full_like(v, np.nan) for k, v in model.params.items()})
    with pytest.raises(de.TrainingError, match="diverged"), np.errstate(invalid="ignore"):
        train_hybrid(model, data)

    denoiser = make_denoiser(horizon=3, d_x=1, hidden=(4,), seed=0)
    denoiser.params = de.ParamSet(
        {k: np.full_like(v, np.nan) for k, v in denoiser.params.items()}
    )
    rows = np.ones((2, 3))
    cond = np.ones((2, denoiser.cond_dim))
    with pytest.raises(de.TrainingError, match="diverged"):
        train_diffusion(denoiser, rows, cond, rows, np.ones(2), make_schedule(t_d=4))


# -- the expert right-hand side as one tape node -------------------------


def _tape_relu(z):
    return ref.custom_vjp(np.maximum(z.data, 0.0), z, lambda g: g * (z.data > 0.0))


def _tape_expert_rhs(model, ze, drive):
    """The expert derivative as the tape recorded it before it became one
    node: a slice node per state column and a node per arithmetic operation
    of the SEIRM or PKPD terms."""
    cols = [ze[..., k : k + 1] for k in range(model.e_dim)]
    p = model.expert_params
    if model.family == "SEIRM":
        return ref.concat(seirm_terms(*cols, p, drive))
    z1, z2, z3, z4 = cols[:4]
    z1c = _tape_relu(z1)
    hill = p.E_max * z1c**p.h_P / (array_power(p.EC_50, p.h_P) + z1c**p.h_P)
    dz1 = p.k_IR * z4 + p.k_PF * z4 * z1 - p.k_O * z1 + hill - p.k_Dex * z1c * z2
    dz2 = -p.k_2 * z2 + p.k_3 * (z3 + drive)
    dz3 = -p.k_3 * z3
    if not p.full_model:
        return ref.concat([dz1, dz2, dz3, p.k_DP * z4 - p.k_IIR * z4 * z1 - p.k_DC * z4])
    dz4 = p.k_DP * z4 - p.k_IIR * z4 * z1 - p.k_DC * z4 * _tape_relu(cols[4]) ** p.h_C
    return ref.concat([dz1, dz2, dz3, dz4, p.k_1 * z1])


def _dex_full_model_case():
    data = gen_dex_dataset(n_patients=3, seed=7, sigma=0.1, n_days=5, drop_measurements=True)
    params = PkpdParams(full_model=True, h_P=1.5, h_C=1.5)
    model = make_hybrid_model("PKPD", params, d_x=1, config=TINY, seed=3)
    return model, data.units


@pytest.mark.parametrize("case", sorted(CASES) + ["dex_full_model"])
def test_expert_node_gradient_matches_the_per_column_tape(case, monkeypatch):
    model, units = CASES.get(case, _dex_full_model_case)()
    loss = ref.on_tape(lambda t: ref.dataset_loss(model, t, units))
    got = de.value_and_grad(loss, model.params)
    monkeypatch.setattr(ref, "expert_rhs", _tape_expert_rhs)
    want = de.value_and_grad(loss, model.params)
    assert got.loss == want.loss  # the forward values are the same bits
    scale = max(np.max(np.abs(g)) for g in want.gradient.values())
    for name in model.params.names():
        assert np.max(np.abs(got.gradient[name] - want.gradient[name])) <= 1e-12 * scale, name


def test_a_dex_sized_hybrid_loss_builds_at_most_1028_tape_nodes(monkeypatch):
    data = gen_dex_dataset(n_patients=10, seed=0, n_days=14)
    config = HybridCpConfig(m_y=4, m_x=4, hidden=(16, 16))
    model = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=config, seed=0)
    created = _count_tape_nodes(monkeypatch, ref.Tensor)
    de.value_and_grad(ref.on_tape(lambda t: ref.dataset_loss(model, t, data.units)), model.params)
    assert len(data.units) == 10 and data.units[0].factual.horizon == 15
    assert len(created) <= 1028


def _count_tape_nodes(monkeypatch, tensor=de.Tensor):
    """A list that grows by one with every ``tensor`` (or subclass)
    constructed from now on."""
    created = []
    tensor_init = tensor.__init__

    def counting_init(self, *args, **kwargs):
        created.append(1)
        tensor_init(self, *args, **kwargs)

    monkeypatch.setattr(tensor, "__init__", counting_init)
    return created


def test_training_builds_no_tape_node(monkeypatch):
    from odeguide.diffusion import DiffusionTrainConfig, make_denoiser, make_schedule, train_diffusion

    data = gen_dex_dataset(n_patients=3, seed=6, sigma=0.1, n_days=4, drop_measurements=True)
    model = make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=TINY, seed=0)
    denoiser = make_denoiser(horizon=3, d_x=1, hidden=(4,), seed=0)
    rows, cond = np.ones((5, 3)), np.ones((5, denoiser.cond_dim))
    config = DiffusionTrainConfig(epochs=2, batch_size=2)
    created = _count_tape_nodes(monkeypatch)
    train_hybrid(model, data)
    train_diffusion(denoiser, rows, cond, rows, np.ones(5), make_schedule(t_d=4), config)
    assert created == []


def _assert_adjoint_matches_the_tape(model, units):
    """``_loss_and_grad``'s loss is bitwise the tape rollout's and
    ``_dataset_loss``'s on arrays; every gradient is within 1e-12 of the
    tape's largest."""
    loss, grads = _loss_and_grad(model, model.params, _factual_batch(units))
    want = de.value_and_grad(ref.on_tape(lambda t: ref.dataset_loss(model, t, units)), model.params)
    assert loss == want.loss == float(_dataset_loss(model, dict(model.params.items()), units))
    scale = max(np.max(np.abs(g)) for g in want.gradient.values())
    assert sorted(grads) == sorted(want.gradient)
    for name, g in want.gradient.items():
        assert np.max(np.abs(grads[name] - g)) <= 1e-12 * scale, name


@pytest.mark.parametrize("case", sorted(CASES) + ["dex_full_model"])
def test_adjoint_gradient_matches_the_tape(case):
    model, units = CASES.get(case, _dex_full_model_case)()
    _assert_adjoint_matches_the_tape(model, units)


@pytest.mark.parametrize("activation", sorted(de._ACTIVATIONS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_adjoint_gradient_matches_the_tape_for_every_activation(case, activation):
    model, units = CASES[case]()
    config = replace(model.config, hidden=(4, 3), activation=activation)
    model = make_hybrid_model(model.family, model.expert_params, model.d_x, config, seed=1)
    _assert_adjoint_matches_the_tape(model, units)


class _DrivePerCall:
    """Stands in for the drive table: each stage evaluates ``drive`` at its
    own time, as the rollout did before the drive was tabulated."""

    def __init__(self, drive):
        self.drive = drive

    def __getitem__(self, key):
        return self.drive(key[0])


class _SameTime(dict):
    def __missing__(self, t):
        return t


@pytest.mark.parametrize("case", sorted(CASES))
def test_rollout_drive_table_equals_a_drive_call_per_stage_bitwise(case, monkeypatch):
    model, units = CASES[case]()
    tensors = {k: de.Tensor(v) for k, v in model.params.items()}
    times = units[0].factual.times
    # an irregular grid: step sizes differ between intervals
    for u in units:
        u.factual.times = times + 0.37 * np.arange(len(times)) ** 1.5
    y, x = _predict_arm(model, units, "factual")
    loss = _dataset_loss(model, tensors, units)
    monkeypatch.setattr(
        hybrid_cp, "tabulate_drive", lambda drive, *_: (_DrivePerCall(drive), _SameTime())
    )
    y_ref, x_ref = _predict_arm(model, units, "factual")
    np.testing.assert_array_equal(y, y_ref)
    np.testing.assert_array_equal(x, x_ref)
    assert float(loss.data) == float(_dataset_loss(model, tensors, units).data)


@pytest.mark.parametrize("case", sorted(CASES) + ["dex_full_model"])
def test_predict_equals_the_mlp_apply_rollout_bitwise(case):
    model, units = CASES.get(case, _dex_full_model_case)()
    inputs, *_ = _factual_batch(units)
    want = ref.rollout(model, dict(model.params.items()), *inputs)  # mlp_apply per call
    got = predict(model, *inputs)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
