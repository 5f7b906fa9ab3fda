import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeguide.diff_engine import (
    AdamState,
    MlpSpec,
    ParamSet,
    Tensor,
    adam_step,
    concat,
    grad_check,
    init_mlp_params,
    mlp_apply,
    timestep_embedding,
    value_and_grad,
)


def _numeric_grad(f, x, eps=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        hi, lo = x.copy(), x.copy()
        hi.flat[i] += eps
        lo.flat[i] -= eps
        g.flat[i] = (f(hi) - f(lo)) / (2 * eps)
    return g


@pytest.mark.parametrize(
    "expr",
    [
        lambda t: (t * t).sum(),
        lambda t: (t + 2.0).sum(),
        lambda t: (t / 3.0).sum(),
        lambda t: (2.0 / (t + 5.0)).sum(),
        lambda t: (t**3.0).sum(),
        lambda t: t.tanh().sum(),
        lambda t: t.relu().sum(),
        lambda t: t.sigmoid().sum(),
        lambda t: t.softplus().sum(),
        lambda t: t.exp().sum(),
        lambda t: (-t).square().mean(),
        lambda t: t.reshape(2, 3).sum(axis=0).square().sum(),
        lambda t: t[[0, 2, 4]].square().sum(),
        lambda t: concat([t[[0, 1]], t[[3]]]).square().sum(),
    ],
)
def test_elementwise_gradients_match_numeric(expr):
    x = np.array([0.3, -1.2, 0.7, 2.1, -0.4, 1.5])
    t = Tensor(x.copy())
    out = expr(t)
    out.backward()
    numeric = _numeric_grad(lambda v: float(expr(Tensor(v)).data), x)
    assert np.allclose(t.grad, numeric, atol=1e-6)


def test_matmul_gradient_matches_numeric():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((3, 4))
    x = rng.standard_normal(4)
    ta, tx = Tensor(A.copy()), Tensor(x.copy())
    (ta @ tx).square().sum().backward()
    na = _numeric_grad(lambda v: float((Tensor(v) @ Tensor(x)).square().sum().data), A)
    nx = _numeric_grad(lambda v: float((Tensor(A) @ Tensor(v)).square().sum().data), x)
    assert np.allclose(ta.grad, na, atol=1e-6)
    assert np.allclose(tx.grad, nx, atol=1e-6)


def test_broadcast_add_unbroadcasts_gradient():
    a = Tensor(np.ones((4, 3)))
    b = Tensor(np.ones(3))
    (a + b).sum().backward()
    assert a.grad.shape == (4, 3)
    assert b.grad.shape == (3,)
    assert np.array_equal(b.grad, [4.0, 4.0, 4.0])


def test_getitem_scatter_accumulates_repeats():
    t = Tensor(np.array([1.0, 2.0, 3.0]))
    t[[0, 0, 2]].sum().backward()
    assert np.array_equal(t.grad, [2.0, 0.0, 1.0])


def test_square_root_of_loss_simple():
    t = Tensor(np.array([3.0]))
    (t * t).sum().backward()
    assert t.grad[0] == pytest.approx(6.0)


def test_constant_expression_zero_gradient():
    t = Tensor(np.array([1.0, 2.0]))
    (t * 0.0 + 5.0).sum().backward()
    assert np.array_equal(t.grad, [0.0, 0.0])


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.array([1.0, 2.0])).backward()


# -- MLP ----------------------------------------------------------------


def test_zero_weight_mlp_outputs_activated_bias():
    spec = MlpSpec.make(3, 2, (4,), act="tanh")
    params = {k: np.zeros_like(v) for k, v in init_mlp_params(spec, np.random.default_rng(0)).items()}
    out = mlp_apply(spec, params, np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(out, [0.0, 0.0])  # final layer is linear with zero bias


def test_identity_single_layer():
    spec = MlpSpec.make(3, 3, (), act="tanh")
    params = init_mlp_params(spec, np.random.default_rng(0))
    name_w = [k for k in params if k.endswith("W0")][0]
    name_b = [k for k in params if k.endswith("b0")][0]
    params[name_w] = np.eye(3)
    params[name_b] = np.zeros(3)
    x = np.array([0.1, -0.5, 2.0])
    assert np.array_equal(mlp_apply(spec, params, x), x)


def test_mlp_matches_manual_matrix_arithmetic():
    spec = MlpSpec.make(2, 1, (3, 3), act="tanh")
    params = init_mlp_params(spec, np.random.default_rng(7), prefix="m_")
    x = np.array([0.4, -1.1])
    h = np.tanh(x @ params["m_W0"] + params["m_b0"])
    h = np.tanh(h @ params["m_W1"] + params["m_b1"])
    manual = h @ params["m_W2"] + params["m_b2"]
    assert np.allclose(mlp_apply(spec, params, x, prefix="m_"), manual, atol=1e-14)


def test_mlp_batched_rows_match_single_rows():
    spec = MlpSpec.make(3, 2, (5,), act="relu")
    params = init_mlp_params(spec, np.random.default_rng(1))
    X = np.random.default_rng(2).standard_normal((4, 3))
    batched = mlp_apply(spec, params, X)
    singles = np.stack([mlp_apply(spec, params, row) for row in X])
    assert np.allclose(batched, singles, atol=1e-14)


def test_random_mlp_grad_check():
    spec = MlpSpec.make(4, 2, (6, 6), act="tanh")
    params = ParamSet(init_mlp_params(spec, np.random.default_rng(3)))
    x = np.random.default_rng(4).standard_normal(4)

    def loss(tensors):
        out = mlp_apply(spec, tensors, x)
        return (out * out).sum()

    assert grad_check(loss, params) <= 1e-4


def test_grad_check_linear_function_tight():
    params = ParamSet({"w": np.array([1.0, -2.0, 0.5])})
    assert grad_check(lambda t: (t["w"] * 3.0).sum(), params) <= 1e-10


def test_grad_check_quadratic_tight():
    params = ParamSet({"w": np.array([1.0, -2.0])})
    assert grad_check(lambda t: t["w"].square().sum(), params) <= 1e-8


# -- ParamSet -----------------------------------------------------------


def test_paramset_json_round_trip_exact():
    rng = np.random.default_rng(11)
    ps = ParamSet({"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)})
    back = ParamSet.from_json(ps.to_json())
    for name in ps.names():
        assert np.array_equal(ps[name], back[name])
        assert ps[name].dtype == back[name].dtype


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), min_size=1, max_size=8))
def test_paramset_round_trip_arbitrary_floats(values):
    ps = ParamSet({"v": np.array(values, dtype=np.float64)})
    back = ParamSet.from_json(ps.to_json())
    assert np.array_equal(ps["v"], back["v"])


def test_paramset_to_json_is_stable():
    ps = ParamSet({"b": np.array([1.0]), "a": np.array([2.0])})
    assert ps.to_json() == ps.to_json()
    assert list(json.loads(ps.to_json())) == sorted(json.loads(ps.to_json()))


def test_paramset_replace_checks_shapes():
    ps = ParamSet({"a": np.zeros((2, 2))})
    with pytest.raises(ValueError):
        ps.replace({"a": np.zeros(3)})


# -- Adam ---------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    ps = ParamSet({"w": np.array([1.0, 2.0])})
    out, _ = adam_step(ps, {"w": np.zeros(2)}, AdamState(), lr=0.1)
    assert np.array_equal(out["w"], ps["w"])


def test_adam_first_step_magnitude_and_sign():
    ps = ParamSet({"w": np.array([1.0])})
    out, _ = adam_step(ps, {"w": np.array([2.5])}, AdamState(), lr=0.1)
    assert out["w"][0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def test_adam_two_steps_decrease_quadratic():
    ps = ParamSet({"w": np.array([1.0])})
    state = AdamState()
    losses = []
    for _ in range(2):
        rec = value_and_grad(lambda t: t["w"].square().sum(), ps)
        losses.append(rec.loss)
        ps, state = adam_step(ps, rec.gradient, state, lr=0.1)
    final = value_and_grad(lambda t: t["w"].square().sum(), ps).loss
    assert final < losses[1] < losses[0]


# -- timestep embedding -------------------------------------------------


def test_timestep_embedding_shape_and_range():
    emb = timestep_embedding(7, 50, n_freq=8)
    assert emb.shape == (16,)
    assert np.all(np.abs(emb) <= 1.0)


def test_timestep_embedding_distinguishes_steps():
    embs = [timestep_embedding(tau, 50) for tau in range(1, 51)]
    for i in range(len(embs)):
        for j in range(i + 1, len(embs)):
            assert not np.allclose(embs[i], embs[j])


def _backward_keeping_tape(root):
    """``Tensor.backward`` as it was before the tape was consumed: the same
    traversal and accumulation order, every closure left in place."""
    topo, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward()


def test_backward_frees_the_tape_without_the_cyclic_gc():
    import gc
    import weakref

    spec = MlpSpec.make(3, 2, (5, 4))
    params = ParamSet(init_mlp_params(spec, np.random.default_rng(0)))
    x = np.random.default_rng(1).standard_normal((6, 3))
    interior = []

    def f(tensors, x):
        h = mlp_apply(spec, tensors, x)
        interior.append(weakref.ref(h))
        return (h * h).sum()

    tensors = params.as_tensors()
    _backward_keeping_tape(f(tensors, x))
    want = {k: t.grad for k, t in tensors.items()}
    enabled = gc.isenabled()
    gc.disable()
    try:
        interior.clear()
        record = value_and_grad(f, params, x)
        assert interior[0]() is None, "tape node outlived value_and_grad"
    finally:
        if enabled:
            gc.enable()
    for k in want:
        np.testing.assert_array_equal(record.gradient[k], want[k])


def test_mlp_apply_on_arrays_is_row_invariant_and_matches_the_tensor_forward():
    spec = MlpSpec.make(7, 3, (16, 16), act="relu")
    params = ParamSet(init_mlp_params(spec, np.random.default_rng(2)))
    x = np.random.default_rng(3).standard_normal((9, 7))
    rows = mlp_apply(spec, params, x)
    tape = mlp_apply(spec, params.as_tensors(), x)
    assert isinstance(tape, Tensor)
    np.testing.assert_allclose(rows, tape.data, rtol=1e-12, atol=1e-15)
    for r in range(1, 9):
        np.testing.assert_array_equal(mlp_apply(spec, params, x[:r]), rows[:r])
    np.testing.assert_array_equal(mlp_apply(spec, params, x[4]), rows[4])
    np.testing.assert_array_equal(mlp_apply(spec, params, x.reshape(3, 3, 7)), rows.reshape(3, 3, 3))
    with pytest.raises(ValueError, match="input width"):
        mlp_apply(spec, params, x[:, :6])
