import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeguide import diff_engine as de
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


# -- Adam ---------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    ps = ParamSet({"w": np.array([1.0, 2.0])})
    out, _ = adam_step(ps, {"w": np.zeros(2)}, AdamState(), lr=0.1)
    assert np.array_equal(out["w"], ps["w"])


def test_adam_first_step_magnitude_and_sign():
    ps = ParamSet({"w": np.array([1.0])})
    out, _ = adam_step(ps, {"w": np.array([2.5])}, AdamState(), lr=0.1)
    assert out["w"][0] == pytest.approx(1.0 - 0.1, abs=1e-6)


def _adam_step_per_parameter(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """``adam_step`` as it was before it flattened the parameters: one
    update per named array, moments kept in per-name dicts."""
    state["t"] += 1
    updates = {}
    for name, value in params.items():
        g = grads[name]
        m = state["m"].get(name, np.zeros_like(value))
        v = state["v"].get(name, np.zeros_like(value))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g**2
        state["m"][name] = m
        state["v"][name] = v
        m_hat = m / (1 - beta1 ** state["t"])
        v_hat = v / (1 - beta2 ** state["t"])
        updates[name] = value - lr * m_hat / (np.sqrt(v_hat) + eps)
    return ParamSet(updates)


def test_flat_adam_equals_the_per_parameter_loop_bitwise():
    rng = np.random.default_rng(5)
    shapes = {"W0": (3, 4), "b0": (4,), "s": (), "k": (2, 1, 3), "b1": (1,)}
    flat = ParamSet({k: rng.standard_normal(shape) for k, shape in shapes.items()})
    ref = flat
    state, ref_state = AdamState(), {"m": {}, "v": {}, "t": 0}
    for step in range(6):
        # gradients of mixed scale, with exact zeros in some steps
        grads = {k: rng.standard_normal(s) * 10.0 ** rng.integers(-6, 4) for k, s in shapes.items()}
        if step % 3 == 2:
            grads["b0"] = np.zeros(4)
        flat, state = adam_step(flat, grads, state, lr=0.01 * (step + 1))
        ref = _adam_step_per_parameter(ref, grads, ref_state, lr=0.01 * (step + 1))
        assert flat.names() == ref.names()
        for name in shapes:
            assert flat[name].shape == shapes[name]
            np.testing.assert_array_equal(flat[name], ref[name])
    assert state.t == ref_state["t"] == 6
    with pytest.raises(ValueError, match="gradient shape mismatch for 'b0'"):
        adam_step(flat, {**grads, "b0": np.zeros(5)}, state, lr=0.1)


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


def _mixed_constant_loss(tensors, wrap):
    """A loss whose operands include scalar and array constants, each
    passed through ``wrap``: identity leaves them to the engine, ``Tensor``
    makes each one a tape leaf whose gradient is computed."""
    rng = np.random.default_rng(8)
    x, scale = rng.standard_normal((5, 3)), rng.uniform(0.5, 2.0, (1, 4))
    w, b, c = tensors["w"], tensors["b"], tensors["c"]
    # an array has no reflected ``@`` onto a Tensor, so x is wrapped here
    h = (Tensor(x) if wrap is Tensor else de._as_tensor(x)) @ w + b
    h = h * wrap(0.5) + wrap(scale) * h.tanh() - wrap(1.5)
    h = h / (wrap(2.0) + c * c) + wrap(3.0) / (h * h + wrap(1.0))
    h = wrap(0.25) - h * wrap(scale) + concat([h[:, :2], wrap(x[:, :2])]) * c
    return (h @ w.reshape(4, 3) * wrap(rng.standard_normal(3))).sum() + (b * wrap(2.0)).sum()


def _tape_nodes(root):
    nodes, stack, seen = [], [root], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_constants_get_no_gradient_and_parameter_gradients_are_unchanged():
    rng = np.random.default_rng(9)
    shapes = {"w": (3, 4), "b": (4,), "c": (1, 4)}
    params = ParamSet({k: rng.standard_normal(s) for k, s in shapes.items()})
    ref_tensors = params.as_tensors()
    ref_root = _mixed_constant_loss(ref_tensors, Tensor)
    ref_leaves = [n for n in _tape_nodes(ref_root) if not n._parents]
    _backward_keeping_tape(ref_root)
    # the reference computes a gradient for every leaf it was given (the
    # operators' own constants, such as the -1 of a negation, aside)
    given = [n for n in ref_leaves if not n.const]
    assert all(n.grad is not None for n in given) and len(given) - len(ref_tensors) >= 10

    tensors = params.as_tensors()
    root = _mixed_constant_loss(tensors, lambda v: v)
    constants = [n for n in _tape_nodes(root) if n.const]
    assert len(constants) == len(ref_leaves) - len(tensors)
    root.backward()
    assert all(n.grad is None for n in constants)
    assert float(root.data) == float(ref_root.data)
    for name, t in tensors.items():
        np.testing.assert_array_equal(t.grad, ref_tensors[name].grad)


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
