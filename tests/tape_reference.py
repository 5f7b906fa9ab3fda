"""The reverse-mode autodiff tape: the reference the closed-form gradients of
``odeguide`` are tested against.

A ``Tensor`` records the operations applied to it on a tape; ``backward()``
replays the tape in reverse to obtain exact gradients. Only the primitives
the references below need are supported (elementwise arithmetic, softplus,
slicing, concatenation, sum), plus ``custom_vjp``: one node computed on
arrays with a hand-written vector-Jacobian product, on which the one-input
primitives are built. An MLP is one node too: ``mlp_apply`` runs
``mlp_forward`` and backpropagates with ``mlp_backward``. ``concat``,
``custom_vjp``, ``softplus`` and ``mlp_apply`` return plain arrays when no
operand is a Tensor. A node's backward step receives the node's gradient
and never refers to the node, so a node that the loss never reads is freed
by refcounting at once.

``Tensor`` subclasses ``diff_engine.Tensor``, so ``diff_engine.value_and_grad``
and ``grad_check`` differentiate a tape; ``on_tape`` lifts the leaves that
``ParamSet.as_tensors`` makes onto it.

The references: ``rollout`` and ``dataset_loss``, the hybrid predictor on the
tape, with the expert right-hand side as one node whose gradient is the
product with its closed-form Jacobian (``hybrid_cp._loss_and_grad``'s
reference); ``batch_loss``, the denoiser's batch loss
(``diffusion._batch_loss_and_grad``'s); and ``loss_cf`` and ``loss_f``, the
guidance losses (``guidance.grad_loss_cf``'s and ``grad_loss_f``'s).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from odeguide import diff_engine as de
from odeguide import hybrid_cp as hc
from odeguide.diffusion import _noised_inputs, _weighted_sse
from odeguide.guidance import FactualWindow
from odeguide.ode_core import rk4_update


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor(de.Tensor):
    """Array node on the autodiff tape; ``backward(g)`` gets its gradient."""

    __slots__ = ("_parents", "__weakref__")
    const = False  # True for ``_Constant``: no gradient flows into it
    # numpy operators defer to the reflected Tensor operator, so that
    # ``array * tensor`` records a tape node instead of an object array
    __array_ufunc__ = None

    def __init__(self, data, parents: tuple = (), backward: Callable | None = None):
        super().__init__(data, backward)
        self._parents = parents

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __len__(self) -> int:
        return len(self.data)

    # -- elementwise arithmetic ----------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)

        def back(g):
            for node in (self, other):
                if not node.const:
                    _accum(node, _unbroadcast(g, node.data.shape))

        return Tensor(self.data + other.data, (self, other), back)

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)

        def back(g):
            for node, factor in ((self, other), (other, self)):
                if not node.const:
                    _accum(node, _unbroadcast(g * factor.data, node.data.shape))

        return Tensor(self.data * other.data, (self, other), back)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        other = _as_tensor(other)

        def back(g):
            if not self.const:
                _accum(self, _unbroadcast(g, self.data.shape))
            if not other.const:
                _accum(other, -_unbroadcast(g, other.data.shape))

        return Tensor(self.data - other.data, (self, other), back)

    def __truediv__(self, other):
        other = _as_tensor(other)

        def back(g):
            if not self.const:
                _accum(self, _unbroadcast(g / other.data, self.data.shape))
            if not other.const:
                _accum(other, _unbroadcast(-g * self.data / other.data**2, other.data.shape))

        return Tensor(self.data / other.data, (self, other), back)

    def __rtruediv__(self, other):
        return _as_tensor(other) / self

    def __pow__(self, exponent: float):
        return custom_vjp(
            self.data**exponent, self, lambda g: g * exponent * self.data ** (exponent - 1)
        )

    def __getitem__(self, idx):
        def vjp(g):
            full = np.zeros_like(self.data)
            np.add.at(full, idx, g)
            return full

        return custom_vjp(self.data[idx], self, vjp)

    # -- reductions and shape ------------------------------------------

    def sum(self, axis=None):
        def vjp(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return np.broadcast_to(g, self.data.shape).copy()

        return custom_vjp(self.data.sum(axis=axis), self, vjp)

    def reshape(self, *shape):
        return custom_vjp(self.data.reshape(*shape), self, lambda g: g.reshape(self.data.shape))

    # -- nonlinearities -------------------------------------------------

    def softplus(self):
        return softplus(self)

    # -- backward pass --------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(node) into ``grad`` of every node on the tape.
        The tape is consumed: a second call finds no backward steps left."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            back, node._backward = node._backward, None
            if back is not None and node.grad is not None:
                back(node.grad)


class _Constant(Tensor):
    """A non-Tensor operand: backward neither computes nor stores its gradient."""

    __slots__ = ()
    const = True


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else _Constant(x)


def _accum(node: de.Tensor, grad: np.ndarray) -> None:
    if getattr(node, "const", False):
        return
    if node.grad is None:
        node.grad = grad
    else:
        node.grad = node.grad + grad


def on_tape(f):
    """``f(tensors, *inputs)`` for ``diff_engine`` leaves, such as
    ``ParamSet.as_tensors`` makes: each leaf enters the tape as one tape leaf
    whose backward step hands it the gradient the tape leaf got."""

    def lifted(tensors, *inputs):
        lift = lambda leaf: Tensor(leaf.data, (), lambda g: _accum(leaf, g))
        return f({k: lift(t) for k, t in tensors.items()}, *inputs)

    return lifted


def concat(parts: Sequence, axis: int = -1):
    """Concatenate tensors/arrays along ``axis``. With no Tensor among the
    parts this is ``np.concatenate``; beside a Tensor, scalars count as 1-D."""
    if not any(isinstance(p, Tensor) for p in parts):
        return np.concatenate(parts, axis=axis)
    datas = [np.atleast_1d(p.data if isinstance(p, Tensor) else p) for p in parts]
    data = np.concatenate(datas, axis=axis)
    tensors = tuple(_as_tensor(p) for p in parts)
    bounds = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def back(g):
        for t, piece in zip(tensors, np.split(g, bounds, axis=axis)):
            _accum(t, piece.reshape(t.data.shape))

    return Tensor(data, tensors, back)


def custom_vjp(data, parent, vjp: Callable):
    """One node whose value ``data`` was computed from ``parent.data`` off
    the tape; ``vjp(g)`` maps the gradient ``g`` of the result to the
    gradient of ``parent``. A ``parent`` that is no Tensor gives ``data``."""
    if not isinstance(parent, Tensor):
        return data
    return Tensor(data, (parent,), lambda g: _accum(parent, vjp(g)))


def softplus(x):
    """log(1 + e^x), computed stably; its derivative is sigmoid(x)."""
    z = x.data if isinstance(x, Tensor) else x
    return custom_vjp(np.logaddexp(0.0, z), x, lambda g: g / (1.0 + np.exp(-z)))


def mlp_apply(spec: de.MlpSpec, params, x, prefix: str = ""):
    """Forward pass on (..., n_in) input: ``mlp_forward``'s last layer.

    With a Tensor input or any Tensor parameter the result is one tape
    node, whose backward pass is ``mlp_backward``.
    """
    in_width = x.shape[-1] if getattr(x, "shape", ()) else 1
    if in_width != spec.n_in:
        raise ValueError(f"input width {in_width} does not match layer 0 width {spec.n_in}")
    operands = [x]
    for i in range(len(spec.activations)):
        operands += [params[f"{prefix}W{i}"], params[f"{prefix}b{i}"]]
    arrays = [np.asarray(v.data if isinstance(v, Tensor) else v, float) for v in operands]
    Ws = arrays[1::2]
    hs = de.mlp_forward(spec, Ws, arrays[2::2], arrays[0].reshape(-1, spec.n_in))
    out = hs[-1].reshape(*arrays[0].shape[:-1], spec.n_out)
    if not any(isinstance(v, Tensor) for v in operands):
        return out
    nodes = tuple(_as_tensor(v) for v in operands)

    def back(g):
        dWs, dbs, dx = de.mlp_backward(spec, Ws, hs, g.reshape(-1, spec.n_out), not nodes[0].const)
        for node, grad in zip(nodes[1::2] + nodes[2::2], dWs + dbs):
            _accum(node, grad)
        if dx is not None:
            _accum(nodes[0], dx.reshape(arrays[0].shape))

    return Tensor(out, nodes, back)


# -- the hybrid predictor on the tape -------------------------------------


def normalize_expert_state(raw, family: str, expert_params):
    """``hybrid_cp.normalize_expert_state`` on the tape."""
    pos = softplus(raw)
    if family == "SEIRM":
        total = pos.sum(axis=-1)
        return pos * (expert_params.N / total.reshape(*total.shape, 1))
    return pos


def expert_rhs(model: hc.HybridCpModel, ze, drive):
    """``hybrid_cp.expert_rhs``; a Tensor ``ze`` gives one tape node whose
    gradient is the product with the closed-form Jacobian."""
    z = ze.data if isinstance(ze, Tensor) else ze
    dze = hc.expert_rhs(model, z, drive)
    vjp = lambda g: np.einsum("...i,...ij->...j", g, hc._expert_jacobian(model, z, drive))
    return custom_vjp(dze, ze, vjp)


def rollout(model: hc.HybridCpModel, params, x0, a0, y0, a_seq, times, treatments):
    """``hybrid_cp.rollout`` with every MLP evaluated by ``mlp_apply``: on
    the tape given Tensor parameters, on arrays otherwise."""
    a_seq = np.asarray(a_seq, float)
    if a_seq.shape[1] != len(times):
        raise ValueError("treatment sequence must cover the grid")
    dts, drive_at = hc._drive_table(model, times, treatments)
    my, e = model.config.m_y, model.e_dim
    mlp = lambda name, v: mlp_apply(model.specs[name], params, v, prefix=f"{name}_")

    def readout(zy, zx, ze, a_t):
        return mlp("gy", concat([ze, zy, zx, a_t])), mlp("gx", concat([zx, a_t]))

    a0 = np.asarray(a0, float)[:, None]
    y0 = np.asarray(y0, float)[:, None]
    obs = np.concatenate([np.asarray(x0, float), a0, y0], axis=1)
    zx = mlp("gxi", obs)
    zy = mlp("gzeta", concat([zx, a0, y0]))
    ze = normalize_expert_state(mlp("geta", obs), model.family, model.expert_params)
    z = concat([zy, ze, zx])
    y_out, x_out = readout(zy, zx, ze, a_seq[:, :1])
    ys, xs = [y_out], [x_out]
    zy_lag = zy
    for k in range(len(times) - 1):
        zy_start = zy
        a_t = a_seq[:, k : k + 1]

        def rhs(z, t):
            dzy = mlp("fy", concat([z, a_t]))
            dzx = mlp("fx", concat([z[:, my + e :], zy_lag, a_t]))
            dze = expert_rhs(model, z[:, my : my + e], drive_at(t))
            return concat([dzy, dze, dzx])

        z, _ = rk4_update(rhs, z, times[k], dts[k])
        zy, ze, zx = z[:, :my], z[:, my : my + e], z[:, my + e :]
        zy_lag = zy_start
        y_out, x_out = readout(zy, zx, ze, a_seq[:, k + 1 : k + 2])
        ys.append(y_out)
        xs.append(x_out)
    return concat(ys), concat(xs).reshape(len(treatments), len(times), model.d_x)


def dataset_loss(model: hc.HybridCpModel, tensors, units):
    """``hybrid_cp._dataset_loss`` over one tape ``rollout``."""
    inputs, *target = hc._factual_batch(units)
    return hc._mse(*rollout(model, tensors, *inputs), *target)


# -- the denoiser and the guidance losses on the tape ----------------------


def batch_loss(tensors, model, schedule, y0, cond, mask, weights, taus, eps, embeds=None):
    """``diffusion._batch_loss_fn`` with the denoiser as one tape node."""
    y_tau, inputs = _noised_inputs(model, schedule, y0, cond, taus, eps, embeds)
    y0_hat = mlp_apply(model.spec, tensors, inputs, prefix="den_") + y_tau
    return _weighted_sse(y0_hat, y0, mask, weights * schedule.loss_weights[taus - 1])


def _finite_diff(rel):
    return concat([rel[..., 1:] - rel[..., :-1], rel[..., -1:] - rel[..., -2:-1]])


def loss_cf(y0_hat, y0_factual, signals, config):
    """``guidance.loss_cf`` on the tape, for one (T,) row."""
    gen_rel = y0_hat - np.asarray(y0_factual, float)
    exp_rel = np.asarray(signals.f_cf, float) - np.asarray(signals.f_f, float)
    total = None
    if config.use_value:
        val = gen_rel - exp_rel
        total = (val * val).sum()
    if config.use_direction:
        dirv = _finite_diff(gen_rel) - _finite_diff(exp_rel)
        term = (dirv * dirv).sum()
        total = term if total is None else total + term
    if total is None:
        total = (y0_hat * 0.0).sum()
    return total


def loss_f(y0_hat, y0_factual, window: FactualWindow):
    """``guidance.loss_f`` on the tape, for one (T,) row."""
    idx = np.flatnonzero(window.checked_mask(len(y0_hat))).tolist()
    diff = y0_hat[idx] - np.asarray(y0_factual, float)[idx]
    return (diff * diff).sum()
