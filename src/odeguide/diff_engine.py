"""Minimal reverse-mode gradient engine and small MLP function approximators.

Everything runs on float64 numpy arrays. A ``Tensor`` records the operations
applied to it on a tape; ``backward()`` replays the tape in reverse to obtain
exact gradients. Only the primitives needed by the rest of the package are
supported (affine maps, elementwise arithmetic, tanh/relu/sigmoid/softplus,
exp, slicing, concatenation, sum, square).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "TrainingError",
    "Tensor",
    "ParamSet",
    "MlpSpec",
    "GradRecord",
    "AdamState",
    "concat",
    "init_mlp_params",
    "mlp_apply",
    "value_and_grad",
    "adam_step",
    "grad_check",
    "timestep_embedding",
    "tanh",
    "relu",
    "sigmoid",
    "softplus",
]


class TrainingError(RuntimeError):
    """A training loop met a non-finite loss."""


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


class Tensor:
    """Array node on the autodiff tape."""

    __slots__ = ("data", "grad", "_parents", "_backward", "__weakref__")
    const = False  # True for ``_Constant``: no gradient flows into it
    # numpy operators defer to the reflected Tensor operator, so that
    # ``array * tensor`` records a tape node instead of an object array
    __array_ufunc__ = None

    def __init__(self, data, parents: tuple = (), backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    # -- elementwise arithmetic ----------------------------------------

    def __add__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def back():
            for node in (self, other):
                if not node.const:
                    _accum(node, _unbroadcast(out.grad, node.data.shape))

        out._backward = back
        return out

    __radd__ = __add__

    def __mul__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def back():
            for node, factor in ((self, other), (other, self)):
                if not node.const:
                    _accum(node, _unbroadcast(out.grad * factor.data, node.data.shape))

        out._backward = back
        return out

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-_as_tensor(other))

    def __rsub__(self, other):
        return _as_tensor(other) + (-self)

    def __truediv__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data / other.data, (self, other))

        def back():
            if not self.const:
                _accum(self, _unbroadcast(out.grad / other.data, self.data.shape))
            if not other.const:
                _accum(other, _unbroadcast(-out.grad * self.data / other.data**2, other.data.shape))

        out._backward = back
        return out

    def __rtruediv__(self, other):
        return _as_tensor(other) / self

    def __pow__(self, exponent: float):
        out = Tensor(self.data**exponent, (self,))

        def back():
            _accum(self, out.grad * exponent * self.data ** (exponent - 1))

        out._backward = back
        return out

    def __matmul__(self, other):
        other = _as_tensor(other)
        out = Tensor(self.data @ other.data, (self, other))

        def back():
            a, b, g = self.data, other.data, out.grad
            if a.ndim == 1 and b.ndim == 2:
                _accum(self, g @ b.T)
                _accum(other, np.outer(a, g))
            elif a.ndim == 2 and b.ndim == 2:
                if not self.const:
                    _accum(self, g @ b.T)
                if not other.const:
                    _accum(other, a.T @ g)
            elif a.ndim == 2 and b.ndim == 1:
                _accum(self, np.outer(g, b))
                _accum(other, a.T @ g)
            else:  # 1-D @ 1-D inner product
                _accum(self, g * b)
                _accum(other, g * a)

        out._backward = back
        return out

    def __getitem__(self, idx):
        out = Tensor(self.data[idx], (self,))

        def back():
            g = np.zeros_like(self.data)
            np.add.at(g, idx, out.grad)
            _accum(self, g)

        out._backward = back
        return out

    # -- reductions and shape ------------------------------------------

    def sum(self, axis=None):
        out = Tensor(self.data.sum(axis=axis), (self,))

        def back():
            g = out.grad
            if axis is not None:
                g = np.expand_dims(g, axis)
            _accum(self, np.broadcast_to(g, self.data.shape).copy())

        out._backward = back
        return out

    def mean(self, axis=None):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / n)

    def reshape(self, *shape):
        out = Tensor(self.data.reshape(*shape), (self,))

        def back():
            _accum(self, out.grad.reshape(self.data.shape))

        out._backward = back
        return out

    def square(self):
        return self * self

    # -- nonlinearities -------------------------------------------------

    def tanh(self):
        y = np.tanh(self.data)
        out = Tensor(y, (self,))

        def back():
            _accum(self, out.grad * (1.0 - y**2))

        out._backward = back
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), (self,))

        def back():
            _accum(self, out.grad * (self.data > 0.0))

        out._backward = back
        return out

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))
        out = Tensor(y, (self,))

        def back():
            _accum(self, out.grad * y * (1.0 - y))

        out._backward = back
        return out

    def softplus(self):
        # log(1 + e^x), computed stably; derivative is sigmoid(x)
        y = np.logaddexp(0.0, self.data)
        out = Tensor(y, (self,))

        def back():
            _accum(self, out.grad / (1.0 + np.exp(-self.data)))

        out._backward = back
        return out

    def exp(self):
        y = np.exp(self.data)
        out = Tensor(y, (self,))

        def back():
            _accum(self, out.grad * y)

        out._backward = back
        return out

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
            # each closure refers to its own node, a reference cycle; dropping
            # it once run lets refcounting free the tape without the cyclic GC
            back, node._backward = node._backward, None
            if back is not None and node.grad is not None:
                back()

    def __repr__(self):
        return f"Tensor({self.data!r})"


class _Constant(Tensor):
    """A non-Tensor operand: backward neither computes nor stores its gradient."""

    __slots__ = ()
    const = True


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else _Constant(x)


def _accum(node: Tensor, grad: np.ndarray) -> None:
    if node.const:
        return
    if node.grad is None:
        node.grad = grad
    else:
        node.grad = node.grad + grad


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    """Concatenate tensors/arrays along ``axis``; scalars count as 1-D."""
    tensors = [_as_tensor(p) for p in parts]
    datas = [np.atleast_1d(t.data) for t in tensors]
    out = Tensor(np.concatenate(datas, axis=axis), tuple(tensors))
    bounds = np.cumsum([d.shape[axis] for d in datas])[:-1]

    def back():
        for t, piece in zip(tensors, np.split(out.grad, bounds, axis=axis)):
            _accum(t, piece.reshape(t.data.shape))

    out._backward = back
    return out


# -- generic math helpers that accept Tensor or ndarray ----------------


def tanh(x):
    return x.tanh() if isinstance(x, Tensor) else np.tanh(x)


def relu(x):
    return x.relu() if isinstance(x, Tensor) else np.maximum(x, 0.0)


def sigmoid(x):
    return x.sigmoid() if isinstance(x, Tensor) else 1.0 / (1.0 + np.exp(-x))


def softplus(x):
    return x.softplus() if isinstance(x, Tensor) else np.logaddexp(0.0, x)


def _identity(x):
    return x


_ACTIVATIONS: dict[str, Callable] = {
    "tanh": tanh,
    "relu": relu,
    "sigmoid": sigmoid,
    "identity": _identity,
}


# -- parameter containers ----------------------------------------------


class ParamSet:
    """Named float64 tensors with immutable shapes."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        self._arrays = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def names(self) -> list[str]:
        return list(self._arrays)

    def items(self):
        return self._arrays.items()

    def as_tensors(self) -> dict[str, Tensor]:
        return {k: Tensor(v) for k, v in self._arrays.items()}

    # -- lossless serialization ----------------------------------------

    def to_json(self) -> str:
        payload = {
            k: {"shape": list(v.shape), "values": [float(x) for x in v.ravel()]}
            for k, v in self._arrays.items()
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ParamSet":
        payload = json.loads(text)
        arrays = {
            k: np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
            for k, entry in payload.items()
        }
        return cls(arrays)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "ParamSet":
        with open(path) as fh:
            return cls.from_json(fh.read())


@dataclass(frozen=True)
class MlpSpec:
    """Layer widths (input, hidden..., output) and one activation per layer."""

    widths: tuple[int, ...]
    activations: tuple[str, ...]

    def __post_init__(self):
        if len(self.widths) < 2:
            raise ValueError("MlpSpec needs at least one layer")
        if len(self.activations) != len(self.widths) - 1:
            raise ValueError("one activation per layer required")
        for act in self.activations:
            if act not in _ACTIVATIONS:
                raise ValueError(f"unsupported activation {act!r}")

    @classmethod
    def make(cls, n_in: int, n_out: int, hidden: Sequence[int], act: str = "tanh") -> "MlpSpec":
        widths = (n_in, *hidden, n_out)
        activations = tuple([act] * len(hidden) + ["identity"])
        return cls(widths, activations)

    @property
    def n_in(self) -> int:
        return self.widths[0]

    @property
    def n_out(self) -> int:
        return self.widths[-1]


def init_mlp_params(spec: MlpSpec, rng: np.random.Generator, prefix: str = "") -> dict[str, np.ndarray]:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] weight/bias init."""
    arrays: dict[str, np.ndarray] = {}
    for i, (fan_in, fan_out) in enumerate(zip(spec.widths[:-1], spec.widths[1:])):
        bound = 1.0 / np.sqrt(fan_in)
        arrays[f"{prefix}W{i}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        arrays[f"{prefix}b{i}"] = rng.uniform(-bound, bound, size=(fan_out,))
    return arrays


def mlp_apply(spec: MlpSpec, params, x, prefix: str = ""):
    """Forward pass on (..., n_in) input.

    With a Tensor input or Tensor parameters it records the tape. On plain
    arrays it computes each row through ``np.einsum``: BLAS products are not
    batch-size invariant (a row can differ in the last bits between gemv and
    gemm, and between gemm sizes), while the einsum loop computes every row
    the same way, so a row's output depends only on that row.
    """
    in_width = x.shape[-1] if getattr(x, "shape", ()) else 1
    if in_width != spec.n_in:
        raise ValueError(f"input width {in_width} does not match layer 0 width {spec.n_in}")
    if not (isinstance(x, Tensor) or isinstance(params[f"{prefix}W0"], Tensor)):
        h = np.asarray(x, float)
        lead = h.shape[:-1]
        h = h.reshape(-1, spec.n_in)
        for i, act in enumerate(spec.activations):
            h = np.einsum("ij,jk->ik", h, params[f"{prefix}W{i}"]) + params[f"{prefix}b{i}"]
            h = _ACTIVATIONS[act](h)
        return h.reshape(*lead, spec.n_out)
    h = x
    for i, act in enumerate(spec.activations):
        W, b = params[f"{prefix}W{i}"], params[f"{prefix}b{i}"]
        h = _ACTIVATIONS[act](_as_tensor(h) @ _as_tensor(W) + _as_tensor(b))
    return h


# -- gradients and optimization ----------------------------------------


@dataclass
class GradRecord:
    loss: float
    gradient: dict[str, np.ndarray]


def value_and_grad(f, params: ParamSet, *inputs) -> GradRecord:
    """Evaluate ``f(tensor_params, *inputs)`` and backpropagate."""
    tensors = params.as_tensors()
    loss = f(tensors, *inputs)
    if not isinstance(loss, Tensor):
        raise TypeError("f must return a Tensor scalar")
    loss.backward()
    grads = {
        k: (t.grad if t.grad is not None else np.zeros_like(t.data))
        for k, t in tensors.items()
    }
    return GradRecord(loss=float(loss.data), gradient=grads)


@dataclass
class AdamState:
    # moments of all parameters flattened in name order; None before step 1
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def adam_step(
    params: ParamSet,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ParamSet, AdamState]:
    """Adam on all parameters as one flat vector; elementwise, so bitwise per array."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    names = params.names()
    for name in names:
        if grads[name].shape != params[name].shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
    value = np.concatenate([params[name].ravel() for name in names])
    g = np.concatenate([grads[name].ravel() for name in names])
    if state.m is None:
        state.m, state.v = np.zeros_like(value), np.zeros_like(value)
    state.t += 1
    state.m = beta1 * state.m + (1 - beta1) * g
    state.v = beta2 * state.v + (1 - beta2) * g**2
    m_hat = state.m / (1 - beta1**state.t)
    v_hat = state.v / (1 - beta2**state.t)
    flat = value - lr * m_hat / (np.sqrt(v_hat) + eps)
    pieces = np.split(flat, np.cumsum([params[name].size for name in names])[:-1])
    return ParamSet({n: p.reshape(params[n].shape) for n, p in zip(names, pieces)}), state


def grad_check(f, params: ParamSet, eps: float = 1e-5, *inputs) -> float:
    """Max relative error between analytic and central-difference gradients."""
    if not (0 < eps <= 1e-2):
        raise ValueError("eps must lie in (0, 1e-2]")
    record = value_and_grad(f, params, *inputs)
    worst = 0.0
    for name, value in params.items():
        flat = value.ravel()
        analytic = record.gradient[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = float(f(params.as_tensors(), *inputs).data)
            flat[i] = orig - eps
            lo = float(f(params.as_tensors(), *inputs).data)
            flat[i] = orig
            fd = (hi - lo) / (2 * eps)
            # the additive floor keeps near-zero gradient pairs (for example
            # weights behind inactive relu units, where the central
            # difference rounds to exactly zero) from registering as large
            # relative errors
            denom = abs(analytic[i]) + abs(fd) + 1e-8
            worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst


def timestep_embedding(tau: int, t_max: int, n_freq: int = 8) -> np.ndarray:
    """Sinusoidal features of tau/t_max at ``n_freq`` geometric frequencies."""
    frac = tau / t_max
    freqs = 2.0 ** np.arange(n_freq)
    angles = np.pi * frac * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])
