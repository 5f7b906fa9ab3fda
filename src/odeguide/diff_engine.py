"""Gradient plumbing and small MLP function approximators.

Everything runs on float64 numpy arrays. Gradients are closed-form: an MLP
runs forward with ``mlp_forward`` and backpropagates with ``mlp_backward``,
and each loss that training or guidance descends has a hand-written
gradient beside it. A ``Tensor`` is an array with a gradient slot: a leaf,
or one loss node built by ``loss_node``, whose value is a loss and whose
backward step is that loss's closed-form gradient. ``value_and_grad`` and
``grad_check`` differentiate such nodes, so a finite-difference check of a
loss checks the gradient that runs. The reverse-mode tape the closed forms
are tested against lives in ``tests/tape_reference.py``.
"""

from __future__ import annotations

import base64
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
    "holds_tensors",
    "init_mlp_params",
    "loss_node",
    "mlp_backward",
    "mlp_forward",
    "value_and_grad",
    "adam_step",
    "grad_check",
    "timestep_embedding",
]


class TrainingError(RuntimeError):
    """A training loop met a non-finite loss."""


class Tensor:
    """A float64 array with a gradient slot: a leaf, or one loss node made
    by ``loss_node``, whose backward step hands each leaf its gradient."""

    __slots__ = ("data", "grad", "_backward")

    def __init__(self, data, backward: Callable | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._backward = backward

    def backward(self):
        """Set this scalar's gradient to one and run its backward step,
        which is consumed: a second call runs none."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        self.grad = np.ones_like(self.data)
        back, self._backward = self._backward, None
        if back is not None:
            back(self.grad)


def loss_node(value_and_grad_fn: Callable, tensors: dict) -> Tensor:
    """One loss node over the dict ``tensors`` of Tensors.
    ``value_and_grad_fn(arrays)``, given their arrays under the same names,
    returns a loss and its gradient per name: the node's value is that loss,
    and its backward step adds g times each gradient to its Tensor's
    ``grad``. A name with no gradient (a loss that is not finite) gets none."""
    loss, grads = value_and_grad_fn({k: t.data for k, t in tensors.items()})

    def back(g):
        for k, t in tensors.items():
            if k in grads:
                t.grad = g * grads[k] if t.grad is None else t.grad + g * grads[k]

    return Tensor(loss, back)


def holds_tensors(params) -> bool:
    """Whether ``params`` maps its names to Tensors (``ParamSet.as_tensors``)."""
    return any(isinstance(v, Tensor) for _, v in params.items())


# each activation with its slope as a function of its output
_ACTIVATIONS: dict[str, tuple[Callable, Callable]] = {
    "tanh": (np.tanh, lambda y: 1.0 - y**2),
    "relu": (lambda x: np.maximum(x, 0.0), lambda y: y > 0.0),
    "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)), lambda y: y * (1.0 - y)),
    "identity": (lambda x: x, lambda y: 1.0),
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
        """Each array as its shape and the base64 of its little-endian float64 bytes."""
        raw = {k: base64.b64encode(v.astype("<f8").tobytes()).decode() for k, v in self._arrays.items()}
        payload = {k: {"shape": list(v.shape), "float64_le": raw[k]} for k, v in self._arrays.items()}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ParamSet":
        payload = json.loads(text)
        raw = {k: np.frombuffer(base64.b64decode(e["float64_le"]), "<f8") for k, e in payload.items()}
        return cls({k: raw[k].astype(np.float64).reshape(e["shape"]) for k, e in payload.items()})


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


def _rows(h: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(R, k) @ (k, n) as R stacked (1, k) @ (k, n) BLAS products, so a row's
    bits do not depend on how many rows share the call. One gemm ``h @ W`` is
    faster but not row-invariant: a (60, 292) input's first row alone
    differed in the last bits from the same row in the 60-row call."""
    return (h[:, None, :] @ W)[:, 0]


def _layers(spec: MlpSpec, Ws, bs, pre: np.ndarray) -> list[np.ndarray]:
    """Every layer's output, given the first layer's pre-activation ``pre``."""
    hs = [_ACTIVATIONS[spec.activations[0]][0](pre)]
    for W, b, act in zip(Ws[1:], bs[1:], spec.activations[1:]):
        hs.append(_ACTIVATIONS[act][0](_rows(hs[-1], W) + b))
    return hs


def mlp_forward(spec: MlpSpec, Ws, bs, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output for the (R, n_in) array rows ``x``, with ``x``
    first: what ``mlp_backward`` needs. Every product goes through
    ``_rows``, so a row's output depends only on that row."""
    return [x, *_layers(spec, Ws, bs, _rows(x, Ws[0]) + bs[0])]


def mlp_backward(spec: MlpSpec, Ws, hs: list[np.ndarray], g: np.ndarray, dx: bool = True):
    """Closed-form backpropagation of the output gradient ``g`` (R, n_out)
    through the layers ``hs`` of ``mlp_forward``: returns the weight and
    bias gradients, one per layer, and the input gradient (R, n_in), or
    None for it when not ``dx``."""
    dWs, dbs = [None] * len(Ws), [None] * len(Ws)
    for i in reversed(range(len(Ws))):
        g = g * _ACTIVATIONS[spec.activations[i]][1](hs[i + 1])
        dWs[i], dbs[i] = hs[i].T @ g, g.sum(axis=0)
        if i == 0 and not dx:
            return dWs, dbs, None
        g = g @ Ws[i].T
    return dWs, dbs, g


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
    # parameters flattened in name order, updated in place: ``value``, and in
    # ``work`` the moments m and v, the gradient and two scratch vectors;
    # ``params`` is the ParamSet of views into ``value`` each step returns
    t: int = 0
    value: np.ndarray | None = None
    work: list[np.ndarray] | None = None
    params: ParamSet | None = None


def adam_step(
    params: ParamSet,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[ParamSet, AdamState]:
    """Adam on all parameters as one flat vector, in place on the state's
    buffers; elementwise, so bitwise per array. ``params`` is never written:
    unless it is the last step's result, it is copied into the state. The
    returned ParamSet stays valid until the next step with the same state,
    which overwrites it; copy it to keep it."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    names = params.names()
    for name in names:
        if grads[name].shape != params[name].shape:
            raise ValueError(f"gradient shape mismatch for {name!r}")
    if state.value is None:  # one vector each: the returned views keep only ``value`` alive
        sizes = [params[name].size for name in names]
        state.value, state.work = np.zeros(sum(sizes)), [np.zeros(sum(sizes)) for _ in range(5)]
        pieces = np.split(state.value, np.cumsum(sizes)[:-1])
        state.params = ParamSet({n: p.reshape(params[n].shape) for n, p in zip(names, pieces)})
    if params is not state.params:
        np.concatenate([params[name].ravel() for name in names], out=state.value)
    m, v, g, s1, s2 = state.work
    np.concatenate([grads[name].ravel() for name in names], out=g)
    state.t += 1
    # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2;  value -= lr m_hat / (sqrt(v_hat) + eps)
    np.add(np.multiply(beta1, m, out=m), np.multiply(1 - beta1, g, out=s1), out=m)
    np.add(np.multiply(beta2, v, out=v), np.multiply(np.square(g, out=s1), 1 - beta2, out=s1), out=v)
    np.multiply(lr, np.divide(m, 1 - beta1**state.t, out=s1), out=s1)
    np.add(np.sqrt(np.divide(v, 1 - beta2**state.t, out=s2), out=s2), eps, out=s2)
    np.subtract(state.value, np.divide(s1, s2, out=s1), out=state.value)
    return state.params, state


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


N_FREQ = 8  # geometric frequencies of ``timestep_embedding``


def timestep_embedding(tau: int, t_max: int) -> np.ndarray:
    """Sinusoidal features of tau/t_max at ``N_FREQ`` geometric frequencies."""
    frac = tau / t_max
    freqs = 2.0 ** np.arange(N_FREQ)
    angles = np.pi * frac * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])


# -- settings checks: each settings object runs these on its own fields when
# it is built; ``name`` is the field as a config spells it, "section.key"


def _is_count(value, low: int) -> bool:
    return not isinstance(value, bool) and isinstance(value, int) and value >= low


def check_count(name: str, value, low: int = 1) -> None:
    if not _is_count(value, low):
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_rate(name: str, value, high: float = float("inf")) -> None:
    """A real number in the open interval (0, ``high``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value < high:
        raise ValueError(f"{name} must lie in (0, {high}), got {value!r}")


def check_widths(name: str, value) -> tuple[int, ...]:
    """Hidden-layer widths, a list of integers >= 1, as a tuple."""
    if not isinstance(value, (list, tuple)) or not all(_is_count(w, 1) for w in value):
        raise ValueError(f"{name} must be a list of integers >= 1, got {value!r}")
    return tuple(value)


def check_activation(name: str, value) -> None:
    if not isinstance(value, str) or value not in _ACTIVATIONS:
        raise ValueError(f"{name} must be one of {sorted(_ACTIVATIONS)}, got {value!r}")
