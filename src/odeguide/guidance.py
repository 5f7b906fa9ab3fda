"""Mechanistic-model guidance for the reverse diffusion process: value and
direction relation losses, factual-consistency loss, the combined guided
update, per-unit affine alignment of mechanistic simulations to the observed
factual points, and correlation-based selection of the guidance strength."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diff_engine import Tensor, check_count, loss_node
from .metrics import dtw, pearson  # unused here; benchmarks/spans.py wraps guidance.dtw


class SelectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class GuidanceConfig:
    eta: float = 0.0  # counterfactual relation guidance strength
    nu: float = 0.0  # factual consistency guidance strength
    eta_candidates: tuple[float, ...] = (0.0, 10.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0)
    use_value: bool = True
    use_direction: bool = True
    select: bool = False  # pick eta from eta_candidates by a validation sweep
    n_val_units: int = 3  # the sweep's units: the last train units, all if fewer
    n_val_samples: int = 10  # ensemble members per sweep unit

    def __post_init__(self):
        if not isinstance(self.eta_candidates, (list, tuple)):
            raise ValueError(f"guidance.eta_candidates must be a list, got {self.eta_candidates!r}")
        if not self.eta_candidates:
            raise ValueError("eta_candidates must be nonempty")
        named = [("eta", self.eta), ("nu", self.nu)]
        for name, v in named + [("eta_candidates", v) for v in self.eta_candidates]:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 <= v < math.inf:
                raise ValueError(f"guidance.{name} must be a finite nonnegative number, got {v!r}")
        object.__setattr__(self, "eta_candidates", tuple(float(v) for v in self.eta_candidates))
        for key in ("select", "use_value", "use_direction"):
            if not isinstance(getattr(self, key), bool):
                raise ValueError(f"guidance.{key} must be true or false, got {getattr(self, key)!r}")
        for key in ("n_val_units", "n_val_samples"):
            check_count(f"guidance.{key}", getattr(self, key))


@dataclass
class AlignmentTransform:
    scale: np.ndarray
    shift: np.ndarray


@dataclass
class ExpertGuidanceSignals:
    """Aligned mechanistic factual/counterfactual outcome trajectories."""

    f_cf: np.ndarray
    f_f: np.ndarray


@dataclass(frozen=True)
class FactualWindow:
    """Time points strictly before the treatment divergence point, as a
    boolean mask over the last axis."""

    mask: np.ndarray

    @classmethod
    def before_divergence(cls, a_factual: np.ndarray, a_counterfactual: np.ndarray) -> "FactualWindow":
        """Arms may be stacked, (..., T): each row's mask is True before its
        own first divergence, and everywhere when the arms never diverge."""
        differ = np.asarray(a_factual) != np.asarray(a_counterfactual)
        return cls(mask=~np.logical_or.accumulate(differ, axis=-1))

    def checked_mask(self, n: int) -> np.ndarray:
        mask = np.asarray(self.mask, bool)
        if mask.shape[-1] != n:
            raise ValueError(f"window mask length {mask.shape[-1]} out of range of a {n}-point grid")
        return mask


def _loss_node(loss, grad, y0_hat: Tensor, *args) -> Tensor:
    """One loss node over ``y0_hat``: its value ``loss(y0_hat, *args)`` and
    its backward step ``grad(y0_hat, *args)``, both on arrays."""
    return loss_node(lambda a: (loss(a["y"], *args), {"y": grad(a["y"], *args)}), {"y": y0_hat})


def _check_grid(y0_hat, y0_factual, signals, config) -> None:
    """The relation loss's trajectories share the last axis, and its
    direction term, a forward difference, needs two points of it."""
    n = np.shape(y0_hat)[-1]
    if not (np.shape(y0_factual)[-1] == np.shape(signals.f_cf)[-1] == np.shape(signals.f_f)[-1] == n):
        raise ValueError("trajectories must share the data grid")
    if config.use_direction and n < 2:
        raise ValueError(f"the direction term needs a grid of at least 2 points, got {n}")


def loss_cf(y0_hat, y0_factual, signals: ExpertGuidanceSignals, config: GuidanceConfig):
    """Penalize mismatch between the generated counterfactual-factual
    relation and the mechanistic relation, in value and in first difference,
    over the last axis.

    A Tensor ``y0_hat`` gives one loss node whose backward step is
    ``grad_loss_cf``.
    """
    if isinstance(y0_hat, Tensor):
        return _loss_node(loss_cf, grad_loss_cf, y0_hat, y0_factual, signals, config)
    _check_grid(y0_hat, y0_factual, signals, config)
    gen_rel = y0_hat - np.asarray(y0_factual, float)
    exp_rel = np.asarray(signals.f_cf, float) - np.asarray(signals.f_f, float)
    total = None
    if config.use_value:
        val = gen_rel - exp_rel
        total = (val * val).sum()
    if config.use_direction:
        gen_d = _finite_diff(gen_rel)
        exp_d = _finite_diff(exp_rel)
        dirv = gen_d - exp_d
        term = (dirv * dirv).sum()
        total = term if total is None else total + term
    if total is None:
        total = (y0_hat * 0.0).sum()
    return total


def _finite_diff(rel):
    """Forward differences with a backward difference at the last index,
    over the last axis."""
    return np.concatenate([rel[..., 1:] - rel[..., :-1], rel[..., -1:] - rel[..., -2:-1]], axis=-1)


def loss_f(y0_hat, y0_factual, window: FactualWindow):
    """Squared deviation from the factual outcome on the pre-divergence
    window over the last axis; values outside the window never contribute.
    A Tensor ``y0_hat`` gives one loss node whose backward step is
    ``grad_loss_f``."""
    if isinstance(y0_hat, Tensor):
        return _loss_node(loss_f, grad_loss_f, y0_hat, y0_factual, window)
    y0_hat = np.asarray(y0_hat, float)
    mask = np.broadcast_to(window.checked_mask(y0_hat.shape[-1]), y0_hat.shape)
    diff = y0_hat[mask] - np.broadcast_to(np.asarray(y0_factual, float), y0_hat.shape)[mask]
    return (diff * diff).sum()


def _finite_diff_adjoint(v: np.ndarray) -> np.ndarray:
    """Transpose of ``_finite_diff`` over the last axis: D^T v."""
    out = np.zeros_like(v)
    out[..., :-1] -= v[..., :-1]
    out[..., 1:] += v[..., :-1]
    out[..., -2] -= v[..., -1]
    out[..., -1] += v[..., -1]
    return out


def grad_loss_cf(y0_hat: np.ndarray, y0_factual, signals, config) -> np.ndarray:
    """Closed-form gradient of ``loss_cf`` over the last axis of y0_hat:
    2 (P_v + D^T D P_d) u with u = y0_hat - y_f - (f_cf - f_f), where D is
    the finite-difference operator and P_v, P_d switch the value and
    direction terms on."""
    y0_hat = np.asarray(y0_hat, float)
    _check_grid(y0_hat, y0_factual, signals, config)
    exp_rel = np.asarray(signals.f_cf, float) - np.asarray(signals.f_f, float)
    u = y0_hat - np.asarray(y0_factual, float) - exp_rel
    grad = np.zeros_like(u)
    if config.use_value:
        grad = grad + u
    if config.use_direction:
        grad = grad + _finite_diff_adjoint(_finite_diff(u))
    return 2.0 * grad


def grad_loss_f(y0_hat: np.ndarray, y0_factual, window: FactualWindow) -> np.ndarray:
    """Closed-form gradient of ``loss_f`` over the last axis of y0_hat:
    2 P_w (y0_hat - y_f), zero outside the window whatever y_f holds there."""
    y0_hat = np.asarray(y0_hat, float)
    mask = window.checked_mask(y0_hat.shape[-1])
    return np.where(mask, 2.0 * (y0_hat - np.where(mask, y0_factual, 0.0)), 0.0)


def make_guide_fn(
    y0_factual: np.ndarray,
    signals: ExpertGuidanceSignals,
    window: FactualWindow,
    config: GuidanceConfig,
    eta: float | np.ndarray | None = None,
    nu: float | np.ndarray | None = None,
):
    """Bind the guidance corrections into a ``guide_fn(y0_hat, tau)`` for
    the sampler, which descends both guidance losses:
    y0_hat - eta * grad_cf - nu * grad_f.

    ``eta`` and ``nu`` may be scalars or arrays that broadcast against the
    sampler's rows: an (R, 1) column gives each of R rows its own strength,
    and a (K, 1, 1) column against (S, T) rows stacks K strengths over one
    ensemble. ``y0_factual``, the signals and the window may carry a unit
    axis, (U, 1, T) against (U, S, T) rows, with a (K, 1, 1, 1) column."""
    eta = config.eta if eta is None else eta
    nu = config.nu if nu is None else nu

    def guide(y0_hat, tau):
        g_cf = grad_loss_cf(y0_hat, y0_factual, signals, config)
        g_f = grad_loss_f(y0_hat, y0_factual, window)
        return y0_hat - eta * g_cf - nu * g_f

    return guide


# -- alignment ----------------------------------------------------------


def align_factual(expert_f, expert_cf, y_f, observed) -> tuple[AlignmentTransform, np.ndarray, np.ndarray]:
    """Fit each unit's least-squares affine map (scale, shift) from the
    expert's factual curve to the factual outcome ``y_f`` on its observed
    points, grid point i to grid point i, and apply it to the whole factual
    and counterfactual expert curves. Units stack on the leading axes of
    (..., T) inputs; scale and shift are (...,). An unobserved ``y_f``,
    NaN included, reaches no arithmetic. An expert that spans < 1e-12 on
    the observed points gets scale 1 and the mean residual as shift.

    Returns (transform, aligned factual, aligned counterfactual)."""
    e, cf, observed = np.asarray(expert_f, float), np.asarray(expert_cf, float), np.asarray(observed, bool)
    if not e.shape == cf.shape == np.shape(y_f) == observed.shape:
        shapes = (e.shape, cf.shape, np.shape(y_f), observed.shape)
        raise ValueError("unequal grids: expert curves %s and %s, outcome %s, mask %s" % shapes)
    count = observed.sum(axis=-1, keepdims=True)
    if not count.all():
        raise ValueError("alignment requires a nonempty set of observed points per unit")

    def total(v):  # over each unit's observed points
        return np.where(observed, v, 0.0).sum(axis=-1, keepdims=True)

    y = np.where(observed, y_f, 0.0)  # before any arithmetic: 0 x NaN is NaN
    e_mean, y_mean = total(e) / count, total(y) / count
    hi = np.where(observed, e, -np.inf).max(axis=-1, keepdims=True)
    lo = np.where(observed, e, np.inf).min(axis=-1, keepdims=True)
    flat = hi - lo < 1e-12
    de = e - e_mean
    scale = np.where(flat, 1.0, total(de * (y - y_mean)) / np.where(flat, 1.0, total(de * de)))
    shift = y_mean - scale * e_mean
    transform = AlignmentTransform(scale=scale[..., 0], shift=shift[..., 0])
    return transform, scale * e + shift, scale * cf + shift


# -- guidance strength selection ----------------------------------------


@dataclass
class EtaSweepEntry:
    eta: float
    correlation: float


def select_eta(
    config: GuidanceConfig,
    sampler,
    target_cf: np.ndarray,
    seed: int,
) -> tuple[float, list[EtaSweepEntry]]:
    """Pick the candidate guidance strength whose guided ensemble mean
    correlates best with ``target_cf``: in the pipeline, an oracle target
    (the validation units' true counterfactual) until eta is chosen from
    factual data alone.

    ``sampler(eta, seed) -> (n_samples, T) array``. Candidates are scanned
    in ascending order; ties keep the smallest.
    """
    entries: list[EtaSweepEntry] = []
    best_eta = None
    best_r = -np.inf
    target = np.asarray(target_cf, float)
    for eta in sorted(config.eta_candidates):
        mean = np.asarray(sampler(eta, seed), float).mean(axis=0)
        try:
            r = pearson(mean, target)
        except ValueError:
            entries.append(EtaSweepEntry(eta=eta, correlation=float("nan")))
            continue
        entries.append(EtaSweepEntry(eta=eta, correlation=r))
        if r > best_r:
            best_r = r
            best_eta = eta
    if best_eta is None:
        raise SelectionError("all candidate correlations were undefined")
    return best_eta, entries
