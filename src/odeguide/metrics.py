"""Evaluation suite: distributional, pointwise, interval, causal, and
alignment metrics."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .ode_core import sorted_unique


@dataclass
class MetricReport:
    wasserstein1: float
    rmse: float
    pi_coverage_75: float
    pi_coverage_90: float
    pi_coverage_95: float
    cate_rmse: float
    calibration_score: float
    pearson_corr: float
    n_samples: int
    n_units: int

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    def to_csv_row(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(REPORT_COLUMNS)
        writer.writerow([repr(getattr(self, k)) for k in REPORT_COLUMNS])
        return buf.getvalue()


REPORT_COLUMNS = [f.name for f in fields(MetricReport)]
CALIBRATION_LEVELS = np.linspace(0.0, 1.0, 11)


def sorted_quantiles(s: np.ndarray, q) -> np.ndarray:
    """``np.quantile(s, q, axis=0)`` bit for bit, (len(q), T), for samples
    ``s`` (n, T) sorted along axis 0 and a 1-D ``q``, without the ``numpy.ma``
    import it costs: numpy's ``linear`` method, its index rules and lerp."""
    v = (len(s) - 1) * np.asarray(q, float)
    lo = np.where(v >= len(s) - 1, -1.0, np.floor(v))
    t = (v - lo)[:, None]
    a, b = s[lo.astype(np.intp)], s[np.where(lo < 0, -1, lo + 1).astype(np.intp)]
    out = a + (b - a) * t
    np.subtract(b, (b - a) * (1 - t), out=out, where=t >= 0.5)
    np.copyto(out, s[-1], where=np.isnan(s[-1]))
    return out


def wasserstein1_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``wasserstein1`` of each row of ``a`` (R, n) against the same row of
    ``b`` (R, m). Equal sizes reduce to the mean absolute difference of the
    sorted samples; unequal sizes integrate |F_a^{-1} - F_b^{-1}| over the
    merged quantile grid. Each row is reduced alone, which keeps its bits."""
    a, b = np.sort(a, axis=1), np.sort(b, axis=1)
    n, m = a.shape[1], b.shape[1]
    if n == m:
        return np.array([np.mean(row) for row in np.abs(a - b)])
    edges = sorted_unique(np.concatenate([np.arange(1, n + 1) / n, np.arange(1, m + 1) / m]))
    widths = np.diff(np.concatenate([[0.0], edges]))
    mids = edges - widths / 2
    ia = np.minimum((mids * n).astype(int), n - 1)
    ib = np.minimum((mids * m).astype(int), m - 1)
    return np.array([np.sum(row) for row in widths * np.abs(a[:, ia] - b[:, ib])])


def wasserstein1(samples_a, samples_b) -> float:
    """W1 between the empirical distributions of two 1-D samples."""
    a, b = (np.asarray(x, dtype=float).reshape(1, -1) for x in (samples_a, samples_b))
    if a.size == 0 or b.size == 0:
        raise ValueError("wasserstein1 requires nonempty samples")
    return float(wasserstein1_rows(a, b)[0])


def interval_scores(samples: np.ndarray, truth: np.ndarray) -> tuple[float, float, float, float]:
    """``(pi_coverage_75, pi_coverage_90, pi_coverage_95, calibration_score)``
    of an (n_samples, T) ensemble from one sort: the fraction of time points
    where truth lies inside the central 75%, 90% and 95% empirical interval of
    the per-time sample distribution, and the mean absolute gap between
    nominal and empirical coverage across the 11 ``CALIBRATION_LEVELS``."""
    samples = np.asarray(samples, dtype=float)
    truth = np.asarray(truth, dtype=float).ravel()
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need a (n_samples, T) ensemble with n_samples >= 2")
    tail = (1 - np.array([0.75, 0.90, 0.95, *CALIBRATION_LEVELS])) / 2
    lo, hi = np.split(sorted_quantiles(np.sort(samples, axis=0), np.concatenate([tail, 1 - tail])), 2)
    coverage = np.mean((truth >= lo) & (truth <= hi), axis=1)
    return (*coverage[:3].tolist(), float(np.mean(np.abs(coverage[3:] - CALIBRATION_LEVELS))))


def cate_rmse(estimate: np.ndarray, truth: np.ndarray) -> float:
    estimate = np.asarray(estimate, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth must share a time grid")
    return float(np.sqrt(np.mean((estimate - truth) ** 2)))


def pearson(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise ValueError("correlation undefined for constant sequences")
    return float(np.corrcoef(a, b)[0, 1])


def _dtw_wavefront(A: np.ndarray, B: np.ndarray, table=None) -> np.ndarray:
    """(Q, R) DTW costs of the rows of ``A`` (Q, n) against the rows of ``B``
    (R, m), filled one anti-diagonal i + j = d at a time for all pairs: a
    cell depends only on the two diagonals before it. A diagonal is an
    (n+1, Q, R) array indexed by i, inf off the table. Three buffers rotate:
    each diagonal's step (the min of its cells' predecessors) overwrites the
    oldest, which then holds the next diagonal; of that band's stale
    neighbours only i = lo - 1 is read later, so it alone is reset to inf.
    A given (n+1, m+1) ``table`` (Q = R = 1) receives each diagonal."""
    (Q, n), (R, m) = A.shape, B.shape
    if n == 0 or m == 0:
        raise ValueError("dtw requires nonempty sequences")
    a = np.ascontiguousarray(A.T)[:, :, None]
    b = np.ascontiguousarray(B[:, ::-1].T)[:, None, :]  # reversed: a band meets b in order
    prev2, prev1, cur = (np.full((n + 1, Q, R), np.inf) for _ in range(3))
    prev2[0] = 0.0
    for d in range(2, n + m + 1):
        lo, hi = max(1, d - m), min(n, d - 1)
        step = prev2[lo - 1 : hi]
        np.minimum(step, prev1[lo - 1 : hi], out=step)
        np.minimum(step, prev1[lo : hi + 1], out=step)
        # cells (i, d - i) for i = lo..hi meet reversed rows m-d+lo..m-d+hi
        band = cur[lo : hi + 1]
        np.subtract(a[lo - 1 : hi], b[m - d + lo : m - d + hi + 1], out=band)
        np.abs(band, out=band)
        band += step
        cur[lo - 1] = np.inf
        if table is not None:  # cell (i, d - i) is flat index i * m + d
            table.flat[lo * m + d : hi * m + d + 1 : m] = band[:, 0, 0]
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[n].copy()


def dtw_cost(a, B) -> np.ndarray:
    """Optimal DTW costs against each row of ``B`` (R, m), equal to
    ``dtw(a, B[r])[0]``, without paths: (R,) for a 1-D ``a`` (n,), (Q, R)
    for a batch ``a`` (Q, n), in O(Q·R·n) memory."""
    a = np.asarray(a, dtype=float)
    costs = _dtw_wavefront(a if a.ndim == 2 else a.reshape(1, -1), np.asarray(B, dtype=float))
    return costs if a.ndim == 2 else costs[0]


def dtw(a, b) -> tuple[float, list[tuple[int, int]]]:
    """Dynamic time warping with absolute-difference local cost.

    Unit moves (1,0), (0,1), (1,1); ties during backtracking prefer the
    diagonal. Returns the optimal cumulative cost and one optimal path.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = a.size, b.size
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    _dtw_wavefront(a[None, :], b[None, :], acc)
    path = [(n - 1, m - 1)]
    i, j = n, m
    while (i, j) != (1, 1):
        candidates = [
            (acc[i - 1, j - 1], (i - 1, j - 1)),  # diagonal preferred on ties
            (acc[i - 1, j], (i - 1, j)),
            (acc[i, j - 1], (i, j - 1)),
        ]
        best = min(candidates, key=lambda c: c[0])
        i, j = best[1]
        path.append((i - 1, j - 1))
    path.reverse()
    return float(acc[n, m]), path
