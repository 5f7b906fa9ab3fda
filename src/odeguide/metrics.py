"""Evaluation suite: distributional, pointwise, interval, causal, and
alignment metrics."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields

import numpy as np


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


def wasserstein1(samples_a, samples_b) -> float:
    """W1 between the empirical distributions of two 1-D samples.

    Equal sizes reduce to the mean absolute difference of the sorted samples;
    unequal sizes integrate |F_a^{-1} - F_b^{-1}| over the merged quantile
    grid.
    """
    a = np.sort(np.asarray(samples_a, dtype=float).ravel())
    b = np.sort(np.asarray(samples_b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("wasserstein1 requires nonempty samples")
    n, m = a.size, b.size
    if n == m:
        return float(np.mean(np.abs(a - b)))
    edges = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    widths = np.diff(np.concatenate([[0.0], edges]))
    mids = edges - widths / 2
    ia = np.minimum((mids * n).astype(int), n - 1)
    ib = np.minimum((mids * m).astype(int), m - 1)
    return float(np.sum(widths * np.abs(a[ia] - b[ib])))


def _ensemble(samples, truth) -> tuple[np.ndarray, np.ndarray]:
    samples = np.asarray(samples, dtype=float)
    truth = np.asarray(truth, dtype=float).ravel()
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise ValueError("need a (n_samples, T) ensemble with n_samples >= 2")
    return samples, truth


def _covered(samples: np.ndarray, truth: np.ndarray, level: float) -> float:
    lo = np.quantile(samples, (1 - level) / 2, axis=0)
    hi = np.quantile(samples, 1 - (1 - level) / 2, axis=0)
    return float(np.mean((truth >= lo) & (truth <= hi)))


def pi_coverage(samples: np.ndarray, truth: np.ndarray, level: float) -> float:
    """Fraction of time points where truth lies inside the central
    ``level`` empirical interval of the per-time sample distribution."""
    samples, truth = _ensemble(samples, truth)
    if not 0 < level < 1:
        raise ValueError("level must lie in (0, 1)")
    return _covered(samples, truth, level)


def calibration_score(samples: np.ndarray, truth: np.ndarray) -> float:
    """Mean absolute gap between nominal and empirical coverage across the
    11 levels 0.0, 0.1, ..., 1.0."""
    samples, truth = _ensemble(samples, truth)
    levels = np.linspace(0.0, 1.0, 11)
    return float(np.mean([abs(_covered(samples, truth, lv) - lv) for lv in levels]))


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
