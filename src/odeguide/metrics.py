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
_DTW_BLOCK_PAIRS = 512  # (A row, B row) pairs per DTW wavefront call
_ROUNDING = 2.0**-50  # 8 unit roundoffs (2**-53): the DTW bounds' rounding margin per summed term


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
    merged quantile grid. Each row is reduced alone over C-contiguous rows
    (``a[:, ia]`` would be Fortran-ordered), which keeps its bits."""
    a, b = np.sort(a, axis=1), np.sort(b, axis=1)
    n, m = a.shape[1], b.shape[1]
    if n == m:
        return np.abs(a - b).mean(axis=1)
    edges = sorted_unique(np.concatenate([np.arange(1, n + 1) / n, np.arange(1, m + 1) / m]))
    widths = np.diff(np.concatenate([[0.0], edges]))
    mids = edges - widths / 2
    ia = np.minimum((mids * n).astype(int), n - 1)
    ib = np.minimum((mids * m).astype(int), m - 1)
    return (widths * np.abs(a.take(ia, axis=1) - b.take(ib, axis=1))).sum(axis=1)


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


def _dtw_wavefront(a: np.ndarray, b: np.ndarray, table=None) -> np.ndarray:
    """(P,) DTW costs of each column of ``a`` (n, P) against the same column
    of ``b`` (m, P), filled one anti-diagonal i + j = d at a time for all
    pairs: a cell depends only on the two diagonals before it. A diagonal is
    an (n+1, P) array indexed by i, inf off the table. Three buffers rotate:
    each diagonal's step (the min of its cells' predecessors) overwrites the
    oldest, which then holds the next diagonal; of that band's stale
    neighbours only i = lo - 1 is read later, so it alone is reset to inf.
    Every pair sees the same operations as it would alone, so its cost keeps
    its bits at any P. A given (n+1, m+1) ``table`` (P = 1) receives each
    diagonal. ``dtw`` passes one pair; ``dtw_nearest`` passes blocks of at
    most ``_DTW_BLOCK_PAIRS`` pairs that its lower bounds could not rule out."""
    (n, P), m = a.shape, len(b)
    if n == 0 or m == 0:
        raise ValueError("dtw requires nonempty sequences")
    b = b[::-1]  # reversed: a band meets b in order
    prev2, prev1, cur = (np.full((n + 1, P), np.inf) for _ in range(3))
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
            table.flat[lo * m + d : hi * m + d + 1 : m] = band[:, 0]
        prev2, prev1, cur = prev1, cur, prev2
    return prev1[n].copy()


def _dtw_pairs(A: np.ndarray, B: np.ndarray, ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
    """DTW costs of the pairs (``A[ia[p]]``, ``B[ib[p]]``), at most
    ``_DTW_BLOCK_PAIRS`` pairs per wavefront, each block gathered straight
    into the wavefront's (length, pair) layout."""
    At, Bt = np.ascontiguousarray(A.T), np.ascontiguousarray(B.T)
    out = np.empty(len(ia))
    for s in range(0, len(ia), _DTW_BLOCK_PAIRS):
        block = slice(s, s + _DTW_BLOCK_PAIRS)
        out[block] = _dtw_wavefront(At.take(ia[block], axis=1), Bt.take(ib[block], axis=1))
    return out


def _range_gaps(X: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(Q, R) lower bounds on the summed distance from the points of each row
    of ``X`` (Q, n) to each interval [``lo[r]``, ``hi[r]``]: a point above
    hi adds x - hi, one below lo adds lo - x. The counts and sums of the
    points past each end come from histograms over the ends' sorted ranks,
    so no (Q, R, n) array is formed. Those sums subtract, so their rounding
    error is bounded absolutely and taken off."""
    (Q, n), R = X.shape, len(lo)
    scale = np.abs(X).sum(axis=1)[:, None] + n * np.maximum(np.abs(lo), np.abs(hi))
    gaps = -(n + 4) * _ROUNDING * scale
    base = np.arange(Q)[:, None] * (R + 1)
    for ends, side, sign in ((hi, "left", 1.0), (lo, "right", -1.0)):
        order = np.argsort(ends)
        # a point in bucket p lies above the ends of rank < p ("left": hi < x)
        # or below those of rank >= p ("right": lo > x)
        bucket = (base + np.searchsorted(ends[order], X, side)).ravel()
        count, total = (
            np.bincount(bucket, w, Q * (R + 1)).reshape(Q, R + 1) for w in (None, X.ravel())
        )
        if sign > 0:  # suffix sums over buckets above each rank
            count, total = (np.cumsum(c[:, ::-1], axis=1)[:, -2::-1] for c in (count, total))
        else:
            count, total = (np.cumsum(c[:, :R], axis=1) for c in (count, total))
        gaps[:, order] += sign * (total - count * ends[order])
    return np.maximum(gaps, 0.0)


def _dtw_lower_bound(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(Q, R) lower bounds on the DTW cost of each row of ``A`` (Q, n)
    against each row of ``B`` (R, m), none above the cost the wavefront
    computes. A warping path holds cells (0, 0) and (n-1, m-1), two cells
    unless n = m = 1 (LB_Kim's first and last points), and at least one cell
    in every other row, costing no less than that row's point's distance to
    the other curve's [min, max] (LB_Yi); the same holds for columns. The
    larger of the two sums is shrunk by a relative margin, since it adds in
    another order than the path does."""
    (Q, n), (R, m) = A.shape, B.shape
    if n == 0 or m == 0:
        raise ValueError("dtw requires nonempty sequences")
    ends = np.abs(A[:, :1] - B[:, 0])
    if n + m > 2:
        ends += np.abs(A[:, -1:] - B[:, -1])
    inner = np.maximum(
        _range_gaps(A[:, 1:-1], B.min(axis=1), B.max(axis=1)),
        _range_gaps(B[:, 1:-1], A.min(axis=1), A.max(axis=1)).T,
    )
    return (ends + inner) * (1 - (n + m) * _ROUNDING)


def dtw_nearest(A, B, k: int, rank) -> np.ndarray:
    """For each row of ``A`` (Q, n), the indices of its ``k`` DTW-nearest
    rows of ``B`` (R, m), equal costs ordered by ``rank`` (R,): the first
    ``k`` columns of ``np.lexsort((rank, costs))`` over the full (Q, R) cost
    matrix, bit for bit, as a (Q, min(k, R)) array.

    Exact DTW runs only where ``_dtw_lower_bound`` cannot rule a pair out.
    Round one takes each query's 2k smallest bounds; each later round takes
    every pair whose bound does not exceed the query's k-th smallest cost so
    far, until none is left. A pair left out costs more than that k-th cost,
    which only falls, so equal costs are never lost; and since every pair
    the second round leaves had a bound above the first round's k-th cost,
    no third round finds one."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    k = min(k, len(B))
    bound = _dtw_lower_bound(A, B)
    cost, done = np.full(bound.shape, np.inf), np.zeros(bound.shape, bool)
    todo = np.zeros_like(done)
    np.put_along_axis(todo, np.argsort(bound, axis=1)[:, : 2 * k], True, axis=1)
    while todo.any():
        rows, cols = np.nonzero(todo)
        cost[rows, cols] = _dtw_pairs(A, B, rows, cols)
        done |= todo
        kth = np.partition(cost, k - 1, axis=1)[:, k - 1 : k]
        todo = ~(done | (bound > kth))  # a NaN bound or cost rules nothing out
    return np.lexsort((np.broadcast_to(rank, cost.shape), cost))[:, :k]


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
    _dtw_wavefront(a[:, None], b[:, None], acc)
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
