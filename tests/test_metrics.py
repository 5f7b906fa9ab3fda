import csv
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dtw_reference import dtw_cost, nearest_by_full_matrix
from odeguide import metrics
from odeguide.metrics import (
    CALIBRATION_LEVELS,
    MetricReport,
    REPORT_COLUMNS,
    _dtw_lower_bound,
    cate_rmse,
    dtw,
    dtw_nearest,
    interval_scores,
    pearson,
    sorted_quantiles,
    wasserstein1,
    wasserstein1_rows,
)


def test_wasserstein_equal_sizes_hand_examples():
    assert wasserstein1([0.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)
    assert wasserstein1([0.0], [5.0]) == pytest.approx(5.0)
    assert wasserstein1([1.0, 2.0, 3.0], [3.0, 1.0, 2.0]) == 0.0


def test_wasserstein_unequal_sizes_quantile_integral():
    # F_a^{-1} = 0 everywhere; F_b^{-1} = 0 on [0, 1/2), 1 on [1/2, 1).
    assert wasserstein1([0.0], [0.0, 1.0]) == pytest.approx(0.5)
    # both atoms of b sit distance 1 from a's single atom
    assert wasserstein1([1.0], [0.0, 2.0]) == pytest.approx(1.0)


def test_wasserstein_order_invariance_and_symmetry():
    rng = np.random.default_rng(0)
    a = rng.standard_normal(7)
    b = rng.standard_normal(5)
    assert wasserstein1(a, b) == pytest.approx(wasserstein1(b, a))
    assert wasserstein1(rng.permutation(a), b) == pytest.approx(wasserstein1(a, b))


def test_wasserstein_empty_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        wasserstein1([], [1.0])


@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=10),
    st.floats(-50, 50),
)
@settings(max_examples=50, deadline=None)
def test_wasserstein_translation_and_identity(xs, c):
    a = np.array(xs)
    assert wasserstein1(a, a) == pytest.approx(0.0, abs=1e-9)
    assert wasserstein1(a, a + c) == pytest.approx(abs(c), abs=1e-9)


def test_wasserstein_unequal_matches_monte_carlo_coupling():
    # sorted-coupling oracle on a common refinement: repeat each sample so
    # both sides have lcm(n, m) atoms, then use the equal-size formula
    rng = np.random.default_rng(1)
    a = rng.standard_normal(4)
    b = rng.standard_normal(6)
    a_ref = np.repeat(np.sort(a), 3)  # lcm(4, 6) = 12
    b_ref = np.repeat(np.sort(b), 2)
    want = np.mean(np.abs(a_ref - b_ref))
    assert wasserstein1(a, b) == pytest.approx(want)


def test_pi_coverage_hand_example():
    samples = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
    truth = np.array([1.5, 10.0])
    # 1.5 is the median, inside every interval; 10 lies outside all of them,
    # so coverage is 0.5 at each level and the calibration gap is |0.5 - level|
    cov75, cov90, cov95, calib = interval_scores(samples, truth)
    assert (cov75, cov90, cov95) == (0.5, 0.5, 0.5)
    assert calib == pytest.approx(np.mean(np.abs(0.5 - CALIBRATION_LEVELS)))


def test_pi_coverage_validation():
    with pytest.raises(ValueError, match="ensemble"):
        interval_scores(np.zeros((1, 3)), np.zeros(3))
    with pytest.raises(ValueError, match="ensemble"):
        interval_scores(np.zeros(3), np.zeros(3))


def test_calibration_score_hand_example():
    # truth always inside the interval: empirical coverage 1 at every level,
    # so the mean gap over levels 0, 0.1, ..., 1 is mean(1, 0.9, ..., 0) = 0.5
    samples = np.array([[0.0], [1.0]])
    truth = np.array([0.5])
    assert interval_scores(samples, truth) == (1.0, 1.0, 1.0, pytest.approx(0.5))


def test_calibration_score_bounds():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((50, 8))
    truth = rng.standard_normal(8)
    score = interval_scores(samples, truth)[3]
    assert 0.0 <= score <= 1.0


# the 28 quantile levels of one report: the 0.75, 0.9 and 0.95 intervals and
# the 11 calibration levels, each a lower and an upper tail
_LEVELS = np.array([0.75, 0.90, 0.95, *CALIBRATION_LEVELS])
_REPORT_QS = np.concatenate([(1 - _LEVELS) / 2, 1 - (1 - _LEVELS) / 2])


@pytest.mark.parametrize("n", range(2, 13))
def test_sorted_quantiles_equal_np_quantile_bitwise(n):
    # half-integers from a small range: every column has ties
    samples = np.random.default_rng(n).integers(-4, 5, size=(n, 7)) / 2
    samples[:, 0] = np.random.default_rng(n).normal(size=n)
    ordered = np.sort(samples, axis=0)
    for q in [0.0, 0.05, 0.5, 0.95, 1.0, *_REPORT_QS]:
        expected = np.quantile(samples, float(q), axis=0)
        assert sorted_quantiles(ordered, [q])[0].tobytes() == expected.tobytes()
    expected = np.quantile(samples, _REPORT_QS, axis=0)
    assert sorted_quantiles(ordered, _REPORT_QS).tobytes() == expected.tobytes()


def test_sorted_quantiles_give_nan_for_a_column_holding_one():
    samples = np.array([[1.0, 2.0], [np.nan, 0.0], [3.0, 1.0]])
    out = sorted_quantiles(np.sort(samples, axis=0), [0.0, 0.5, 1.0])
    assert np.isnan(out[:, 0]).all()
    assert out[:, 1].tolist() == [0.0, 1.0, 2.0]


@pytest.mark.parametrize("n", [2, 9, 40])
def test_interval_scores_equal_np_quantile_scoring_bitwise(n):
    rng = np.random.default_rng(n)
    samples, truth = rng.normal(size=(n, 30)), rng.normal(size=30)

    def covered(level):
        lo = np.quantile(samples, (1 - level) / 2, axis=0)
        hi = np.quantile(samples, 1 - (1 - level) / 2, axis=0)
        return float(np.mean((truth >= lo) & (truth <= hi)))

    calib = float(np.mean([abs(covered(lv) - lv) for lv in CALIBRATION_LEVELS]))
    assert interval_scores(samples, truth) == (covered(0.75), covered(0.90), covered(0.95), calib)


def _w1_reference(a, b):
    """W1 of two 1-D samples, one pair at a time, with numpy's union1d."""
    a, b = np.sort(a), np.sort(b)
    n, m = a.size, b.size
    if n == m:
        return float(np.mean(np.abs(a - b)))
    edges = np.union1d(np.arange(1, n + 1) / n, np.arange(1, m + 1) / m)
    widths = np.diff(np.concatenate([[0.0], edges]))
    mids = edges - widths / 2
    ia = np.minimum((mids * n).astype(int), n - 1)
    ib = np.minimum((mids * m).astype(int), m - 1)
    return float(np.sum(widths * np.abs(a[ia] - b[ib])))


@pytest.mark.parametrize("m", [4, 21, 30])
def test_wasserstein1_rows_equal_the_one_pair_reference_bitwise(m):
    rng = np.random.default_rng(m)
    a, b = rng.normal(size=(52, 21)), rng.normal(size=(52, m))
    expected = [_w1_reference(x, y) for x, y in zip(a, b)]
    assert wasserstein1_rows(a, b).tolist() == expected
    assert [wasserstein1(x, y) for x, y in zip(a, b)] == expected


def test_cate_rmse():
    est = np.array([2.0, 4.0])
    assert cate_rmse(est, np.array([2.0, 4.0])) == 0.0
    assert cate_rmse(est, np.array([2.0, 1.0])) == pytest.approx(3.0 / np.sqrt(2))
    with pytest.raises(ValueError, match="grid"):
        cate_rmse(est, np.ones(3))


def test_pearson():
    pred = np.array([1.0, 2.0, 3.0])
    truth = np.array([2.0, 4.0, 6.0])
    assert pearson(pred, truth) == pytest.approx(1.0)
    assert pearson(pred, -truth) == pytest.approx(-1.0)
    with pytest.raises(ValueError, match="constant"):
        pearson(np.ones(3), truth)


def _dtw_cost_oracle(a, b):
    """Plain-recursion reference for the cumulative DTW cost."""
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def rec(i, j):
        c = abs(a[i] - b[j])
        if i == 0 and j == 0:
            return c
        opts = []
        if i > 0 and j > 0:
            opts.append(rec(i - 1, j - 1))
        if i > 0:
            opts.append(rec(i - 1, j))
        if j > 0:
            opts.append(rec(i, j - 1))
        return c + min(opts)

    return rec(len(a) - 1, len(b) - 1)


def test_dtw_identical_sequences_zero_cost_diagonal_path():
    a = (1.0, 5.0, 2.0)
    cost, path = dtw(a, a)
    assert cost == 0.0
    assert path == [(0, 0), (1, 1), (2, 2)]


def test_dtw_repeated_point_absorbed_free():
    cost, _ = dtw([1.0, 2.0, 3.0], [1.0, 2.0, 2.0, 3.0])
    assert cost == 0.0


def test_dtw_matches_recursive_oracle_on_random_sequences():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = rng.integers(1, 6, size=2)
        a = tuple(rng.integers(0, 5, size=n).astype(float))
        b = tuple(rng.integers(0, 5, size=m).astype(float))
        cost, path = dtw(a, b)
        assert cost == pytest.approx(_dtw_cost_oracle(a, b))
        # path validity: endpoints, monotone unit steps, cost consistency
        assert path[0] == (0, 0) and path[-1] == (n - 1, m - 1)
        for (i0, j0), (i1, j1) in itertools.pairwise(path):
            assert (i1 - i0, j1 - j0) in ((1, 0), (0, 1), (1, 1))
        assert sum(abs(a[i] - b[j]) for i, j in path) == pytest.approx(cost)


def test_dtw_empty_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        dtw([], [1.0])


def _dtw_scalar_reference(a, b):
    """The cell-by-cell DTW fill and backtrack that the wavefront replaced."""
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    n, m = a.size, b.size
    cost = np.abs(a[:, None] - b[None, :])
    acc = np.full((n + 1, m + 1), np.inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            acc[i, j] = cost[i - 1, j - 1] + min(
                acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]
            )
    path = [(n - 1, m - 1)]
    i, j = n, m
    while (i, j) != (1, 1):
        candidates = [
            (acc[i - 1, j - 1], (i - 1, j - 1)),
            (acc[i - 1, j], (i - 1, j)),
            (acc[i, j - 1], (i, j - 1)),
        ]
        best = min(candidates, key=lambda c: c[0])
        i, j = best[1]
        path.append((i - 1, j - 1))
    path.reverse()
    return float(acc[n, m]), path


def _dtw_cases(seed):
    """(a, B) pairs covering n != m, n = 1, m = 1 and R = 1. Every other pair
    draws small integers, so equal costs and tied predecessors occur."""
    rng = np.random.default_rng(seed)
    fixed = [(1, 1, 1), (1, 7, 3), (7, 1, 3), (5, 9, 1), (9, 5, 4), (6, 6, 2)]
    shapes = fixed + [tuple(rng.integers(1, 13, size=3)) for _ in range(40)]
    for k, (n, m, R) in enumerate(shapes):
        if k % 2:
            a, B = rng.integers(0, 3, size=n), rng.integers(0, 3, size=(R, m))
            yield a.astype(float), B.astype(float)
        else:
            yield rng.normal(size=n), rng.normal(size=(R, m))


def test_dtw_cost_equals_dtw_bitwise():
    for a, B in _dtw_cases(11):
        costs = dtw_cost(a, B)
        assert costs.shape == (B.shape[0],)
        assert costs.tolist() == [dtw(a, b)[0] for b in B]


_DTW_VALUES = st.integers(0, 2).map(float) | st.floats(-10, 10)


@st.composite
def _dtw_batches(draw):
    """(Q, n) queries and (R, m) candidates, 1 <= n, m <= 12. Small integers
    make equal costs and tied predecessors common."""
    n, m, Q, R = (draw(st.integers(1, hi)) for hi in (12, 12, 4, 4))

    def matrix(rows, cols):
        row = st.lists(_DTW_VALUES, min_size=cols, max_size=cols)
        return np.array(draw(st.lists(row, min_size=rows, max_size=rows)))

    return matrix(Q, n), matrix(R, m)


@given(_dtw_batches())
@example((np.array([[1.0]]), np.array([[2.0], [0.0]])))  # n = m = 1
@example((np.array([[0.5]]), np.array([[0.0, 1.0, 2.0, 3.0]])))  # n = 1
@example((np.array([[0.0, 1.0, 2.0], [2.0, 2.0, 0.0]]), np.array([[1.0]])))  # m = 1
@settings(max_examples=100, deadline=None)
def test_batched_dtw_cost_equals_dtw_per_pair_bitwise(batch):
    A, B = batch
    costs = dtw_cost(A, B)
    assert costs.shape == (A.shape[0], B.shape[0])
    assert costs.tolist() == [[dtw(a, b)[0] for b in B] for a in A]
    for a, row in zip(A, costs):
        single = dtw_cost(a, B)
        assert single.shape == (B.shape[0],)
        assert single.tolist() == row.tolist()


def test_dtw_cost_empty_rejected():
    with pytest.raises(ValueError, match="dtw requires nonempty sequences"):
        dtw_cost([], np.ones((2, 3)))
    with pytest.raises(ValueError, match="dtw requires nonempty sequences"):
        dtw_cost([1.0], np.ones((2, 0)))


def test_dtw_matches_scalar_fill_cost_and_path():
    for a, B in _dtw_cases(12):
        for b in B:
            assert dtw(a, b) == _dtw_scalar_reference(a, b)


def _lb_kim_and_yi(A, B):
    """LB_Kim and LB_Yi taken both ways, (3, Q, R), summed by broadcasting."""
    kim = np.abs(A[:, None, 0] - B[:, 0])
    if A.shape[1] + B.shape[1] > 2:
        kim = kim + np.abs(A[:, None, -1] - B[:, -1])

    def yi(X, Y):  # each point of X outside the range of a row of Y
        lo, hi = Y.min(axis=1)[:, None], Y.max(axis=1)[:, None]
        return np.maximum(np.maximum(X[:, None, :] - hi, lo - X[:, None, :]), 0.0).sum(axis=2)

    return np.stack([kim, yi(A, B), yi(B, A).T])


@given(_dtw_batches(), st.sampled_from([0.0, 1e8, -3e15]))
@example((np.array([[2.0]]), np.array([[0.0, 5.0, 1.0, 7.0, 3.0]])), 0.0)  # n = 1: the bound is the cost
@example((np.array([[0.1, 0.7, 0.3]]), np.array([[0.1, 0.2, 0.3], [0.3, 0.7, 0.1]])), 0.0)
# each quarter-ulp step vanishes into the path's running sum, but not from the bound's
@example((np.array([[2.0**20, *[-(2.0**-34)] * 16, 2.0**20]]), np.zeros((1, 18))), 0.0)
@settings(max_examples=100, deadline=None)
def test_dtw_lower_bound_never_exceeds_the_cost(batch, offset):
    """Bit for bit against the wavefront's costs, with offsets that make the
    bound's differences of sums cancel; without one, the bound is no looser
    than LB_Kim or LB_Yi either way."""
    A, B = (x + offset for x in batch)
    bound = _dtw_lower_bound(A, B)
    assert bound.shape == (len(A), len(B))
    assert (bound <= dtw_cost(A, B)).all()
    if offset == 0.0:
        assert (bound >= _lb_kim_and_yi(A, B).max(axis=0) * (1 - 1e-12) - 1e-9).all()


@st.composite
def _dtw_panels(draw):
    """(A, B, k, rank): up to 8 candidate rows of length m drawn from a pool
    of up to 4 curves, so that rows repeat (equal costs) and constant curves
    occur; queries of length n, candidates themselves when n = m. k runs
    past the number of candidates and ``rank`` is any order of them."""
    n = draw(st.integers(1, 6))
    m = draw(st.just(n) | st.integers(1, 6))

    def curves(length, count):
        constant = _DTW_VALUES.map(lambda v: [v] * length)
        row = st.lists(_DTW_VALUES, min_size=length, max_size=length) | constant
        return np.array(draw(st.lists(row, min_size=count, max_size=count)))

    pool = curves(m, draw(st.integers(1, 4)))
    B = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))]
    Q = draw(st.integers(1, 4))
    A = B[draw(st.lists(st.integers(0, len(B) - 1), min_size=Q, max_size=Q))] if n == m else curves(n, Q)
    k = draw(st.integers(1, len(B) + 2))
    return A, B, k, np.array(draw(st.permutations(range(len(B)))))


# every curve starts at 0, ends at 1 and spans [0, 1]: no bound exceeds 0
_UNPRUNABLE = np.array([[0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 1], [0, 0.5, 0, 1]])


@given(_dtw_panels())
@example((_UNPRUNABLE[:2], _UNPRUNABLE, 2, np.array([3, 1, 0, 2])))  # nothing prunes
@example((np.array([[1.0], [3.0]]), np.array([[3.0], [1.0], [1.0], [2.0]]), 2, np.arange(4)))  # n = m = 1
@example((np.ones((2, 3)), np.ones((3, 3)), 5, np.array([2, 0, 1])))  # constant, all tied, k > R
@settings(max_examples=150, deadline=None)
def test_dtw_nearest_equals_the_ranked_full_cost_matrix(panel):
    A, B, k, rank = panel
    got = dtw_nearest(A, B, k, rank)
    assert got.shape == (len(A), min(k, len(B)))
    assert got.tolist() == nearest_by_full_matrix(A, B, k, rank).tolist()


def _pairs_computed(monkeypatch, *args):
    pairs = []

    def recording_wavefront(a, b, table=None):
        pairs.append(a.shape[1])
        return wavefront(a, b, table)

    wavefront = metrics._dtw_wavefront
    monkeypatch.setattr(metrics, "_dtw_wavefront", recording_wavefront)
    return dtw_nearest(*args), pairs


def test_dtw_nearest_skips_the_pairs_its_bounds_rule_out(monkeypatch):
    """Curves at distinct constant levels: past each query's 2k nearest
    levels, every bound exceeds the k-th cost. Curves that share their ends
    and their range give every bound 0, so every pair runs."""
    levels = np.repeat(np.arange(40.0)[:, None], 6, axis=1)
    got, pairs = _pairs_computed(monkeypatch, levels[::4], levels, 3, np.arange(40))
    assert sum(pairs) == 10 * 2 * 3
    assert got.tolist() == nearest_by_full_matrix(levels[::4], levels, 3, np.arange(40)).tolist()
    flat = np.random.default_rng(0).uniform(0.0, 1.0, size=(40, 6))
    flat[:, [0, 1, 4, 5]] = [0.0, 1.0, 0.0, 1.0]
    got, pairs = _pairs_computed(monkeypatch, flat[::4], flat, 3, np.arange(40))
    assert sum(pairs) == 10 * 40 and max(pairs) <= metrics._DTW_BLOCK_PAIRS
    assert got.tolist() == nearest_by_full_matrix(flat[::4], flat, 3, np.arange(40)).tolist()


def test_dtw_nearest_rejects_empty_curves():
    with pytest.raises(ValueError, match="dtw requires nonempty sequences"):
        dtw_nearest(np.ones((2, 0)), np.ones((3, 2)), 1, np.arange(3))


def test_metric_report_serialization_round_trip():
    report = MetricReport(
        wasserstein1=1.5,
        rmse=0.25,
        pi_coverage_75=0.7,
        pi_coverage_90=0.88,
        pi_coverage_95=0.93,
        cate_rmse=0.4,
        calibration_score=0.05,
        pearson_corr=0.91,
        n_samples=20,
        n_units=10,
    )
    parsed = json.loads(report.to_json())
    assert set(parsed) == set(REPORT_COLUMNS)
    assert parsed["wasserstein1"] == 1.5
    rows = list(csv.reader(io.StringIO(report.to_csv_row())))
    assert rows[0] == REPORT_COLUMNS
    assert float(rows[1][rows[0].index("pearson_corr")]) == 0.91
