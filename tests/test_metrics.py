import csv
import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeguide.metrics import (
    MetricReport,
    REPORT_COLUMNS,
    calibration_score,
    cate_rmse,
    dtw,
    dtw_cost,
    pearson,
    pi_coverage,
    wasserstein1,
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
    assert pi_coverage(samples, truth, 0.9) == pytest.approx(0.5)
    assert pi_coverage(samples, truth, 0.5) == pytest.approx(0.5)


def test_pi_coverage_validation():
    with pytest.raises(ValueError, match="ensemble"):
        pi_coverage(np.zeros((1, 3)), np.zeros(3), 0.9)
    with pytest.raises(ValueError, match="level"):
        pi_coverage(np.zeros((3, 2)), np.zeros(2), 1.0)


def test_calibration_score_hand_example():
    # truth always inside the interval: empirical coverage 1 at every level,
    # so the mean gap over levels 0, 0.1, ..., 1 is mean(1, 0.9, ..., 0) = 0.5
    samples = np.array([[0.0], [1.0]])
    truth = np.array([0.5])
    assert calibration_score(samples, truth) == pytest.approx(0.5)


def test_calibration_score_bounds():
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((50, 8))
    truth = rng.standard_normal(8)
    score = calibration_score(samples, truth)
    assert 0.0 <= score <= 1.0


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


def test_dtw_cost_empty_rejected():
    with pytest.raises(ValueError, match="dtw requires nonempty sequences"):
        dtw_cost([], np.ones((2, 3)))
    with pytest.raises(ValueError, match="dtw requires nonempty sequences"):
        dtw_cost([1.0], np.ones((2, 0)))


def test_dtw_matches_scalar_fill_cost_and_path():
    for a, B in _dtw_cases(12):
        for b in B:
            assert dtw(a, b) == _dtw_scalar_reference(a, b)


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
