"""The full DTW cost matrix, every pair computed: the reference that
``metrics.dtw_nearest`` and its lower bounds are tested against."""

import numpy as np

from odeguide.metrics import _dtw_pairs


def dtw_cost(a, B) -> np.ndarray:
    """Optimal DTW costs against each row of ``B`` (R, m), equal to
    ``dtw(a, B[r])[0]``, without paths: (R,) for a 1-D ``a`` (n,), (Q, R)
    for a batch ``a`` (Q, n). Every one of the Q·R pairs runs through the
    wavefront, at most ``_DTW_BLOCK_PAIRS`` pairs per call."""
    a, B = np.asarray(a, dtype=float), np.asarray(B, dtype=float)
    A = a if a.ndim == 2 else a.reshape(1, -1)
    rows, cols = np.indices((len(A), len(B))).reshape(2, -1)
    costs = _dtw_pairs(A, B, rows, cols).reshape(len(A), len(B))
    return costs if a.ndim == 2 else costs[0]


def nearest_by_full_matrix(A, B, k, rank) -> np.ndarray:
    """The ``k`` nearest rows of ``B`` for each row of ``A``: the whole cost
    matrix ranked by (cost, ``rank``) with one ``np.lexsort``."""
    costs = dtw_cost(A, B)
    return np.lexsort((np.broadcast_to(rank, costs.shape), costs))[:, :k]
