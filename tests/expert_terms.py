"""Per-compartment SEIRM and PKPD derivative expressions, written with plain
arithmetic so that they evaluate on numpy floats and on arrays of rows (the
SEIRM terms also on tape Tensors): the reference that the block kernels of
``expert_models`` and their closed-form Jacobians are tested against. The
PKPD Hill powers take numpy's array power, as the kernels do."""

from typing import Sequence

import numpy as np

from odeguide.expert_models import PkpdParams, SeirmParams


def seirm_terms(s, e, i, r, m, params: SeirmParams, beta_t):
    """Per-compartment derivative expressions (generic arithmetic)."""
    infection = beta_t * s * i / params.N
    ds = -infection
    de = infection - params.alpha * e
    di = params.alpha * e - params.gamma * i - params.mu * i
    dr = params.gamma * i
    dm = params.mu * i
    return ds, de, di, dr, dm


def array_power(base, exponent):
    """``base ** exponent`` as numpy's array power, which the block kernels
    take, also for a scalar base, whose ``**`` would be C ``pow``."""
    return (np.asarray(base)[None] ** exponent)[0]


def pkpd_terms(state: Sequence, params: PkpdParams, z3_t):
    """Immune/drug derivative expressions; ``z3_t`` is the dosing signal
    added to the plasma state when it feeds lung-tissue uptake."""
    if params.full_model:
        z1, z2, z3, z4, z5 = state
    else:
        z1, z2, z3, z4 = state
    z1c = np.maximum(z1, 0.0)  # negative immune response is unphysical
    z1c_h = array_power(z1c, params.h_P)
    hill = params.E_max * z1c_h / (array_power(params.EC_50, params.h_P) + z1c_h)
    dz1 = (
        params.k_IR * z4
        + params.k_PF * z4 * z1
        - params.k_O * z1
        + hill
        - params.k_Dex * z1c * z2
    )
    dz2 = -params.k_2 * z2 + params.k_3 * (z3 + z3_t)
    dz3 = -params.k_3 * z3
    if params.full_model:
        z5c = np.maximum(z5, 0.0)
        dz4 = params.k_DP * z4 - params.k_IIR * z4 * z1 - params.k_DC * z4 * array_power(z5c, params.h_C)
        dz5 = params.k_1 * z1
        return dz1, dz2, dz3, dz4, dz5
    dz4 = params.k_DP * z4 - params.k_IIR * z4 * z1 - params.k_DC * z4
    return dz1, dz2, dz3, dz4
