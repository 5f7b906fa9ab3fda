"""Criterion 3 differentiates the gradients that train and guide: scaling
any one of them by a constant factor makes it fail."""

import numpy as np
import pytest

import test_acceptance as acceptance
from odeguide import diffusion, guidance, hybrid_cp


def _scaled(fn, factor):
    """``fn`` with its gradient output scaled by ``factor``: the second item
    of a (loss, gradients) pair, or the whole array otherwise."""

    def mutated(*args):
        out = fn(*args)
        if isinstance(out, tuple):
            loss, grads = out
            return loss, {k: factor * g for k, g in grads.items()}
        return factor * out

    return mutated


@pytest.mark.parametrize(
    "module,name,factor,failing",
    [
        (hybrid_cp, "_loss_and_grad", 1.1, "hybrid loss"),
        (diffusion, "_batch_loss_and_grad", 1.1, "diffusion loss"),
        (guidance, "grad_loss_cf", 1.25, "relation loss"),
    ],
    ids=["hybrid_adjoint", "denoiser_gradient", "grad_loss_cf"],
)
def test_criterion_3_fails_on_a_scaled_production_gradient(monkeypatch, module, name, factor, failing):
    monkeypatch.setattr(module, name, _scaled(getattr(module, name), factor))
    with pytest.raises(AssertionError, match=f"{failing} gradient error") as failure:
        acceptance.test_criterion_03_gradients_match_finite_differences()
    error = float(str(failure.value).split("gradient error ")[1].split()[0])
    assert error > 1e-4 and np.isfinite(error)
