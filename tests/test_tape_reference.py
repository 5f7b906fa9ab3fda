"""The tape reference itself: ``on_tape`` hands production leaves the tape's
gradients, each reference computes its production loss on arrays, and each
production loss node's gradient is the tape's."""

import numpy as np
import pytest

import tape_reference as ref
from odeguide import diff_engine as de
from odeguide import diffusion, guidance, hybrid_cp
from odeguide.datagen import gen_dex_dataset
from odeguide.expert_models import PkpdParams


SPEC = de.MlpSpec.make(3, 2, (5,))


def _mlp_loss(tensors, x):
    h = ref.mlp_apply(SPEC, tensors, x)
    return (h * h).sum() + (tensors["b0"] * 0.5).sum()


def test_on_tape_gives_each_leaf_the_gradient_of_a_tape_leaf_bitwise():
    params = de.ParamSet(de.init_mlp_params(SPEC, np.random.default_rng(0)))
    x = np.random.default_rng(1).standard_normal((4, 3))
    leaves = {k: ref.Tensor(v) for k, v in params.items()}
    root = _mlp_loss(leaves, x)
    root.backward()
    record = de.value_and_grad(ref.on_tape(_mlp_loss), params, x)
    assert record.loss == float(root.data)
    for name, leaf in leaves.items():
        assert record.gradient[name].tobytes() == leaf.grad.tobytes()


def _hybrid_case():
    data = gen_dex_dataset(n_patients=2, seed=4, sigma=0.1, n_days=4, drop_measurements=True)
    config = hybrid_cp.HybridCpConfig(m_y=2, m_x=2, hidden=(4,))
    return hybrid_cp.make_hybrid_model("PKPD", PkpdParams(), d_x=1, config=config, seed=5), data.units


def _denoiser_case():
    rng = np.random.default_rng(6)
    model = diffusion.make_denoiser(horizon=4, d_x=1, hidden=(8, 8), seed=2)
    schedule = diffusion.make_schedule(t_d=6)
    batch = (
        rng.standard_normal((5, 4)),
        rng.standard_normal((5, model.cond_dim)),
        (rng.uniform(size=(5, 4)) < 0.7).astype(float),
        rng.uniform(0.5, 2.0, 5),
        np.array([1, 2, 6, 3, 5]),
        rng.standard_normal((5, 4)),
    )
    return model, schedule, batch


def _guidance_case():
    rng = np.random.default_rng(7)
    y0_hat, y0_f = rng.standard_normal(9), rng.standard_normal(9)
    signals = guidance.ExpertGuidanceSignals(f_cf=rng.standard_normal(9), f_f=rng.standard_normal(9))
    return y0_hat, y0_f, signals, guidance.FactualWindow(mask=np.arange(9) < 4)


def _losses():
    """Each production loss and its tape reference, as functions of a
    dict of parameters, with the parameters they start from."""
    model, units = _hybrid_case()
    denoiser, schedule, batch = _denoiser_case()
    y0_hat, y0_f, signals, window = _guidance_case()
    config = guidance.GuidanceConfig()
    row = de.ParamSet({"y": y0_hat})
    return {
        "hybrid": (
            lambda t: hybrid_cp._dataset_loss(model, t, units),
            lambda t: ref.dataset_loss(model, t, units),
            model.params,
        ),
        "denoiser": (
            lambda t: diffusion._batch_loss_fn(t, denoiser, schedule, *batch),
            lambda t: ref.batch_loss(t, denoiser, schedule, *batch),
            denoiser.params,
        ),
        "loss_cf": (
            lambda t: guidance.loss_cf(t["y"], y0_f, signals, config),
            lambda t: ref.loss_cf(t["y"], y0_f, signals, config),
            row,
        ),
        "loss_f": (
            lambda t: guidance.loss_f(t["y"], y0_f, window),
            lambda t: ref.loss_f(t["y"], y0_f, window),
            row,
        ),
    }


@pytest.mark.parametrize("name", ["hybrid", "denoiser", "loss_cf", "loss_f"])
def test_each_reference_computes_its_production_loss_on_arrays_bitwise(name):
    production, reference, params = _losses()[name]
    arrays = dict(params.items())
    assert float(production(arrays)) == float(reference(arrays))


@pytest.mark.parametrize("name", ["hybrid", "denoiser", "loss_cf", "loss_f"])
def test_each_production_loss_node_has_the_tapes_value_and_gradient(name):
    production, reference, params = _losses()[name]
    got = de.value_and_grad(production, params)
    want = de.value_and_grad(ref.on_tape(reference), params)
    assert got.loss == want.loss
    scale = max(np.max(np.abs(g)) for g in want.gradient.values())
    for key, g in want.gradient.items():
        assert np.max(np.abs(got.gradient[key] - g)) <= 1e-12 * scale, key
