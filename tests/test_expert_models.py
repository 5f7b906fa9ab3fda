import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odeguide.expert_models import (
    ExpertOdeSpec,
    PkpdParams,
    SeirhdParams,
    SeirmParams,
    TreatmentSchedule,
    beta_schedule,
    dex_plasma,
    pkpd_rhs,
    seirhd_rhs,
    seirm_rhs,
    simulate_expert,
)
from odeguide.ode_core import TimeGrid, integrate


def test_seirm_no_infection_pressure():
    p = SeirmParams(beta=0.5, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    out = seirm_rhs(np.array([1000.0, 0.0, 0.0, 0.0, 0.0]), 0.0, p, 0.5)
    assert np.array_equal(out, np.zeros(5))


def test_seirm_incubation_transfer():
    p = SeirmParams(beta=0.5, alpha=0.5, gamma=0.0, mu=0.0, N=1000)
    out = seirm_rhs(np.array([0.0, 10.0, 0.0, 0.0, 0.0]), 0.0, p, 0.0)
    assert out[1] == pytest.approx(-5.0)
    assert out[2] == pytest.approx(5.0)


def test_seirm_hand_computed_derivatives():
    p = SeirmParams(beta=0.5, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    out = seirm_rhs(np.array([900.0, 50.0, 50.0, 0.0, 0.0]), 0.0, p, 0.5)
    assert np.allclose(out, [-22.5, 12.5, 2.5, 5.0, 2.5], atol=1e-12)


def test_seirm_rejects_negative_contact_rate():
    p = SeirmParams(beta=0.5, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    with pytest.raises(ValueError):
        seirm_rhs(np.zeros(5), 0.0, p, -0.1)


def test_seirhd_no_infectious_only_incubation_decay():
    p = SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=1000)
    state = np.zeros(10)
    state[1] = 10.0  # exposed only
    out = seirhd_rhs(state, 0.0, p, 0.5)
    assert out[1] == pytest.approx(-3.0)
    assert np.all(out[6:] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    state=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=10, max_size=10),
    beta=st.floats(min_value=0.0, max_value=2.0),
)
def test_seirhd_derivatives_sum_to_zero(state, beta):
    p = SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=1e5)
    out = seirhd_rhs(np.array(state), 0.0, p, beta)
    assert abs(np.sum(out)) <= 1e-9 * max(1.0, np.max(np.abs(out)))


def test_seirhd_matches_finer_step_reference():
    p = SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=1e6)
    fractions = (0.0015, 0.001, 0.0007, 0.0005, 0.0002, 1e-5, 5e-6, 5e-7, 1e-7)
    comps = [1e6 * f for f in fractions]
    init = np.array([1e6 - sum(comps), *comps])
    sched = TreatmentSchedule(kind="binary_policy", mandate_start=15.0)
    spec = ExpertOdeSpec(family="SEIRHD", params=p, init=init, treatment=sched)
    coarse = simulate_expert(spec, TimeGrid(0.0, 0.1, 100))
    fine = simulate_expert(spec, TimeGrid(0.0, 0.01, 1000))
    rel = np.abs(coarse.states[-1] - fine.states[-1]) / (np.abs(fine.states[-1]) + 1e-12)
    assert np.max(rel) < 1e-4


def test_pkpd_zero_state_zero_derivative():
    out = pkpd_rhs(np.zeros(4), 0.0, PkpdParams(), 0.0)
    assert np.array_equal(out, np.zeros(4))


def test_pkpd_drug_elimination_rate():
    p = PkpdParams(k_IR=0.0, k_PF=0.0, k_O=0.0, k_Dex=0.0, k_2=0.3, k_3=0.0,
                   k_DP=0.0, k_IIR=0.0, k_DC=0.0)
    out = pkpd_rhs(np.array([0.0, 1.0, 0.0, 0.0]), 0.0, p, 0.0)
    assert out[1] == pytest.approx(-0.3)


def test_pkpd_hand_computed_immune_derivative():
    p = PkpdParams(k_IR=1.0, k_PF=1.0, k_O=0.5, E_max=1.0, EC_50=1.0, h_P=1.0, k_Dex=0.0)
    out = pkpd_rhs(np.array([1.0, 0.0, 0.0, 1.0]), 0.0, p, 0.0)
    assert out[0] == pytest.approx(2.0)


def test_pkpd_full_model_dimension():
    assert PkpdParams().dim == 4
    assert PkpdParams(full_model=True).dim == 5
    with pytest.raises(ValueError):
        pkpd_rhs(np.zeros(5), 0.0, PkpdParams(), 0.0)


def test_param_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        SeirmParams.from_dict({"beta": 0.5, "alpha": 0.2, "gamma": 0.1, "mu": 0.0, "N": 10, "bogus": 1})
    with pytest.raises(ValueError, match="unknown"):
        PkpdParams.from_dict({"nope": 2.0})


def test_dex_plasma_no_doses_is_zero():
    sched = TreatmentSchedule(kind="dosing", doses=())
    assert dex_plasma(10.0, sched, 1.0) == 0.0


def test_dex_plasma_jump_level():
    sched = TreatmentSchedule(kind="dosing", doses=((3.0, 1.0),), k_d=5.0)
    assert dex_plasma(3.0, sched, 0.5) == 0.0  # strictly after the dose
    assert dex_plasma(3.0 + 1e-12, sched, 0.5) == pytest.approx(5.0)


def test_dex_plasma_exponential_tail():
    sched = TreatmentSchedule(kind="dosing", doses=((3.0, 1.0),), k_d=5.0)
    assert dex_plasma(5.0, sched, 0.5) == pytest.approx(5.0 * np.exp(-1.0), abs=1e-10)
    assert dex_plasma(5.0, sched, 0.5) == pytest.approx(1.8394, abs=1e-4)


def test_beta_schedule_constant_without_mandate():
    for t in (0.0, 10.0, 100.0):
        assert beta_schedule(t, 0.5, 0.005, None) == 0.5


def test_beta_schedule_at_mandate_start():
    assert beta_schedule(15.0, 0.5, 0.005, 15.0) == 0.5


def test_beta_schedule_decay_value():
    val = beta_schedule(25.0, 0.5, 0.005, 15.0)
    assert val == pytest.approx(0.5 * np.exp(-0.05), abs=1e-12)
    assert val == pytest.approx(0.47561, abs=1e-5)


def test_simulate_seirm_frozen_without_transmission():
    p = SeirmParams(beta=0.0, alpha=0.0, gamma=0.0, mu=0.0, N=1000)
    spec = ExpertOdeSpec(
        family="SEIRM",
        params=p,
        init=np.array([900.0, 50.0, 50.0, 0.0, 0.0]),
        treatment=TreatmentSchedule(kind="binary_policy", mandate_start=None),
    )
    traj = simulate_expert(spec, TimeGrid(0.0, 0.1, 50))
    assert np.allclose(traj.states, traj.states[0], atol=1e-12)


def test_simulate_seirm_susceptibles_constant_with_zero_beta():
    p = SeirmParams(beta=0.0, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    spec = ExpertOdeSpec(
        family="SEIRM",
        params=p,
        init=np.array([900.0, 50.0, 50.0, 0.0, 0.0]),
        treatment=TreatmentSchedule(kind="binary_policy", mandate_start=None),
    )
    traj = simulate_expert(spec, TimeGrid(0.0, 0.1, 100))
    assert np.allclose(traj.states[:, 0], 900.0, atol=1e-9)


def test_simulate_seirm_conservation():
    p = SeirmParams(beta=0.5, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    spec = ExpertOdeSpec(
        family="SEIRM",
        params=p,
        init=np.array([900.0, 50.0, 50.0, 0.0, 0.0]),
        treatment=TreatmentSchedule(kind="binary_policy", mandate_start=15.0),
    )
    traj = simulate_expert(spec, TimeGrid(0.0, 0.1, 510))
    totals = traj.states.sum(axis=1)
    assert np.max(np.abs(totals - 1000.0)) <= 1e-9 * 1000.0


def test_simulate_pkpd_dosing_raises_lung_level():
    p = PkpdParams()
    sched = TreatmentSchedule(kind="dosing", doses=((3.0, 1.0),), k_d=5.0)
    spec = ExpertOdeSpec(
        family="PKPD", params=p, init=np.array([1.0, 0.0, 0.0, 1.0]), treatment=sched
    )
    traj = simulate_expert(spec, TimeGrid(0.0, 0.05, 200))
    times = traj.grid.times
    before = traj.states[times < 3.0, 1]
    after = traj.states[times >= 3.5, 1]
    assert np.allclose(before, 0.0, atol=1e-12)
    assert np.all(after > 0.0)


def test_treatment_schedule_validation():
    with pytest.raises(ValueError):
        TreatmentSchedule(kind="unknown")
    with pytest.raises(ValueError):
        TreatmentSchedule(kind="dosing", doses=((1.0, 2.0),))  # dose level > 1


@pytest.mark.parametrize(
    "sched",
    [
        TreatmentSchedule(kind="binary_policy", mandate_start=15.0),
        TreatmentSchedule(kind="dosing", doses=((3.0, 1.0), (5.0, 0.5)), k_d=2.0),
    ],
)
def test_treatment_schedule_dict_round_trip(sched):
    assert TreatmentSchedule.from_dict(sched.to_dict()) == sched
    assert TreatmentSchedule.from_dict(json.loads(json.dumps(sched.to_dict()))) == sched


def test_treatment_schedule_from_dict_defaults_and_unknown_keys():
    assert TreatmentSchedule.from_dict({"kind": "dosing"}) == TreatmentSchedule(kind="dosing")
    with pytest.raises(ValueError, match="mandate_strat"):
        TreatmentSchedule.from_dict({"kind": "binary_policy", "mandate_strat": 5})


def test_spec_dimension_validation():
    p = SeirmParams(beta=0.5, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    with pytest.raises(ValueError):
        ExpertOdeSpec(
            family="SEIRM",
            params=p,
            init=np.zeros(4),
            treatment=TreatmentSchedule(kind="binary_policy"),
        )
