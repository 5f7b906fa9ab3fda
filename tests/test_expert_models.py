import json
import struct
from dataclasses import fields, replace
from typing import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expert_terms import pkpd_terms, seirm_terms
from odeguide import datagen
from odeguide.expert_models import (
    DECAY_LAMBDA,
    SEIRM_DIM,
    ExpertOdeSpec,
    PkpdParams,
    SeirhdParams,
    SeirmParams,
    TreatmentSchedule,
    _derivative_fn,
    _row_params,
    make_drive,
    pkpd_jacobian,
    seirm_jacobian,
    simulate_expert,
    tabulate_drive,
)
from odeguide.ode_core import IntegrationError, TimeGrid, integrate


def dex_plasma(t, schedule, k3):
    """The PKPD drive of one schedule at one time."""
    return make_drive("PKPD", PkpdParams(k_3=k3), (schedule,))(t)[0, 0]


def beta_schedule(t, initial_beta, mandate_start):
    """The epidemic drive of one mandate start at one time."""
    params = SeirmParams(beta=initial_beta, alpha=0.0, gamma=0.0, mu=0.0, N=1.0)
    sched = TreatmentSchedule(kind="binary_policy", mandate_start=mandate_start)
    return make_drive("SEIRM", params, (sched,))(t)[0, 0]


def test_seirm_no_infection_pressure():
    p = SeirmParams(beta=0.5, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    out = _derivative_fn("SEIRM", p)(np.array([1000.0, 0.0, 0.0, 0.0, 0.0]), 0.5)
    assert np.array_equal(out, np.zeros(5))


def test_seirm_incubation_transfer():
    p = SeirmParams(beta=0.5, alpha=0.5, gamma=0.0, mu=0.0, N=1000)
    out = _derivative_fn("SEIRM", p)(np.array([0.0, 10.0, 0.0, 0.0, 0.0]), 0.0)
    assert out[1] == pytest.approx(-5.0)
    assert out[2] == pytest.approx(5.0)


def test_seirm_hand_computed_derivatives():
    p = SeirmParams(beta=0.5, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    out = _derivative_fn("SEIRM", p)(np.array([900.0, 50.0, 50.0, 0.0, 0.0]), 0.5)
    assert np.allclose(out, [-22.5, 12.5, 2.5, 5.0, 2.5], atol=1e-12)


def test_seirm_rejects_negative_contact_rate():
    # the contact rate decays from beta, so a negative beta is the only way
    # to a negative one, and SEIRM parameters refuse it
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        SeirmParams(beta=-0.1, alpha=0.2, gamma=0.1, mu=0.05, N=1000)


def test_seirhd_no_infectious_only_incubation_decay():
    p = SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=1000)
    state = np.zeros(10)
    state[1] = 10.0  # exposed only
    out = _derivative_fn("SEIRHD", p)(state, 0.5)
    assert out[1] == pytest.approx(-3.0)
    assert np.all(out[6:] == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    state=st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=10, max_size=10),
    beta=st.floats(min_value=0.0, max_value=2.0),
)
def test_seirhd_derivatives_sum_to_zero(state, beta):
    p = SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=1e5)
    out = _derivative_fn("SEIRHD", p)(np.array(state), beta)
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
    out = _derivative_fn("PKPD", PkpdParams())(np.zeros(4), 0.0)
    assert np.array_equal(out, np.zeros(4))


def test_pkpd_drug_elimination_rate():
    p = PkpdParams(k_IR=0.0, k_PF=0.0, k_O=0.0, k_Dex=0.0, k_2=0.3, k_3=0.0,
                   k_DP=0.0, k_IIR=0.0, k_DC=0.0)
    out = _derivative_fn("PKPD", p)(np.array([0.0, 1.0, 0.0, 0.0]), 0.0)
    assert out[1] == pytest.approx(-0.3)


def test_pkpd_hand_computed_immune_derivative():
    p = PkpdParams(k_IR=1.0, k_PF=1.0, k_O=0.5, E_max=1.0, EC_50=1.0, h_P=1.0, k_Dex=0.0)
    out = _derivative_fn("PKPD", p)(np.array([1.0, 0.0, 0.0, 1.0]), 0.0)
    assert out[0] == pytest.approx(2.0)


def test_pkpd_full_model_dimension():
    assert PkpdParams().dim == 4
    assert PkpdParams(full_model=True).dim == 5
    with pytest.raises(ValueError, match="dimension 4"):
        ExpertOdeSpec(family="PKPD", params=PkpdParams(), init=np.zeros(5), treatment=UNDOSED)


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
        assert beta_schedule(t, 0.5, None) == 0.5


def test_beta_schedule_at_mandate_start():
    assert beta_schedule(15.0, 0.5, 15.0) == 0.5


def test_beta_schedule_decay_value():
    val = beta_schedule(25.0, 0.5, 15.0)
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


@pytest.mark.parametrize(
    "data, message",
    [
        ({"kind": "binary_policy", "doses": [[1.0, 0.5]]}, "binary_policy schedule takes no doses"),
        ({"kind": "dosing", "mandate_start": 5.0}, "dosing schedule takes no mandate_start"),
    ],
)
def test_treatment_schedule_rejects_fields_of_the_other_kind(data, message):
    with pytest.raises(ValueError, match=message):
        TreatmentSchedule.from_dict(data)


def test_treatment_schedule_keeps_k_d_on_both_kinds():
    for kind in ("binary_policy", "dosing"):
        sched = TreatmentSchedule(kind=kind, k_d=2.0)
        assert TreatmentSchedule.from_dict(sched.to_dict()) == sched


def test_batched_spec_validation():
    p = SeirmParams(beta=0.5, alpha=0.2, gamma=0.1, mu=0.05, N=1000)
    sched = TreatmentSchedule(kind="binary_policy")
    with pytest.raises(ValueError, match="one entry per row"):
        ExpertOdeSpec(family="SEIRM", params=p, init=np.ones((3, 5)), treatment=(sched, sched))
    with pytest.raises(ValueError, match="one entry per row"):
        ExpertOdeSpec(family="SEIRM", params=(p,), init=np.ones(5), treatment=sched)
    with pytest.raises(ValueError, match="one model dimension"):
        ExpertOdeSpec(
            family="PKPD",
            params=(PkpdParams(), PkpdParams(full_model=True)),
            init=np.ones((2, 4)),
            treatment=TreatmentSchedule(kind="dosing"),
        )
    with pytest.raises(ValueError, match="dimension 5"):
        ExpertOdeSpec(family="SEIRM", params=p, init=np.ones((2, 4)), treatment=sched)


# -- batched simulation against the one-state reference ----------------------
#
# Before simulations were batched, each ran the loop below on one 1-D state,
# evaluating the derivative terms on numpy scalars and the treatment drive
# with the scalar functions below. Every row of a batched simulation must
# equal that loop bitwise.


def _reference_dex_plasma(t, schedule, k3):
    total = 0.0
    for t_i, d_i in schedule.doses:
        if t > t_i:
            total += schedule.k_d * d_i * np.exp(k3 * (t_i - t))
    return total


def _reference_beta(t, initial_beta, lam, mandate_start):
    if mandate_start is None or t < mandate_start:
        return initial_beta
    return initial_beta * np.exp(-lam * (t - mandate_start))


def seirhd_terms(state: Sequence, params: SeirhdParams, beta_t):
    s, e, i_a, i_p, i_m, i_s, h_r, h_d, r, d = state
    infectious = i_a + i_p + i_m + i_s
    infection = beta_t * s * infectious / params.N
    exit_e = params.alpha * e
    exit_ip = params.rate_presym_exit * i_p
    exit_is = params.rate_severe_exit * i_s
    ds = -infection
    de = infection - exit_e
    dia = params.frac_asym * exit_e - params.gamma * i_a
    dip = (1 - params.frac_asym) * exit_e - exit_ip
    dim = (1 - params.delta) * exit_ip - params.gamma * i_m
    dis = params.delta * exit_ip - exit_is
    dhr = (1 - params.frac_hosp_death) * exit_is - params.gamma * h_r
    dhd = params.frac_hosp_death * exit_is - params.rate_death * h_d
    dr = params.gamma * (i_a + i_m + h_r)
    dd = params.rate_death * h_d
    return ds, de, dia, dip, dim, dis, dhr, dhd, dr, dd


def _reference_rhs(family, params, schedule):
    def rhs(state, t):
        if family == "PKPD":
            z3_t = _reference_dex_plasma(t, schedule, params.k_3)
            return np.array(pkpd_terms(state, params, z3_t))
        bt = _reference_beta(t, params.beta, DECAY_LAMBDA, schedule.mandate_start)
        if family == "SEIRM":
            return np.array(seirm_terms(*state, params, bt))
        return np.array(seirhd_terms(state, params, bt))

    return rhs


def _reference_simulation(family, params, init, schedule, grid):
    rhs = _reference_rhs(family, params, schedule)
    dt = grid.dt
    states = np.empty((grid.n_steps + 1, init.size))
    states[0] = init
    t = grid.t0
    for step in range(grid.n_steps):
        y = states[step]
        k1 = np.asarray(rhs(y, t), dtype=np.float64)
        k2 = np.asarray(rhs(y + 0.5 * dt * k1, t + 0.5 * dt), dtype=np.float64)
        k3 = np.asarray(rhs(y + 0.5 * dt * k2, t + 0.5 * dt), dtype=np.float64)
        k4 = np.asarray(rhs(y + dt * k3, t + dt), dtype=np.float64)
        states[step + 1] = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t = grid.t0 + (step + 1) * grid.dt
    return states


def _assert_rows_match_reference(spec, grid):
    states = simulate_expert(spec, grid).states
    rows = len(spec.init)
    assert states.shape == (grid.n_steps + 1, rows, spec.init.shape[1])
    params = spec.params if isinstance(spec.params, tuple) else (spec.params,) * rows
    treatments = spec.treatment if isinstance(spec.treatment, tuple) else (spec.treatment,) * rows
    for r in range(rows):
        want = _reference_simulation(spec.family, params[r], spec.init[r], treatments[r], grid)
        assert np.array_equal(states[:, r], want), f"row {r}"


DOSED = TreatmentSchedule(kind="dosing", doses=((1.0, 1.0), (2.5, 0.4)), k_d=5.0)
ONE_DOSE = TreatmentSchedule(kind="dosing", doses=((3.0, 1.0),), k_d=5.0)
UNDOSED = TreatmentSchedule(kind="dosing")


@pytest.mark.parametrize(
    "params",
    [
        PkpdParams(),
        PkpdParams(full_model=True),
        # exponents off numpy's exact-square fast path
        PkpdParams(full_model=True, h_P=1.7, h_C=2.3),
    ],
    ids=["4-dim", "5-dim", "5-dim-hill"],
)
def test_batched_pkpd_rows_equal_reference(params):
    rng = np.random.default_rng(3)
    init = rng.exponential(10.0, size=(4, params.dim))
    spec = ExpertOdeSpec(
        family="PKPD", params=params, init=init, treatment=(DOSED, UNDOSED, ONE_DOSE, UNDOSED)
    )
    _assert_rows_match_reference(spec, TimeGrid(0.0, 0.05, 100))


def test_batched_seirm_mixed_mandates_equal_reference():
    p = SeirmParams(beta=0.5, alpha=0.3, gamma=0.25, mu=0.02, N=1000.0)
    init = np.tile([990.0, 5.0, 5.0, 0.0, 0.0], (4, 1))
    # no mandate, one from the start, one on a grid time, one at a midpoint stage
    starts = (None, 0.0, 2.0, 3.05)
    treatment = tuple(TreatmentSchedule(kind="binary_policy", mandate_start=m) for m in starts)
    spec = ExpertOdeSpec(family="SEIRM", params=p, init=init, treatment=treatment)
    _assert_rows_match_reference(spec, TimeGrid(0.0, 0.1, 60))


def test_batched_seirhd_per_row_params_equal_reference():
    params = (
        SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=1e5),
        SeirhdParams(beta=0.4, alpha=0.5, delta=0.1, N=2e6),
        SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=7e5, gamma=0.3),
    )
    fractions = (0.0015, 0.001, 0.0007, 0.0005, 0.0002, 1e-5, 5e-6, 5e-7, 1e-7)
    init = np.array([[p.N * (1 - sum(fractions)), *(p.N * f for f in fractions)] for p in params])
    starts = (1.5, None, 4.0)
    treatment = tuple(TreatmentSchedule(kind="binary_policy", mandate_start=m) for m in starts)
    spec = ExpertOdeSpec(family="SEIRHD", params=params, init=init, treatment=treatment)
    _assert_rows_match_reference(spec, TimeGrid(0.0, 0.1, 80))


SEIRHD_BASE = SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=1e5)


@pytest.mark.parametrize("beta_row", [True, False], ids=["beta-row", "beta-scalar"])
@pytest.mark.parametrize(
    "field", [None] + [f.name for f in fields(SeirhdParams) if f.name != "beta"]
)
def test_seirhd_block_derivative_equals_reference_bitwise(field, beta_row):
    rng = np.random.default_rng(7)
    scales = (1.0, 0.7, 1.3, 0.45)
    base = SEIRHD_BASE
    rows = tuple(
        base if field is None else replace(base, **{field: getattr(base, field) * f})
        for f in scales
    )
    state = rng.exponential(1e4, (len(rows), 10))
    state[1, 2:6] = 0.0  # no infectious: a zero infection
    beta_t = rng.uniform(0.0, 1.0, len(rows)) if beta_row else 0.4
    got = _derivative_fn("SEIRHD", _row_params(rows))(state, beta_t)
    assert got.shape == state.shape
    for r, params in enumerate(rows):
        want = np.array(seirhd_terms(state[r], params, beta_t[r] if beta_row else beta_t))
        assert got[r].tobytes() == want.tobytes(), f"row {r}"


def test_seirhd_block_derivative_of_one_state_and_one_row_equals_reference_bitwise():
    state = np.random.default_rng(8).exponential(1e4, 10)
    want = np.array(seirhd_terms(state, SEIRHD_BASE, 0.35)).tobytes()
    assert _derivative_fn("SEIRHD", SEIRHD_BASE)(state, 0.35).tobytes() == want
    one_row = _derivative_fn("SEIRHD", _row_params((SEIRHD_BASE,)))(state[None], np.array([0.35]))
    assert one_row.shape == (1, 10) and one_row[0].tobytes() == want


def test_covid_generator_rows_equal_reference(monkeypatch):
    runs = []

    def recording(spec, grid, *args):
        runs.append((spec, grid))
        return simulate_expert(spec, grid, *args)

    monkeypatch.setattr(datagen, "simulate_expert", recording)
    datagen.gen_covid_dataset(datagen.synthetic_census(n_cities=6, seed=1), seed=1)
    ((spec, grid),) = runs
    # per-row N, alpha and delta, and both mandate weeks
    assert len({p.N for p in spec.params}) == 6
    assert len({(p.alpha, p.delta) for p in spec.params}) == 2
    assert len({tr.mandate_start for tr in spec.treatment}) == 2
    _assert_rows_match_reference(spec, grid)


def test_single_row_batch_equals_reference_and_unbatched():
    p = PkpdParams(full_model=True)
    init = np.array([8.0, 0.02, 0.01, 12.0, 9.0])
    grid = TimeGrid(0.0, 0.05, 120)
    batch = ExpertOdeSpec(family="PKPD", params=p, init=init[None, :], treatment=ONE_DOSE)
    _assert_rows_match_reference(batch, grid)
    single = ExpertOdeSpec(family="PKPD", params=p, init=init, treatment=ONE_DOSE)
    batched = simulate_expert(batch, grid).states[:, 0]
    assert np.array_equal(simulate_expert(single, grid).states, batched)


def test_drive_equals_scalar_reference_at_dose_and_mandate_times():
    times = [0.0, 1.0, 2.5, 3.0, 3.0 + 1e-12, 7.3, 15.0, 15.0 - 1e-9, 25.0, 60.0]
    k3 = 0.5
    schedules = (DOSED, UNDOSED, ONE_DOSE)
    plasma = make_drive("PKPD", PkpdParams(k_3=k3), schedules)
    p = SeirmParams(beta=0.5, alpha=0.3, gamma=0.25, mu=0.02, N=1000.0)
    starts = (None, 0.0, 15.0, 3.0)
    mandates = tuple(TreatmentSchedule(kind="binary_policy", mandate_start=m) for m in starts)
    beta = make_drive("SEIRM", p, mandates)
    for t in times:
        got = plasma(t)
        assert got.shape == (3, 1)
        want = [_reference_dex_plasma(t, s, k3) for s in schedules]
        assert np.array_equal(got[:, 0], want), t
        want = [_reference_beta(t, p.beta, DECAY_LAMBDA, m) for m in starts]
        assert np.array_equal(beta(t)[:, 0], want), t


def test_drive_rejects_mismatched_schedules_and_negative_contact_rate():
    with pytest.raises(ValueError, match="dosing"):
        make_drive("PKPD", PkpdParams(), (TreatmentSchedule(kind="binary_policy"),))
    # SEIR-HD parameters take any beta; the drive refuses a negative one,
    # and a simulation fails there, before it integrates
    p = SeirhdParams(beta=-0.1, alpha=0.3, delta=0.15, N=1e5)
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        make_drive("SEIRHD", p, (MANDATES[0],))
    spec = ExpertOdeSpec(family="SEIRHD", params=p, init=np.full(10, 1e4), treatment=MANDATES[0])
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        simulate_expert(spec, TimeGrid(0.0, 0.1, 5))


def test_batched_nonfinite_row_names_step_and_row():
    p = SeirmParams(beta=0.5, alpha=0.3, gamma=0.25, mu=0.02, N=1000.0)
    init = np.array([[990.0, 5.0, 5.0, 0.0, 0.0], [1e308, 0.0, 1e308, 0.0, 0.0]])
    spec = ExpertOdeSpec(
        family="SEIRM", params=p, init=init, treatment=TreatmentSchedule(kind="binary_policy")
    )
    with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="step 0: .* row 1"):
        simulate_expert(spec, TimeGrid(0.0, 0.1, 5))


# -- the drive table and the closed-form Jacobians -----------------------

MANDATES = tuple(
    TreatmentSchedule(kind="binary_policy", mandate_start=m) for m in (None, 0.0, 2.5, 3.1, None)
)
DRIVE_CASES = {
    "PKPD-multi-dose-per-row-k3": (
        "PKPD",
        tuple(PkpdParams(k_3=k) for k in (0.5, 1.0, 1.7, 0.3)),
        (DOSED, UNDOSED, ONE_DOSE, TreatmentSchedule(kind="dosing", doses=((0.0, 0.5), (0.05, 1.0)))),
    ),
    "SEIRM-mandates": ("SEIRM", SeirmParams(0.5, 0.3, 0.25, 0.02, 1000.0), MANDATES),
    "SEIRM-none": ("SEIRM", SeirmParams(0.5, 0.3, 0.25, 0.02, 1000.0), MANDATES[:1] * 3),
    "SEIRHD-mandates-per-row-beta": (
        "SEIRHD",
        tuple(SeirhdParams(beta=b, alpha=0.3, delta=0.15, N=1e6) for b in (0.5, 0.9, 0.0, 0.2, 1.3)),
        MANDATES,
    ),
    "SEIRHD-none": ("SEIRHD", SeirhdParams(beta=0.5, alpha=0.3, delta=0.15, N=1e6), MANDATES[:1] * 2),
}


@pytest.mark.parametrize("case", sorted(DRIVE_CASES))
def test_drive_table_equals_one_time_calls_at_every_rk4_stage_bitwise(case):
    family, params, treatments = DRIVE_CASES[case]
    drive = make_drive(family, params, treatments)
    grid = TimeGrid(0.0, 0.05, 80)
    table, row = tabulate_drive(drive, grid.times[:-1], grid.dt)
    stage_times = []
    integrate(lambda y, t: stage_times.append(t) or np.zeros_like(y), np.zeros(1), grid)
    assert set(row) == set(stage_times) and table.shape == (len(row), len(treatments))
    for t in stage_times:
        assert np.array_equal(table[row[t]], drive(t)[:, 0]), t
    times = np.array(sorted(row))
    assert np.array_equal(drive(times), np.hstack([drive(t) for t in times]))


def _stacked_terms(family, params, state, drive):
    """The per-compartment expressions on (..., 1) state columns, joined on
    the last axis: what simulations and the hybrid evaluated before the
    block kernels."""
    cols = [state[..., k : k + 1] for k in range(state.shape[-1])]
    drive = np.asarray(drive, float)[..., None]
    if family == "SEIRM":
        return np.concatenate(seirm_terms(*cols, params, drive), axis=-1)
    return np.concatenate(pkpd_terms(cols, params, drive), axis=-1)


# rows on both sides of each relu kink (z1 for PKPD, and z5 for the 5-dim model)
JACOBIAN_CASES = {
    "SEIRM": (
        "SEIRM",
        SeirmParams(0.5, 0.3, 0.25, 0.02, 1000.0),
        [[800.0, 100.0, 60.0, 30.0, 10.0], [990.0, 5.0, 3.0, 1.0, 1.0]],
    ),
    "PKPD-4": ("PKPD", PkpdParams(), [[0.7, 0.3, 0.1, 2.0], [-0.4, 0.3, 0.1, 2.0]]),
    "PKPD-4-hill": (
        "PKPD",
        PkpdParams(h_P=2.5, k_Dex=0.8),
        [[0.7, 0.3, 0.1, 2.0], [-0.4, 0.3, 0.1, 2.0]],
    ),
    "PKPD-5": (
        "PKPD",
        PkpdParams(full_model=True),
        [[0.7, 0.3, 0.1, 2.0, 0.4], [-0.4, 0.3, 0.1, 2.0, -0.2], [0.6, 0.2, 0.1, 1.5, -0.3]],
    ),
    "PKPD-5-hill": (
        "PKPD",
        PkpdParams(full_model=True, h_P=1.3, h_C=1.5),
        [[0.7, 0.3, 0.1, 2.0, 0.4], [-0.4, 0.3, 0.1, 2.0, -0.2], [-0.6, 0.2, 0.1, 1.5, 0.3]],
    ),
}


@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_jacobian_matches_central_differences(case):
    family, params, rows = JACOBIAN_CASES[case]
    state = np.array(rows)
    drive = np.linspace(0.2, 0.5, len(rows))
    if family == "SEIRM":
        jac = seirm_jacobian(state, params, drive)
    else:
        jac = pkpd_jacobian(state, params)
    assert jac.shape == (len(rows), state.shape[1], state.shape[1])
    numeric = np.empty_like(jac)
    for j in range(state.shape[1]):
        h = 1e-6 * max(1.0, np.max(np.abs(state[:, j])))
        step = np.zeros_like(state)
        step[:, j] = h
        hi = _stacked_terms(family, params, state + step, drive)
        lo = _stacked_terms(family, params, state - step, drive)
        numeric[..., j] = (hi - lo) / (2 * h)
    np.testing.assert_allclose(jac, numeric, rtol=1e-6, atol=1e-8)


def test_pkpd_jacobian_takes_the_relu_slope_zero_at_the_kink():
    p = PkpdParams(full_model=True)
    jac = pkpd_jacobian(np.array([0.0, 0.3, 0.1, 2.0, 0.0]), p)
    assert jac[0, 0] == p.k_PF * 2.0 - p.k_O
    assert jac[0, 1] == 0.0 and jac[3, 4] == 0.0


# -- the PKPD and SEIRM block kernels against the stacked terms ---------------


def _kernel_states(dim, rng):
    """Rows on both sides of each relu kink, and signed zeros."""
    state = rng.exponential(5.0, (6, dim))
    state[0, 0] = -2.0
    state[1, 0] = -0.0
    state[2, 0] = 0.0
    state[3, 1:] = -0.0
    state[4] *= -1.0
    if dim == 5:
        state[0, 4] = -1.5
        state[1, 4] = -0.0
        state[2, 4] = 0.0
    return state


KERNEL_CASES = {
    "PKPD-4": ("PKPD", PkpdParams()),
    "PKPD-4-hill-1": ("PKPD", PkpdParams(h_P=1.0, k_Dex=0.8)),
    "PKPD-5": ("PKPD", PkpdParams(full_model=True)),  # h_C = 1: no pow
    "PKPD-5-hill": ("PKPD", PkpdParams(full_model=True, h_P=1.7, h_C=2.3)),
    "PKPD-5-square": ("PKPD", PkpdParams(full_model=True, h_C=2.0)),
    "SEIRM": ("SEIRM", SeirmParams(0.5, 0.3, 0.25, 0.02, 1000.0)),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_block_kernel_equals_the_stacked_terms_bitwise(case):
    family, params = KERNEL_CASES[case]
    dim = SEIRM_DIM if family == "SEIRM" else params.dim
    state = _kernel_states(dim, np.random.default_rng(11))
    drive = np.linspace(0.0, 0.9, len(state))
    kernel = _derivative_fn(family, params)
    got = kernel(state, drive)
    assert got.shape == state.shape
    assert got.tobytes() == _stacked_terms(family, params, state, drive).tobytes()
    for r in range(len(state)):  # one (dim,) state, with a scalar drive
        want = _stacked_terms(family, params, state[r], drive[r])
        assert kernel(state[r], drive[r]).tobytes() == want.tobytes(), f"row {r}"
    assert kernel(state, 0.4).tobytes() == _stacked_terms(family, params, state, 0.4).tobytes()


PER_ROW_FIELDS = {
    "PKPD-4": ("PKPD", PkpdParams(), ("k_IR", "k_PF", "k_O", "E_max", "EC_50", "h_P", "k_Dex",
                                      "k_2", "k_3", "k_DP", "k_IIR", "k_DC")),
    "PKPD-5": ("PKPD", PkpdParams(full_model=True), ("h_P", "h_C", "k_1", "k_DC", "k_IIR")),
    "SEIRM": ("SEIRM", SeirmParams(0.5, 0.3, 0.25, 0.02, 1000.0), ("alpha", "gamma", "mu", "N")),
}


@pytest.mark.parametrize("case", sorted(PER_ROW_FIELDS))
def test_block_kernel_with_per_row_parameters_equals_each_row_bitwise(case):
    family, base, names = PER_ROW_FIELDS[case]
    scales = (1.0, 1.3, 0.7, 1.0, 2.1, 1.15)  # rows 0 and 3 keep every exponent at its default
    rows = tuple(replace(base, **{n: getattr(base, n) * f for n in names}) for f in scales)
    state = _kernel_states(SEIRM_DIM if family == "SEIRM" else base.dim, np.random.default_rng(12))
    drive = np.linspace(0.1, 0.6, len(rows))
    got = _derivative_fn(family, _row_params(rows))(state, drive)
    for r, params in enumerate(rows):
        want = _stacked_terms(family, params, state[r], drive[r])
        assert got[r].tobytes() == want.tobytes(), f"row {r}"


def test_per_row_hill_exponents_keep_each_rows_one_row_bits():
    # numpy takes a scalar exponent of 2.0, 0.5 or -1.0 on a shortcut (x * x,
    # sqrt, 1 / x) that its power of a per-row exponent need not equal, and
    # C pow(0.6, 2.3), a Python float's power, is not numpy's on every target
    base = PkpdParams(full_model=True)
    kinds = (
        base,
        replace(base, h_P=1.7, h_C=0.5),
        replace(base, h_C=-1.0),
        replace(base, h_P=1.0, h_C=2.3),
        replace(base, EC_50=0.6, h_P=2.3),
    )
    rows = kinds * 400
    state = np.random.default_rng(14).exponential(4.0, (len(rows), 5))
    got = _derivative_fn("PKPD", _row_params(rows))(state, 0.3)
    kernels = {params: _derivative_fn("PKPD", params) for params in kinds}
    for r, params in enumerate(rows):
        assert got[r].tobytes() == kernels[params](state[r], 0.3).tobytes(), f"row {r}"


def test_simulate_expert_with_per_row_pkpd_parameters_equals_the_reference_loop():
    base = PkpdParams(full_model=True)
    params = (base, replace(base, h_C=1.6, k_IR=0.2), replace(base, h_P=1.0, k_DC=0.3), base)
    init = np.random.default_rng(13).exponential(4.0, (4, 5))
    init[1, 0], init[2, 4], init[3, 4] = -1.0, -0.5, 0.0  # start below each relu kink
    spec = ExpertOdeSpec(
        family="PKPD", params=params, init=init, treatment=(DOSED, ONE_DOSE, UNDOSED, DOSED)
    )
    _assert_rows_match_reference(spec, TimeGrid(0.0, 0.05, 100))


def test_dex_generator_rows_equal_reference(monkeypatch):
    runs = []

    def recording(spec, grid, *args):
        runs.append((spec, grid))
        return simulate_expert(spec, grid, *args)

    monkeypatch.setattr(datagen, "simulate_expert", recording)
    datagen.gen_dex_dataset(n_patients=2, seed=4, n_days=3)
    ((spec, grid),) = runs
    assert spec.init.shape == (4, 5) and spec.params.h_C == 1.0
    _assert_rows_match_reference(spec, grid)


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 0x7FEFFFFFFFFFFFFF))
@example(0)  # +0.0
@example(1)  # the smallest subnormal
@example(0x000FFFFFFFFFFFFF)  # the largest subnormal
@example(0x7FEFFFFFFFFFFFFF)  # the largest finite double
@example(1 << 63)  # -0.0, which np.maximum(-0.0, 0.0) may return
def test_pow_with_exponent_one_is_the_identity_bitwise(bits):
    # numpy's power by 1.0 is the identity, so a Hill term with h_C = 1.0
    # (the default) keeps the bits of the bare state
    x = struct.unpack("<d", struct.pack("<Q", bits))[0]
    assert (np.array([x]) ** 1.0).tobytes() == np.array([x]).tobytes()
