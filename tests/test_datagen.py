import numpy as np
import pytest

from odeguide.datagen import (
    COVID_SOLVER_DT,
    DEX_SOLVER_DT,
    SEIRHD_INIT_FRACTIONS,
    CovariateMixer,
    gen_covariates,
    gen_covid_dataset,
    gen_dex_dataset,
    irregular_mask,
    read_dataset,
    seirhd_initial_state,
    synthetic_census,
    write_dataset,
)
from odeguide.expert_models import ExpertOdeSpec, PkpdParams, SeirhdParams, simulate_expert
from odeguide.ode_core import TimeGrid


def test_initial_state_exposed_fraction():
    state = seirhd_initial_state(1_000_000)
    assert state[1] == pytest.approx(1500.0)


def test_initial_state_susceptible_remainder():
    n = 3_456_789.0
    state = seirhd_initial_state(n)
    assert state[0] == pytest.approx(n - sum(n * f for f in SEIRHD_INIT_FRACTIONS))
    assert state.sum() == pytest.approx(n)


def test_covariate_mixer_zero_maps_to_zero():
    mixer = CovariateMixer(W3=np.zeros((2, 3)), W4=np.zeros((2, 1)))
    assert np.array_equal(gen_covariates(np.ones(3), 1.0, mixer), np.zeros(2))


def test_covariate_treatment_channel():
    mixer = CovariateMixer(W3=np.zeros((1, 3)), W4=np.array([[1.0]]))
    assert gen_covariates(np.ones(3), 1.0, mixer)[0] == 1.0
    assert gen_covariates(np.ones(3), 0.0, mixer)[0] == 0.0


def test_covariates_match_manual_matrix_product():
    rng = np.random.default_rng(3)
    mixer = CovariateMixer.sample(d_x=4, n_latent=5, rng=rng)
    z = rng.standard_normal(5)
    out = gen_covariates(z, 1.0, mixer)
    assert np.allclose(out, mixer.W3 @ z + mixer.W4[:, 0], atol=1e-14)


def test_irregular_mask_keeps_first_point():
    for seed in range(20):
        mask = irregular_mask(10, 0.9, np.random.default_rng(seed))
        assert mask[0]


def test_irregular_mask_zero_drop_keeps_all():
    assert np.all(irregular_mask(50, 0.0, np.random.default_rng(0)))


def test_irregular_mask_retention_rate():
    mask = irregular_mask(1000, 0.5, np.random.default_rng(42))
    assert 0.45 <= mask.mean() <= 0.55


def test_irregular_mask_seeded_repeatability():
    a = irregular_mask(100, 0.5, np.random.default_rng(7))
    b = irregular_mask(100, 0.5, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_census_range_and_determinism():
    census = synthetic_census(n_cities=20, seed=1)
    assert len(census) == 20
    for _, pop in census:
        assert 1e5 <= pop <= 1e7
    assert census == synthetic_census(n_cities=20, seed=1)


def test_dex_dataset_determinism():
    a = gen_dex_dataset(n_patients=4, seed=5)
    b = gen_dex_dataset(n_patients=4, seed=5)
    for ua, ub in zip(a.units, b.units):
        assert np.array_equal(ua.factual.y, ub.factual.y)
        assert np.array_equal(ua.counterfactual.x, ub.counterfactual.x)
        assert np.array_equal(ua.factual.observed, ub.factual.observed)


def test_dex_noiseless_outcome_equals_viral_proxy():
    ds = gen_dex_dataset(n_patients=3, seed=2, sigma=0.0, drop_measurements=False)
    for unit in ds.units:
        assert np.array_equal(unit.factual.y, unit.factual.y_clean)


def test_dex_treated_plasma_jump():
    ds = gen_dex_dataset(n_patients=6, seed=0, drop_measurements=False)
    treated = [u for u in ds.units if u.group == "treated"]
    assert treated
    for unit in treated:
        sched = unit.treatment_factual
        assert sched.doses == ((3.0, 1.0),)
        # dose contribution appears in the plasma reading right after day 3
        assert unit.factual.a[3] == 1
        assert unit.factual.a[2] == 0


def test_dex_counterfactual_flips_treatment():
    ds = gen_dex_dataset(n_patients=6, seed=0)
    for unit in ds.units:
        f_doses = unit.treatment_factual.doses
        cf_doses = unit.treatment_counterfactual.doses
        assert (len(f_doses) == 1) != (len(cf_doses) == 1)


def test_dex_group_split_roughly_half():
    ds = gen_dex_dataset(n_patients=10, seed=3)
    n_treated = sum(u.group == "treated" for u in ds.units)
    assert n_treated == 5


def test_covid_strict_group_size():
    census = synthetic_census(n_cities=9, seed=0)
    ds = gen_covid_dataset(populations=census, seed=0)
    n_strict = sum(u.group == "strict" for u in ds.units)
    assert n_strict == 5  # (n + 1) // 2


def test_covid_mandate_weeks_and_flip():
    census = synthetic_census(n_cities=4, seed=1)
    ds = gen_covid_dataset(populations=census, seed=1)
    for unit in ds.units:
        f, cf = unit.treatment_factual.mandate_start, unit.treatment_counterfactual.mandate_start
        assert {f, cf} == {15.0, 40.0}
        if unit.group == "strict":
            assert f == 15.0
        else:
            assert f == 40.0


def test_covid_outcome_monotone_cumulative():
    census = [("one", 1e6)]
    ds = gen_covid_dataset(populations=census, seed=0)
    y = ds.units[0].factual.y
    assert np.all(np.diff(y) >= -1e-12)  # cumulative deaths never decrease


def _arms(unit):
    return (
        (unit.factual, unit.treatment_factual),
        (unit.counterfactual, unit.treatment_counterfactual),
    )


def test_dex_arms_equal_their_own_single_row_simulation():
    ds = gen_dex_dataset(n_patients=3, seed=4, n_days=6)
    grid = TimeGrid(0.0, DEX_SOLVER_DT, round(6 / DEX_SOLVER_DT))
    per_day = round(1.0 / DEX_SOLVER_DT)
    params = PkpdParams(full_model=True)
    for unit in ds.units:
        for traj, sched in _arms(unit):
            init = np.array([unit.meta["init"]])
            spec = ExpertOdeSpec(family="PKPD", params=params, init=init, treatment=sched)
            states = simulate_expert(spec, grid).states[::per_day, 0]
            assert np.array_equal(traj.y_clean, states[:, 0])


def test_covid_arms_equal_their_own_single_row_simulation():
    populations = [("a", 2.5e5), ("b", 4e6), ("c", 1.2e5)]
    ds = gen_covid_dataset(populations=populations, seed=2, n_weeks=20)
    grid = TimeGrid(0.0, COVID_SOLVER_DT, round(19 / COVID_SOLVER_DT))
    per_week = round(1.0 / COVID_SOLVER_DT)
    for unit in ds.units:
        pop = unit.meta["population"]
        params = SeirhdParams(beta=0.5, alpha=unit.meta["alpha"], delta=unit.meta["delta"], N=pop)
        for traj, sched in _arms(unit):
            init = seirhd_initial_state(pop)[None, :]
            spec = ExpertOdeSpec(family="SEIRHD", params=params, init=init, treatment=sched)
            states = simulate_expert(spec, grid).states[::per_week, 0]
            assert np.array_equal(traj.y_clean, states[:, 9] / pop * 1000.0)


def test_covid_rejects_bad_populations():
    with pytest.raises(ValueError):
        gen_covid_dataset(populations=[("x", -5.0)], seed=0)
    with pytest.raises(ValueError):
        gen_covid_dataset(populations=[], seed=0)


def test_unit_ids_unique_enforced():
    ds = gen_dex_dataset(n_patients=3, seed=0)
    from odeguide.datagen import Dataset

    with pytest.raises(ValueError):
        Dataset(units=[ds.units[0], ds.units[0]], schema_version=1, seed=0)


def test_dataset_round_trip(tmp_path):
    ds = gen_dex_dataset(n_patients=4, seed=9)
    write_dataset(ds, tmp_path)
    back = read_dataset(tmp_path)
    assert back.seed == ds.seed
    assert back.config == ds.config
    by_id = {u.unit_id: u for u in back.units}
    for unit in ds.units:
        other = by_id[unit.unit_id]
        assert np.array_equal(unit.factual.y, other.factual.y)
        assert np.array_equal(unit.factual.x, other.factual.x)
        assert np.array_equal(unit.factual.a, other.factual.a)
        assert np.array_equal(unit.factual.observed, other.factual.observed)
        assert np.array_equal(unit.counterfactual.y, other.counterfactual.y)
        assert unit.treatment_factual == other.treatment_factual
        assert unit.group == other.group


def test_serialization_byte_identical(tmp_path):
    ds = gen_dex_dataset(n_patients=3, seed=4)
    write_dataset(ds, tmp_path / "a")
    write_dataset(gen_dex_dataset(n_patients=3, seed=4), tmp_path / "b")
    for name in ("factual.csv", "counterfactual.csv", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_dataset_round_trip_keeps_noiseless_outcome(tmp_path):
    ds = gen_dex_dataset(n_patients=3, seed=2, sigma=0.5)
    write_dataset(ds, tmp_path)
    by_id = {u.unit_id: u for u in read_dataset(tmp_path).units}
    for unit in ds.units:
        other = by_id[unit.unit_id]
        for arm in ("factual", "counterfactual"):
            want = getattr(unit, arm).y_clean
            assert not np.array_equal(want, getattr(unit, arm).y)
            assert np.array_equal(getattr(other, arm).y_clean, want)


def test_dataset_written_without_noiseless_column_still_loads(tmp_path):
    ds = gen_dex_dataset(n_patients=2, seed=3)
    write_dataset(ds, tmp_path)
    for name in ("factual.csv", "counterfactual.csv"):
        path = tmp_path / name
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",y_clean")
        path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    back = read_dataset(tmp_path)
    by_id = {u.unit_id: u for u in back.units}
    for unit in ds.units:
        other = by_id[unit.unit_id]
        assert other.factual.y_clean is None and other.counterfactual.y_clean is None
        assert np.array_equal(unit.factual.y, other.factual.y)
        assert np.array_equal(unit.factual.observed, other.factual.observed)
