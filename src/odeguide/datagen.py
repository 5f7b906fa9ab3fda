"""Seeded generators for the semi-synthetic epidemic dataset and the fully
synthetic dexamethasone dataset, with factual and counterfactual arms, plus
CSV/JSON persistence that round-trips exactly."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expert_models import (
    ExpertOdeSpec,
    PkpdParams,
    SeirhdParams,
    TreatmentSchedule,
    hospital_inflow_rate,
    make_drive,
    simulate_expert,
)
from .ode_core import TimeGrid

SCHEMA_VERSION = 1

# Initial compartment fractions for the 10-state epidemic model
# (E, I_A, I_P, I_M, I_S, H_R, H_D, R, D); susceptibles take the remainder.
SEIRHD_INIT_FRACTIONS = (
    0.0015,
    0.001,
    0.0007,
    0.0005,
    0.0002,
    0.00001,
    0.000005,
    0.0000005,
    0.0000001,
)

COVID_WEEKS = 52
COVID_SOLVER_DT = 0.1  # weeks
DEX_DAYS = 14
DEX_SOLVER_DT = 0.05  # days
STRICT_MANDATE_WEEK = 15.0
RELAXED_MANDATE_WEEK = 40.0


@dataclass
class Trajectory:
    """Time-indexed record of outcome, covariates, and treatment."""

    times: np.ndarray  # (T,)
    y: np.ndarray  # (T,)
    x: np.ndarray  # (T, d_x)
    a: np.ndarray  # (T,) ints in {0, 1}
    observed: np.ndarray  # (T,) bool
    y_clean: np.ndarray | None = None  # noiseless outcome, when known

    @property
    def horizon(self) -> int:
        return self.times.size

    @property
    def d_x(self) -> int:
        return self.x.shape[1]


@dataclass
class UnitRecord:
    unit_id: str
    meta: dict
    factual: Trajectory
    counterfactual: Trajectory
    treatment_factual: TreatmentSchedule
    treatment_counterfactual: TreatmentSchedule
    group: str


@dataclass
class Dataset:
    units: list[UnitRecord]
    schema_version: int
    seed: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        ids = [u.unit_id for u in self.units]
        if len(ids) != len(set(ids)):
            raise ValueError("unit ids must be unique")


@dataclass
class CovariateMixer:
    """Sparse linear map from latent state and treatment to covariates."""

    W3: np.ndarray  # (d_x, n_latent)
    W4: np.ndarray  # (d_x, 1)

    @classmethod
    def sample(cls, d_x: int, n_latent: int, rng: np.random.Generator) -> "CovariateMixer":
        w3 = rng.standard_normal((d_x, n_latent)) * rng.binomial(1, 0.5, (d_x, n_latent))
        w4 = rng.standard_normal((d_x, 1)) * rng.binomial(1, 0.5, (d_x, 1))
        return cls(W3=w3, W4=w4)


def gen_covariates(z: np.ndarray, a: float, mixer: CovariateMixer) -> np.ndarray:
    z = np.asarray(z, dtype=float).ravel()
    if z.size != mixer.W3.shape[1]:
        raise ValueError(
            f"latent size {z.size} does not match mixer input {mixer.W3.shape[1]}"
        )
    return mixer.W3 @ z + mixer.W4[:, 0] * a


def irregular_mask(n_points: int, p_drop: float, rng: np.random.Generator) -> np.ndarray:
    """Boolean keep-mask; each point dropped independently with ``p_drop``,
    the first point always retained."""
    if not 0 <= p_drop < 1:
        raise ValueError("p_drop must lie in [0, 1)")
    keep = rng.random(n_points) >= p_drop
    keep[0] = True
    return keep


def unit_rng(seed: int, unit_index: int) -> np.random.Generator:
    """Per-unit generator keyed on (seed, unit index); order independent."""
    return np.random.default_rng([seed, unit_index])


def synthetic_census(n_cities: int = 121, seed: int = 0) -> list[tuple[str, float]]:
    """Log-uniform city populations between 1e5 and 1e7."""
    rng = np.random.default_rng([seed, 987654321])
    pops = 10 ** rng.uniform(5, 7, size=n_cities)
    return [(f"city_{i:03d}", float(round(p))) for i, p in enumerate(pops)]


def seirhd_initial_state(population: float) -> np.ndarray:
    comps = [population * f for f in SEIRHD_INIT_FRACTIONS]
    susceptible = population - sum(comps)
    return np.array([susceptible, *comps])


def _covid_arm(
    states: np.ndarray, population: float, params: SeirhdParams, mandate_week: float
) -> Trajectory:
    """Weekly outcome and covariates of one arm from its (n_steps + 1, 10)
    trajectory on the solver grid."""
    steps_per_week = round(1.0 / COVID_SOLVER_DT)
    weekly = states[::steps_per_week]
    times = np.arange(len(weekly), dtype=float)
    # outcome: cumulative deaths per 1000 people
    y = weekly[:, 9] / population * 1000.0
    # covariate 1: hospital admissions during the preceding week (per 1000)
    inflow = hospital_inflow_rate(states, params)
    cum_inflow = np.concatenate(
        [[0.0], np.cumsum((inflow[1:] + inflow[:-1]) / 2 * COVID_SOLVER_DT)]
    )
    weekly_cum = cum_inflow[::steps_per_week]
    new_hosp = np.concatenate([[0.0], np.diff(weekly_cum)]) / population * 1000.0
    # covariate 2: symptomatic infectious (mild + severe, per 1000)
    symptomatic = (weekly[:, 4] + weekly[:, 5]) / population * 1000.0
    x = np.column_stack([new_hosp, symptomatic])
    a = (times >= mandate_week).astype(int)
    observed = np.ones(times.size, dtype=bool)
    return Trajectory(times=times, y=y, x=x, a=a, observed=observed, y_clean=y.copy())


def gen_covid_dataset(
    populations: list[tuple[str, float]] | None = None,
    seed: int = 0,
    n_weeks: int = COVID_WEEKS,
    initial_beta: float = 0.5,
) -> Dataset:
    """Simulate strict/relaxed mask-policy cities with the 10-state epidemic
    model; the counterfactual arm flips the mandate timing. Both arms of
    every city are integrated in one batched call."""
    if populations is None:
        populations = synthetic_census(seed=seed)
    if not populations:
        raise ValueError("populations must be nonempty")
    for _, pop in populations:
        if pop <= 0:
            raise ValueError("populations must be positive")
    master = np.random.default_rng([seed, 0])
    n = len(populations)
    n_strict = (n + 1) // 2
    order = master.permutation(n)
    strict_ids = set(order[:n_strict])
    cities = []  # (params, factual mandate, counterfactual mandate)
    for idx, (_, pop) in enumerate(populations):
        if idx in strict_ids:
            params = SeirhdParams(beta=initial_beta, alpha=0.3, delta=0.15, N=pop)
            cities.append((params, STRICT_MANDATE_WEEK, RELAXED_MANDATE_WEEK))
        else:
            params = SeirhdParams(beta=initial_beta, alpha=0.5, delta=0.1, N=pop)
            cities.append((params, RELAXED_MANDATE_WEEK, STRICT_MANDATE_WEEK))
    # rows: city 0 factual, city 0 counterfactual, city 1 factual, ...
    schedules = tuple(
        TreatmentSchedule(kind="binary_policy", mandate_start=mandate)
        for _, mandate_f, mandate_cf in cities
        for mandate in (mandate_f, mandate_cf)
    )
    grid = TimeGrid(t0=0.0, dt=COVID_SOLVER_DT, n_steps=round((n_weeks - 1) / COVID_SOLVER_DT))
    spec = ExpertOdeSpec(
        family="SEIRHD",
        params=tuple(params for params, _, _ in cities for _ in range(2)),
        init=np.repeat([seirhd_initial_state(pop) for _, pop in populations], 2, axis=0),
        treatment=schedules,
    )
    states = simulate_expert(spec, grid).states
    units = []
    for idx, ((city, pop), (params, mandate_f, mandate_cf)) in enumerate(zip(populations, cities)):
        factual = _covid_arm(states[:, 2 * idx], pop, params, mandate_f)
        counterfactual = _covid_arm(states[:, 2 * idx + 1], pop, params, mandate_cf)
        units.append(
            UnitRecord(
                unit_id=city,
                meta={"population": pop, "alpha": params.alpha, "delta": params.delta},
                factual=factual,
                counterfactual=counterfactual,
                treatment_factual=schedules[2 * idx],
                treatment_counterfactual=schedules[2 * idx + 1],
                group="strict" if idx in strict_ids else "relaxed",
            )
        )
    config = {
        "kind": "covid",
        "n_weeks": n_weeks,
        "initial_beta": initial_beta,
        "n_cities": n,
    }
    return Dataset(units=units, schema_version=SCHEMA_VERSION, seed=seed, config=config)


def _dex_schedule(treated: bool) -> TreatmentSchedule:
    """A single unit dose at day 3 for a treated arm, none otherwise."""
    return TreatmentSchedule(kind="dosing", doses=((3.0, 1.0),) if treated else (), k_d=5.0)


def _dex_arm(
    daily: np.ndarray,
    plasma: np.ndarray,
    treated: bool,
    mixer: CovariateMixer,
    rng: np.random.Generator,
    sigma: float,
    drop_measurements: bool,
) -> Trajectory:
    """Observed outcome, covariates and mask of one arm from its daily
    states (n_days + 1, 5) and its dose plasma level on the same days."""
    daily = daily.copy()
    times = np.arange(len(daily), dtype=float)
    # observed plasma level includes the dosing impulse contribution
    daily[:, 2] += plasma
    a = np.array([1 if (treated and t >= 3.0) else 0 for t in times])
    y_clean = daily[:, 0].copy()
    y = y_clean + sigma * rng.standard_normal(times.size)
    x = np.stack([gen_covariates(daily[k], a[k], mixer) for k in range(times.size)])
    if drop_measurements:
        observed = irregular_mask(times.size, 0.5, rng)
    else:
        observed = np.ones(times.size, dtype=bool)
    return Trajectory(times=times, y=y, x=x, a=a, observed=observed, y_clean=y_clean)


def gen_dex_dataset(
    n_patients: int = 50,
    seed: int = 0,
    sigma: float = 0.01,
    n_days: int = DEX_DAYS,
    drop_measurements: bool = True,
) -> Dataset:
    """Simulate dexamethasone patients with the full 5-variable immune model.

    Treated patients receive a single unit dose at day 3; the counterfactual
    arm flips treatment assignment. Both arms of every patient are
    integrated in one batched call; each patient draws its initial state,
    then its factual and its counterfactual noise and mask, from its own
    generator.
    """
    if n_patients < 1:
        raise ValueError("n_patients must be >= 1")
    master = np.random.default_rng([seed, 1])
    mixer = CovariateMixer.sample(d_x=1, n_latent=5, rng=master)
    treated_flags = np.zeros(n_patients, dtype=bool)
    treated_flags[master.permutation(n_patients)[: n_patients // 2]] = True
    rngs = [unit_rng(seed, i) for i in range(n_patients)]
    inits = np.array(
        [
            [
                rng.exponential(1 / 0.1),  # innate immune response
                rng.exponential(1 / 100.0),  # lung tissue drug level
                rng.exponential(1 / 100.0),  # plasma drug level
                rng.exponential(1 / 0.1),  # viral load
                rng.exponential(1 / 0.1),  # adaptive immunity
            ]
            for rng in rngs
        ]
    )
    # rows: patient 0 factual, patient 0 counterfactual, patient 1 factual, ...
    schedules = tuple(
        _dex_schedule(arm_treated)
        for treated in treated_flags
        for arm_treated in (bool(treated), not treated)
    )
    params = PkpdParams(full_model=True)
    grid = TimeGrid(t0=0.0, dt=DEX_SOLVER_DT, n_steps=round(n_days / DEX_SOLVER_DT))
    spec = ExpertOdeSpec(
        family="PKPD", params=params, init=np.repeat(inits, 2, axis=0), treatment=schedules
    )
    daily = simulate_expert(spec, grid).states[:: round(1.0 / DEX_SOLVER_DT)]
    drive = make_drive("PKPD", params, schedules)
    plasma = drive(np.arange(n_days + 1.0))
    units = []
    for i, rng in enumerate(rngs):
        treated = bool(treated_flags[i])
        # the factual arm draws its noise and mask first
        factual, counterfactual = [
            _dex_arm(daily[:, r], plasma[r], arm_treated, mixer, rng, sigma, drop_measurements)
            for r, arm_treated in ((2 * i, treated), (2 * i + 1, not treated))
        ]
        units.append(
            UnitRecord(
                unit_id=f"patient_{i:03d}",
                meta={"init": [float(v) for v in inits[i]], "treated": treated},
                factual=factual,
                counterfactual=counterfactual,
                treatment_factual=schedules[2 * i],
                treatment_counterfactual=schedules[2 * i + 1],
                group="treated" if treated else "control",
            )
        )
    config = {
        "kind": "dex",
        "n_patients": n_patients,
        "sigma": sigma,
        "n_days": n_days,
        "drop_measurements": drop_measurements,
    }
    return Dataset(units=units, schema_version=SCHEMA_VERSION, seed=seed, config=config)


# -- persistence --------------------------------------------------------


def _write_arm_csv(path: Path, units: list[UnitRecord], arm: str) -> None:
    d_x = units[0].factual.d_x
    header = ["unit_id", "t", "y"] + [f"x_{j+1}" for j in range(d_x)] + ["a", "observed_flag"]
    # the noiseless outcome is optional: an empty cell where a unit lacks it
    with_clean = any(getattr(u, arm).y_clean is not None for u in units)
    if with_clean:
        header.append("y_clean")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for unit in units:
            traj: Trajectory = getattr(unit, arm)
            for k in range(traj.horizon):
                row = [unit.unit_id, repr(float(traj.times[k])), repr(float(traj.y[k]))]
                row += [repr(float(v)) for v in traj.x[k]]
                row += [int(traj.a[k]), int(traj.observed[k])]
                if with_clean:
                    row.append("" if traj.y_clean is None else repr(float(traj.y_clean[k])))
                writer.writerow(row)


def write_dataset(dataset: Dataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_arm_csv(out / "factual.csv", dataset.units, "factual")
    _write_arm_csv(out / "counterfactual.csv", dataset.units, "counterfactual")
    manifest = {
        "schema_version": dataset.schema_version,
        "seed": dataset.seed,
        "config": dataset.config,
        "units": {
            u.unit_id: {
                "group": u.group,
                "meta": u.meta,
                "treatment_factual": u.treatment_factual.to_dict(),
                "treatment_counterfactual": u.treatment_counterfactual.to_dict(),
            }
            for u in dataset.units
        },
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)


def _read_arm_csv(path: Path) -> dict[str, Trajectory]:
    rows_by_unit: dict[str, list[list[str]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d_x = sum(1 for h in header if h.startswith("x_"))
        # files written before the y_clean column existed load without it
        clean_col = header.index("y_clean") if "y_clean" in header else None
        for row in reader:
            rows_by_unit.setdefault(row[0], []).append(row)
    out = {}
    for unit_id, rows in rows_by_unit.items():
        times = np.array([float(r[1]) for r in rows])
        y = np.array([float(r[2]) for r in rows])
        x = np.array([[float(v) for v in r[3 : 3 + d_x]] for r in rows])
        a = np.array([int(r[3 + d_x]) for r in rows])
        observed = np.array([bool(int(r[4 + d_x])) for r in rows])
        y_clean = None
        if clean_col is not None and rows[0][clean_col] != "":
            y_clean = np.array([float(r[clean_col]) for r in rows])
        out[unit_id] = Trajectory(
            times=times, y=y, x=x, a=a, observed=observed, y_clean=y_clean
        )
    return out


def read_dataset(in_dir) -> Dataset:
    src = Path(in_dir)
    with open(src / "manifest.json") as fh:
        manifest = json.load(fh)
    factual = _read_arm_csv(src / "factual.csv")
    counterfactual = _read_arm_csv(src / "counterfactual.csv")
    units = []
    for unit_id, info in manifest["units"].items():
        units.append(
            UnitRecord(
                unit_id=unit_id,
                meta=info["meta"],
                factual=factual[unit_id],
                counterfactual=counterfactual[unit_id],
                treatment_factual=TreatmentSchedule.from_dict(info["treatment_factual"]),
                treatment_counterfactual=TreatmentSchedule.from_dict(
                    info["treatment_counterfactual"]
                ),
                group=info["group"],
            )
        )
    return Dataset(
        units=units,
        schema_version=manifest["schema_version"],
        seed=manifest["seed"],
        config=manifest["config"],
    )
