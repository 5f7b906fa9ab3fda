"""Config-driven experiment runner: dataset plumbing, the full
train/select/sample/evaluate pipeline with artifact persistence, and the
regional case-study protocol based on neighbor matching."""

from __future__ import annotations

import contextlib
import csv
import ctypes
import hashlib
import json
import platform
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .datagen import (
    COVID_SOLVER_DT,
    DEX_SOLVER_DT,
    Dataset,
    UnitRecord,
    gen_covid_dataset,
    gen_dex_dataset,
    read_dataset,
    stack_arm,
    synthetic_census,
)
from .diff_engine import check_count, check_rate
from .diffusion import (
    ConditioningContext,
    DiffusionTrainConfig,
    PropensityModel,
    fit_propensity,
    make_denoiser,
    make_schedule,
    propensity_weight,
    sample,
    train_diffusion,
)
from .expert_models import (
    ExpertOdeSpec,
    PkpdParams,
    SeirmParams,
    TreatmentSchedule,
    simulate_expert,
)
from .guidance import (
    ExpertGuidanceSignals,
    FactualWindow,
    GuidanceConfig,
    align_factual,
    make_guide_fn,
    select_eta,
)
from .hybrid_cp import HybridCpConfig, make_hybrid_model, predict, train_hybrid
from .metrics import (
    MetricReport,
    cate_rmse,
    dtw,  # unused here; benchmarks/spans.py wraps harness.dtw
    dtw_nearest,
    interval_scores,
    pearson,
    wasserstein1,
    wasserstein1_rows,
)
from .ode_core import TimeGrid
from .regions import load_regions  # benchmarks/spans.py wraps harness.load_regions

STAGE_ORDER = ("data", "hybrid", "propensity", "diffusion", "select-eta", "sample", "evaluate")


class StageError(RuntimeError):
    """Pipeline failure carrying the name of the stage that raised."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"stage {stage!r} failed: {message}")
        self.stage = stage


@dataclass(frozen=True)
class Scaler:
    """Z-score transform fitted on training values."""

    mean: float
    std: float

    @classmethod
    def fit(cls, values) -> "Scaler":
        v = np.asarray(values, float).ravel()
        if v.size == 0:
            raise ValueError("cannot fit a scaler to no values")
        return cls(mean=float(v.mean()), std=float(max(v.std(), 1e-12)))

    def transform(self, v):
        return (np.asarray(v, float) - self.mean) / self.std

    def inverse(self, v):
        return np.asarray(v, float) * self.std + self.mean


# the dataset keys each source reads
_DATASET_KEYS = {
    "path": {"path", "kind"},
    "dex": {"kind", "n_units", "sigma", "n_days", "drop_measurements"},
    "covid": {"kind", "n_units", "n_weeks", "initial_beta"},
}
_SECTION_KEYS = {
    "dataset": set().union(*_DATASET_KEYS.values()),
    "expert": None,  # validated by the parameter dataclasses
    "hybrid": {f.name for f in fields(HybridCpConfig)},
    "schedule": {"t_d", "beta_start", "beta_end"},
    "diffusion": {f.name for f in fields(DiffusionTrainConfig)},
    "guidance": {f.name for f in fields(GuidanceConfig)},
    "evaluation": {"n_samples", "test_fraction"},
}


@dataclass
class ExperimentConfig:
    """Everything a run needs; every hyperparameter default is overridable.
    Loading builds ``hybrid_config``, ``diffusion_config``,
    ``diffusion_schedule`` and ``guidance_config`` (None without guidance),
    each of which checks its own fields; the sections stay as given."""

    dataset: dict
    out_dir: str
    seed: int = 0
    expert: dict = field(default_factory=dict)
    hybrid: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    diffusion: dict = field(default_factory=dict)
    guidance: dict | None = None
    evaluation: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, allowed in _SECTION_KEYS.items():
            section = getattr(self, name)
            if section is None and name == "guidance":
                continue
            if not isinstance(section, dict):
                raise ValueError(f"config section {name!r} must be a mapping, got {section!r}")
            if allowed is None:
                continue
            unknown = set(section) - allowed
            if unknown:
                raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
        check_count("seed", self.seed, 0)
        # evaluation needs two samples per unit for an interval
        check_count("evaluation.n_samples", self.evaluation.get("n_samples", 2), 2)
        check_rate("evaluation.test_fraction", self.evaluation.get("test_fraction", 0.2), 1)
        self.hybrid_config = HybridCpConfig(**self.hybrid)
        self.diffusion_config = DiffusionTrainConfig(**self.diffusion)
        self.diffusion_schedule = make_schedule(**self.schedule)
        self.guidance_config = None if self.guidance is None else GuidanceConfig(**self.guidance)
        source = "path" if "path" in self.dataset else self.dataset.get("kind")
        if source not in ("path", "dex", "covid"):  # a tuple: ``kind`` may be unhashable
            raise ValueError("dataset needs a 'path' or a 'kind' of 'dex' or 'covid'")
        extra = set(self.dataset) - _DATASET_KEYS[source]
        if extra:
            raise ValueError(f"dataset keys {sorted(extra)} do not apply to a {source!r} dataset")
        if source != "path":  # a stored dataset names its kind only when read
            _expert_setup(source, self.expert)
        elif not Path(self.dataset["path"]).exists():
            raise FileNotFoundError(f"dataset path {self.dataset['path']} does not exist")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self, omit=()) -> str:
        data = {f.name: getattr(self, f.name) for f in fields(self) if f.name not in omit}
        return json.dumps(data, sort_keys=True, indent=2)


# -- pipeline pieces ----------------------------------------------------


def _load_or_generate(config: ExperimentConfig) -> Dataset:
    """Read the dataset, or generate it with the keys the config sets and
    the generator's defaults for the rest."""
    ds = {k: v for k, v in config.dataset.items() if k != "kind"}
    if "path" in ds:
        return read_dataset(ds["path"])
    if config.dataset["kind"] == "dex":
        if "n_units" in ds:
            ds["n_patients"] = ds.pop("n_units")
        return gen_dex_dataset(seed=config.seed, **ds)
    if "n_units" in ds:
        ds["populations"] = synthetic_census(n_cities=ds.pop("n_units"), seed=config.seed)
    return gen_covid_dataset(seed=config.seed, **ds)


def _expert_setup(kind: str, overrides: dict):
    """Expert family, parameters, a canonical initial state for guidance
    simulations, and the mechanistic solver step."""
    if kind == "dex":
        params = PkpdParams.from_dict(overrides, "expert")
        init = np.array([10.0, 0.01, 0.01, 10.0])
        return "PKPD", params, init, DEX_SOLVER_DT
    defaults = {"beta": 0.5, "alpha": 0.3, "gamma": 0.25, "mu": 0.02, "N": 1000.0}
    params = SeirmParams.from_dict({**defaults, **overrides}, "expert")
    n = params.N
    init = np.array(
        [n - n * (0.0015 + 0.0024 + 5e-7 + 1e-7), n * 0.0015, n * 0.0024, n * 5e-7, n * 1e-7]
    )
    return "SEIRM", params, init, COVID_SOLVER_DT


def _expert_outcomes(
    family: str,
    params,
    init: np.ndarray,
    treatments: list[TreatmentSchedule],
    times: np.ndarray,
    dt: float,
) -> np.ndarray:
    """Mechanistic outcome curves on the data grid, one row per treatment
    schedule: one batched fine integration from the shared initial state,
    subsampled at observation times."""
    t0 = float(times[0])
    n_fine = round((float(times[-1]) - t0) / dt)
    grid = TimeGrid(t0=t0, dt=dt, n_steps=n_fine)
    spec = ExpertOdeSpec(
        family=family,
        params=params,
        init=np.tile(init, (len(treatments), 1)),
        treatment=tuple(treatments),
    )
    traj = simulate_expert(spec, grid)
    idx = [round((float(t) - t0) / dt) for t in times]
    states = traj.states[idx]  # (T, rows, dim)
    if family == "PKPD":
        return states[:, :, 0].T
    return (states[:, :, 4] / params.N * 1000.0).T


def _unit_seed(seed: int, *key: int) -> int:
    """Stable scalar sub-seed from a composite key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def evaluate_ensembles(ensembles, units: list[UnitRecord]) -> MetricReport:
    """Score the (U, n_samples, T) counterfactual ensembles of ``units``
    (original scale; a list of U (n_samples, T) arrays also works) against
    their held-out counterfactual arms, clean where known; the treatment
    effect is scored on each unit's observed factual points."""
    ens = np.asarray(ensembles, float)
    if len(ens) != len(units) or not units:
        raise ValueError("need one ensemble per evaluated unit")
    finite = np.isfinite(ens).reshape(len(units), -1).all(axis=1)
    if not finite.all():
        unit = units[int(np.argmin(finite))]
        raise ValueError(f"evaluate: ensemble of unit {unit.unit_id!r} is not finite")
    f, truths = stack_arm(units, "factual"), stack_arm(units, "counterfactual").y_clean
    means, obs = ens.mean(axis=1), f.observed
    per_unit = [interval_scores(e, t) for e, t in zip(ens, truths)]
    cov75, cov90, cov95, calib = (float(np.mean(unit_scores)) for unit_scores in zip(*per_unit))
    pooled = ens.transpose(2, 0, 1).reshape(ens.shape[2], -1)  # (T, units x samples)
    return MetricReport(
        wasserstein1=float(np.mean(wasserstein1_rows(pooled, truths.T))),
        rmse=float(np.sqrt(np.mean((means - truths) ** 2))),
        pi_coverage_75=cov75,
        pi_coverage_90=cov90,
        pi_coverage_95=cov95,
        cate_rmse=cate_rmse(f.y[obs] - means[obs], f.y_clean[obs] - truths[obs]),
        calibration_score=calib,
        pearson_corr=pearson(means, truths),
        n_samples=ens.shape[1],
        n_units=len(units),
    )


def _write_ensembles_csv(path: Path, unit_ids, times, ensembles) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "sample_id", "t", "y"])
        stamps = [repr(float(t)) for t in times]
        for uid, ens in zip(unit_ids, ensembles):
            rows = enumerate(ens.tolist())
            writer.writerows([uid, s, t, repr(y)] for s, r in rows for t, y in zip(stamps, r))


def _content_hash(config: ExperimentConfig) -> str:
    """SHA-256 of the config but its ``out_dir`` and of every file under its
    dataset ``path``: the same inputs hash alike wherever a run writes."""
    h = hashlib.sha256(config.to_json(omit={"out_dir"}).encode())
    if "path" in config.dataset:
        root = Path(config.dataset["path"])
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(p.name.encode())
                h.update(p.read_bytes())
    return h.hexdigest()


def _numerics() -> dict:
    """What fixes a run's bits beside its inputs: the kernel of numpy's
    OpenBLAS, the SIMD target of numpy's power (the Hill terms with a
    non-integer exponent), and the versions; "unknown" where numpy does not say."""
    info = {"numpy_version": np.__version__, "python_version": platform.python_version()}
    info["blas_core"] = info["power_simd"] = "unknown"
    with contextlib.suppress(StopIteration, OSError, AttributeError):
        lib = ctypes.CDLL(str(next(Path(np.__file__).parent.with_name("numpy.libs").glob("*openblas*"))))
        lib.scipy_openblas_get_corename64_.restype = ctypes.c_char_p
        info["blas_core"] = lib.scipy_openblas_get_corename64_().decode()
    with contextlib.suppress(ImportError, KeyError, ValueError):
        from numpy.lib.introspect import opt_func_info

        (power,) = opt_func_info(func_name="power", signature="d")["power"].values()
        info["power_simd"] = power["current"]
    return info


# -- the runner ---------------------------------------------------------


def run_experiment(
    config: ExperimentConfig, stop_after: str | None = None
) -> MetricReport | None:
    """Run generate/load -> train -> select -> sample -> evaluate, writing
    every artifact under ``config.out_dir``.

    With guidance configured, unguided ensembles and their report are
    persisted alongside the guided ones (the no-guidance ablation).
    Any stage failure raises StageError after persisting partial logs.
    """
    if stop_after is not None and stop_after not in STAGE_ORDER:
        raise ValueError(f"unknown stage {stop_after!r}")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "checkpoints").mkdir(exist_ok=True)
    (out / "config.json").write_text(config.to_json())
    meta: dict = {"seed": config.seed, "content_hash": _content_hash(config), "stages": []}
    meta.update(_numerics())

    def _finish_meta():
        (out / "run_meta.json").write_text(json.dumps(meta, sort_keys=True, indent=2))

    def _log(line: str):
        meta["stages"].append(line)
        with open(out / "log.txt", "a") as fh:
            fh.write(line + "\n")

    (out / "log.txt").write_text("")
    state: dict = {}
    try:
        for stage in STAGE_ORDER:
            try:
                _STAGES[stage](config, state, out, meta)
            except StageError:
                raise
            except Exception as exc:
                raise StageError(stage, str(exc)) from exc
            _log(f"{stage}: ok")
            if stage == stop_after:
                break
    finally:
        _finish_meta()
    return state.get("report")


def _stage_data(config, state, out, meta):
    dataset = _load_or_generate(config)
    units = dataset.units
    n = len(units)
    if n < 2:
        raise ValueError(f"need at least 2 units to hold out a test unit, got {n}")
    # the hybrid predictor integrates all units together on one grid
    factual = stack_arm(units, "factual")
    times, history = factual.times, PropensityModel.history_length
    if times.size < history:
        raise ValueError(f"the grid has {times.size} points; the propensity model needs {history}")
    for u in units:
        f = u.factual
        # every rollout and the hybrid encoders start from y[0] and x[0]
        if not f.observed[0]:
            raise ValueError(f"unit {u.unit_id!r} has an unobserved first factual point")
        if not (np.isfinite(f.y[f.observed]).all() and np.isfinite(f.x[f.observed]).all()):
            raise ValueError(f"unit {u.unit_id!r} has a non-finite factual y or x at an observed point")
        # ensembles are sampled on the factual grid and scored against this arm
        if not np.array_equal(u.counterfactual.times, times):
            raise ValueError(f"unit {u.unit_id!r} has counterfactual times off the factual grid")
    rng = np.random.default_rng([config.seed, 23])
    n_test = min(max(1, round(config.evaluation.get("test_fraction", 0.2) * n)), n - 1)
    perm = rng.permutation(n)
    # both arms of every unit, stacked once; stages take rows by index
    state["units"], state["factual"] = units, factual
    state["counterfactual"] = stack_arm(units, "counterfactual")
    state["test_rows"], state["train_rows"] = perm[:n_test], perm[n_test:]
    state["test_units"] = [units[i] for i in perm[:n_test]]
    train_units = [units[i] for i in perm[n_test:]]
    state["train"] = Dataset(units=train_units, schema_version=1, seed=config.seed, config={})
    state["times"] = times
    kind = dataset.config.get("kind", config.dataset.get("kind", "dex"))
    state["expert"] = _expert_setup(kind, config.expert)
    meta["n_train"], meta["n_test"] = len(train_units), n_test


def _stage_hybrid(config, state, out, meta):
    family, params, _, _ = state["expert"]
    model = make_hybrid_model(family, params, state["factual"].d_x, config.hybrid_config, config.seed)
    model, losses = train_hybrid(model, state["train"])
    (out / "checkpoints" / "hybrid.json").write_text(model.params.to_json())
    state["hybrid"] = model
    meta["hybrid_final_loss"] = losses[-1]


def _stage_propensity(config, state, out, meta):
    train_units = state["train"].units
    prop = fit_propensity(state["train"])
    state["weights"] = np.array([propensity_weight(prop, u) for u in train_units])
    finite = np.isfinite(state["weights"])
    if not finite.all():
        unit = train_units[int(np.argmin(finite))]
        raise ValueError(f"unit {unit.unit_id!r} has a non-finite IPTW weight")
    meta["mean_iptw_weight"] = float(state["weights"].mean())


def _unit_inputs(state, rows, arm: str, guided: bool = False):
    """Inputs of one sampling stage for the run's units ``rows`` (indices
    into ``state["units"]`` and its stacked arms), stacked on a leading unit
    axis, each kind built by one batched call.

    Conditioning: the scaled hybrid prediction of every unit's ``arm``,
    started from the factual initial observation (all that is available at
    deployment); the first call rolls out both arms of every unit of the run
    in one row-invariant ``predict`` call, all factual rows then all
    counterfactual rows, and keeps them for later stages. Guidance, when
    ``guided``: the aligned mechanistic signals, pre-divergence window and
    scaled factual outcome of every unit, each (U, 1, T), aligned on the
    observed scaled outcome by one call. The factual outcome is interpolated
    linearly in time between its observed points, so no unobserved outcome
    reaches guidance. A mechanistic curve depends only on its schedule (the
    initial state and parameters are the run's), so the schedules not yet
    in the run's ``expert_curves`` are simulated in one call and kept.
    Returns the conditioning context and the guidance triple, or None for
    the latter when not ``guided``.
    """
    f, times = state["factual"], state["times"]
    if "predictions" not in state:
        sides = ("factual", "counterfactual")
        both = [state[side] for side in sides]
        y_all, x_all = predict(
            state["hybrid"],
            np.concatenate([f.x[:, 0]] * 2),
            np.concatenate([tr.a[:, 0] for tr in both]),
            np.concatenate([f.y[:, 0]] * 2),
            np.concatenate([tr.a for tr in both]),
            times,
            [getattr(u, f"treatment_{side}") for side in sides for u in state["units"]],
        )
        state["predictions"] = dict(zip(sides, zip(np.split(y_all, 2), np.split(x_all, 2))))
    y_p, x_p = (v[rows] for v in state["predictions"][arm])
    y_s, x_s = state["y_scaler"], state["x_scalers"]
    x_scaled = np.stack([x_s[j].transform(x_p[..., j]) for j in range(x_p.shape[-1])], axis=-1)
    a = state[arm].a[rows].astype(float)
    cond = ConditioningContext(y_prime=y_s.transform(y_p), x=x_scaled, a=a)
    if not guided:
        return cond, None
    curves = state.setdefault("expert_curves", {})
    units = [state["units"][i] for i in rows]
    schedules = [tr for u in units for tr in (u.treatment_factual, u.treatment_counterfactual)]
    new = list(dict.fromkeys(tr for tr in schedules if tr not in curves))
    if new:
        family, params, init, dt = state["expert"]
        curves.update(zip(new, _expert_outcomes(family, params, init, new, times, dt)))
    f_sim, cf_sim = (np.stack([curves[tr] for tr in schedules[side::2]]) for side in (0, 1))
    observed = f.observed[rows]
    y_f = np.stack([np.interp(times, times[m], y[m]) for y, m in zip(f.y[rows], observed)])
    y_f = y_s.transform(y_f)
    _, f_f, f_cf = align_factual(f_sim, cf_sim, y_f, observed)
    signals = ExpertGuidanceSignals(f_cf=f_cf[:, None], f_f=f_f[:, None])  # (U, 1, T)
    a_cf = state["counterfactual"].a[rows]
    window = FactualWindow.before_divergence(f.a[rows][:, None], a_cf[:, None])
    return cond, (signals, window, y_f[:, None])


def _stage_diffusion(config, state, out, meta):
    rows, f = state["train_rows"], state["factual"]
    y, observed = f.y[rows], f.observed[rows]
    state["y_scaler"] = Scaler.fit(y[observed])
    state["x_scalers"] = [Scaler.fit(column) for column in f.x[rows][observed].T]
    cfg = config.diffusion_config
    denoiser = make_denoiser(f.horizon, f.d_x, cfg.hidden, seed=config.seed)
    cond, _ = _unit_inputs(state, rows, "factual")
    denoiser, losses = train_diffusion(
        denoiser,
        state["y_scaler"].transform(y),
        cond.vector(),
        observed.astype(float),
        state["weights"],
        config.diffusion_schedule,
        cfg,
        seed=config.seed,
    )
    (out / "checkpoints" / "denoiser.json").write_text(denoiser.params.to_json())
    state["denoiser"] = denoiser
    meta["diffusion_final_loss"] = losses[-1]


def _stacked_samples(config, state, rows, key, n_samples, eta=None, nu=None) -> np.ndarray:
    """One reverse pass over the run's units ``rows``, each unit drawing
    from its own sub-seed ``(config.seed, key, i)``; (K, 1, 1, 1) ``eta``
    and ``nu`` columns guide K stacked copies, (K, U, n_samples, T), that
    share the noise. Unguided when ``eta`` is None: (U, n_samples, T)."""
    cond, guidance = _unit_inputs(state, rows, "counterfactual", guided=eta is not None)
    guide = None
    if eta is not None:
        signals, window, y_f = guidance
        guide = make_guide_fn(y_f, signals, window, config.guidance_config, eta=eta, nu=nu)
    seeds = [_unit_seed(config.seed, key, i) for i in range(len(rows))]
    return sample(state["denoiser"], cond, config.diffusion_schedule, n_samples, seeds, guide).samples


def _stage_select_eta(config, state, out, meta):
    sweep_path = out / "eta_sweep.csv"
    sweep_path.write_text("eta,correlation\n")
    gcfg = config.guidance_config
    if gcfg is None or not gcfg.select:
        state["eta"] = None if gcfg is None else gcfg.eta
        return
    val = state["train_rows"][-gcfg.n_val_units :]  # all of them if fewer
    # an oracle target, the true counterfactual, until eta is chosen from factual data alone
    target = state["y_scaler"].transform(state["counterfactual"].y_clean[val]).ravel()
    # one stacked reverse pass: validation units x candidates
    etas = sorted(gcfg.eta_candidates)
    column = np.asarray(etas, float)[:, None, None, None]
    ens = _stacked_samples(config, state, val, 41, gcfg.n_val_samples, column, gcfg.nu)

    def sampler(eta, _seed):
        # select_eta hands back config.seed, which the pass above used;
        # the units' ensembles side by side, (n_samples, U * T)
        return np.concatenate(ens[etas.index(eta)], axis=1)

    eta, entries = select_eta(gcfg, sampler, target, config.seed)
    with open(sweep_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        for e in entries:
            writer.writerow([repr(e.eta), repr(e.correlation)])
    state["eta"] = eta
    meta["chosen_eta"] = eta


def _stage_sample(config, state, out, meta):
    n_samples = config.evaluation.get("n_samples", 100)
    rows = state["test_rows"]
    unit_ids = [u.unit_id for u in state["test_units"]]
    y_s = state["y_scaler"]
    if config.guidance is None:
        state["unguided"] = y_s.inverse(_stacked_samples(config, state, rows, 29, n_samples))
        _write_ensembles_csv(out / "ensembles.csv", unit_ids, state["times"], state["unguided"])
        return
    # one stacked pass: copy 0 has zero strengths and is bitwise the
    # unguided ensemble, copy 1 is the guided one
    eta = np.array([0.0, state["eta"]])[:, None, None, None]
    nu = np.array([0.0, config.guidance_config.nu])[:, None, None, None]
    unguided, guided = y_s.inverse(_stacked_samples(config, state, rows, 29, n_samples, eta, nu))
    state["unguided"], state["guided"] = unguided, guided
    _write_ensembles_csv(out / "ensembles.csv", unit_ids, state["times"], guided)
    _write_ensembles_csv(out / "ensembles_unguided.csv", unit_ids, state["times"], unguided)


def _stage_evaluate(config, state, out, meta):
    units = state["test_units"]
    primary = state.get("guided", state["unguided"])
    report = evaluate_ensembles(primary, units)
    (out / "report.json").write_text(report.to_json())
    (out / "report.csv").write_text(report.to_csv_row())
    if config.guidance is not None:
        unguided_report = evaluate_ensembles(state["unguided"], units)
        (out / "report_unguided.json").write_text(unguided_report.to_json())
        state["report_unguided"] = unguided_report
    state["report"] = report


_STAGES = {
    "data": _stage_data,
    "hybrid": _stage_hybrid,
    "propensity": _stage_propensity,
    "diffusion": _stage_diffusion,
    "select-eta": _stage_select_eta,
    "sample": _stage_sample,
    "evaluate": _stage_evaluate,
}


# -- case study ---------------------------------------------------------


@dataclass
class CaseStudyConfig:
    """Neighbor-matching evaluation settings for regional policy data."""

    region_csv: str
    train_weeks: int = 25
    k_neighbors: int = 5
    test_regions: list | str = "random:10"
    seed: int = 0

    def __post_init__(self):
        for name, low in (("train_weeks", 1), ("k_neighbors", 1), ("seed", 0)):
            check_count(name, getattr(self, name), low)
        if isinstance(self.test_regions, str):
            head, _, count = self.test_regions.partition(":")
            if head != "random" or not count.isdecimal() or int(count) < 1:
                raise ValueError("test_regions must be a list or 'random:n' with n >= 1")

    @classmethod
    def from_file(cls, path) -> "CaseStudyConfig":
        with open(path) as fh:
            data = json.load(fh)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown case-study keys: {sorted(unknown)}")
        return cls(**data)


@dataclass
class CaseStudyRow:
    region: str
    proxy_wd: float | None
    model_wd: float | None
    skipped: str | None
    neighbors: list


def case_study(config: CaseStudyConfig, model_fn=None) -> list[CaseStudyRow]:
    """Compare neighbor-derived and model-derived policy-effect sizes.

    Per test region: elastic-alignment distance over the first
    ``train_weeks`` of the death series picks the ``k_neighbors`` closest
    other regions; neighbors split by dominant post-period policy; the
    proxy effect is the distribution distance between the two groups'
    mean post-period curves. ``model_fn(region, policy) -> mean curve``
    supplies the model's forced-policy counterfactual means, compared the
    same way. Regions without both policy groups among their neighbors
    are skipped with a reason.
    """
    regions = load_regions(config.region_csv)
    if not config.train_weeks < regions[0].deaths.size:
        raise ValueError("train_weeks must be smaller than the series length")
    row_of = {r.region: i for i, r in enumerate(regions)}
    names = sorted(row_of)
    if isinstance(config.test_regions, str):
        n = int(config.test_regions.partition(":")[2])
        rng = np.random.default_rng([config.seed, 31])
        picks = rng.permutation(len(names))[: min(n, len(names))]
        test_names = [names[i] for i in sorted(picks)]
    else:
        test_names = list(config.test_regions)
        missing = [t for t in test_names if t not in row_of]
        if missing:
            raise ValueError(f"unknown test regions: {missing}")
    w, k = config.train_weeks, config.k_neighbors
    pre = np.stack([r.deaths[:w] for r in regions])
    post = np.stack([r.policy[w:] for r in regions])
    dominant = (post.sum(axis=1) * 2 > post.shape[1]).tolist()  # majority policy, a tie weak
    name_rank = np.argsort([row_of[n] for n in names])  # breaks equal costs by name
    tests = [row_of[t] for t in test_names]
    # each test region's k + 1 nearest regions, itself among them or not
    ranked = dtw_nearest(pre[tests], pre, k + 1, name_rank).tolist()
    results, means = [], []
    for name, i, row in zip(test_names, tests, ranked):
        near = [j for j in row if j != i][:k]
        groups = [[regions[j].deaths[w:] for j in near if dominant[j] == p] for p in (True, False)]
        model_wd = skipped = None
        if all(groups):  # the strong and the weak neighbors' mean post-period curves
            means.append([np.mean(g, axis=0) for g in groups])
            if model_fn is not None:
                model_wd = wasserstein1(model_fn(name, 1), model_fn(name, 0))
        else:
            skipped = "no policy-diverse neighbors"
        results.append(CaseStudyRow(name, None, model_wd, skipped, [regions[j].region for j in near]))
    if means:
        proxies = wasserstein1_rows(*np.transpose(means, (1, 0, 2)))
        for row, proxy in zip([r for r in results if r.skipped is None], proxies.tolist()):
            row.proxy_wd = proxy
    return results


def write_case_study_csv(rows: list[CaseStudyRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "proxy_wd", "model_wd", "skipped"])
        for row in rows:
            wds = ["" if wd is None else repr(wd) for wd in (row.proxy_wd, row.model_wd)]
            writer.writerow([row.region, *wds, row.skipped or ""])
