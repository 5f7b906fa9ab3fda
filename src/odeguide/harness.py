"""Config-driven experiment runner: dataset plumbing, the full
train/select/sample/evaluate pipeline with artifact persistence, and the
regional case-study protocol based on neighbor matching."""

from __future__ import annotations

import csv
import hashlib
import json
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
)
from .diffusion import (
    ConditioningContext,
    DiffusionTrainConfig,
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
    calibration_score,
    cate_rmse,
    dtw,  # unused here; benchmarks/spans.py wraps harness.dtw
    dtw_cost,
    pearson,
    pi_coverage,
    wasserstein1,
)
from .ode_core import TimeGrid

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


_SECTION_KEYS = {
    "dataset": {
        "kind",
        "path",
        "n_units",
        "sigma",
        "n_days",
        "n_weeks",
        "drop_measurements",
        "initial_beta",
    },
    "expert": None,  # validated by the parameter dataclasses
    "hybrid": {f.name for f in fields(HybridCpConfig)},
    "schedule": {"t_d", "beta_start", "beta_end", "lambda_const"},
    "diffusion": {"epochs", "lr", "batch_size", "hidden", "n_freq"},
    "guidance": {
        "eta",
        "nu",
        "eta_candidates",
        "use_value",
        "use_direction",
        "select",
        "n_val_units",
        "n_val_samples",
    },
    "evaluation": {"n_samples", "test_fraction"},
}
# counts that must be integers >= 1, as (section, key)
_COUNT_KEYS = (
    ("guidance", "n_val_units"),
    ("guidance", "n_val_samples"),
    ("evaluation", "n_samples"),
    ("hybrid", "n_substeps"),
    ("diffusion", "epochs"),
    ("diffusion", "batch_size"),
)


@dataclass
class ExperimentConfig:
    """Everything a run needs; every hyperparameter default is overridable."""

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
            if section is None or allowed is None:
                continue
            unknown = set(section) - allowed
            if unknown:
                raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
        for name, key in _COUNT_KEYS:
            value = (getattr(self, name) or {}).get(key, 1)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"{name}.{key} must be an integer >= 1, got {value!r}")
        fraction = self.evaluation.get("test_fraction", 0.2)
        if isinstance(fraction, bool) or not isinstance(fraction, (int, float)) or not 0 < fraction < 1:
            raise ValueError(f"evaluation.test_fraction must lie in (0, 1), got {fraction!r}")
        if "path" in self.dataset:
            path = Path(self.dataset["path"])
            if not path.exists():
                raise FileNotFoundError(f"dataset path {path} does not exist")
        elif self.dataset.get("kind") not in ("dex", "covid"):
            raise ValueError("dataset needs a 'path' or a 'kind' of 'dex' or 'covid'")

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

    def to_json(self) -> str:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        return json.dumps(data, sort_keys=True, indent=2)


# -- pipeline pieces ----------------------------------------------------


def _load_or_generate(config: ExperimentConfig) -> Dataset:
    ds = config.dataset
    if "path" in ds:
        return read_dataset(ds["path"])
    if ds["kind"] == "dex":
        return gen_dex_dataset(
            n_patients=ds.get("n_units", 50),
            seed=config.seed,
            sigma=ds.get("sigma", 0.01),
            n_days=ds.get("n_days", 14),
            drop_measurements=ds.get("drop_measurements", True),
        )
    populations = None
    if "n_units" in ds:
        from .datagen import synthetic_census

        populations = synthetic_census(n_cities=ds["n_units"], seed=config.seed)
    return gen_covid_dataset(
        populations=populations,
        seed=config.seed,
        n_weeks=ds.get("n_weeks", 52),
        initial_beta=ds.get("initial_beta", 0.5),
    )


def _expert_setup(kind: str, overrides: dict):
    """Expert family, parameters, a canonical initial state for guidance
    simulations, and the mechanistic solver step."""
    if kind == "dex":
        params = PkpdParams.from_dict({**overrides}) if overrides else PkpdParams()
        init = np.array([10.0, 0.01, 0.01, 10.0])
        return "PKPD", params, init, DEX_SOLVER_DT
    defaults = {"beta": 0.5, "alpha": 0.3, "gamma": 0.25, "mu": 0.02, "N": 1000.0}
    params = SeirmParams.from_dict({**defaults, **overrides})
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


def _per_time_wasserstein(ensembles: list[np.ndarray], truths: list[np.ndarray]) -> float:
    T = truths[0].size
    vals = []
    for t in range(T):
        gen = np.concatenate([e[:, t] for e in ensembles])
        true = np.array([tr[t] for tr in truths])
        vals.append(wasserstein1(gen, true))
    return float(np.mean(vals))


def evaluate_ensembles(
    ensembles: list[np.ndarray], units: list[UnitRecord]
) -> MetricReport:
    """Score counterfactual ensembles (original units) against the held-out
    counterfactual arms."""
    if len(ensembles) != len(units) or not units:
        raise ValueError("need one ensemble per evaluated unit")
    for ens, unit in zip(ensembles, units):
        if not np.all(np.isfinite(ens)):
            raise ValueError(f"evaluate: ensemble of unit {unit.unit_id!r} is not finite")
    truths = []
    effects_est, effects_true = [], []
    means = []
    for ens, unit in zip(ensembles, units):
        cf = unit.counterfactual
        truth = cf.y_clean if cf.y_clean is not None else cf.y
        truths.append(np.asarray(truth, float))
        means.append(ens.mean(axis=0))
        f_clean = unit.factual.y_clean if unit.factual.y_clean is not None else unit.factual.y
        effects_est.append(np.asarray(unit.factual.y, float) - ens.mean(axis=0))
        effects_true.append(np.asarray(f_clean, float) - truths[-1])
    mean_cat = np.concatenate(means)
    truth_cat = np.concatenate(truths)
    rmse = float(np.sqrt(np.mean((mean_cat - truth_cat) ** 2)))
    corr = pearson(mean_cat, truth_cat)
    cov = {
        lvl: float(np.mean([pi_coverage(e, t, lvl) for e, t in zip(ensembles, truths)]))
        for lvl in (0.75, 0.90, 0.95)
    }
    calib = float(np.mean([calibration_score(e, t) for e, t in zip(ensembles, truths)]))
    return MetricReport(
        wasserstein1=_per_time_wasserstein(ensembles, truths),
        rmse=rmse,
        pi_coverage_75=cov[0.75],
        pi_coverage_90=cov[0.90],
        pi_coverage_95=cov[0.95],
        cate_rmse=cate_rmse(np.concatenate(effects_est), np.concatenate(effects_true)),
        calibration_score=calib,
        pearson_corr=corr,
        n_samples=int(ensembles[0].shape[0]),
        n_units=len(units),
    )


def _write_ensembles_csv(path: Path, unit_ids, times, ensembles) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "sample_id", "t", "y"])
        for uid, ens in zip(unit_ids, ensembles):
            for s in range(ens.shape[0]):
                for k, t in enumerate(times):
                    writer.writerow([uid, s, repr(float(t)), repr(float(ens[s, k]))])


def _content_hash(config: ExperimentConfig) -> str:
    h = hashlib.sha256(config.to_json().encode())
    if "path" in config.dataset:
        root = Path(config.dataset["path"])
        for p in sorted(root.rglob("*")):
            if p.is_file():
                h.update(p.name.encode())
                h.update(p.read_bytes())
    return h.hexdigest()


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
    if any(not np.array_equal(u.factual.times, units[0].factual.times) for u in units):
        raise ValueError("all units must share one time grid")
    ev = config.evaluation
    rng = np.random.default_rng([config.seed, 23])
    n_test = min(max(1, round(ev.get("test_fraction", 0.2) * n)), n - 1)
    perm = rng.permutation(n)
    state["test_units"] = [units[i] for i in perm[:n_test]]
    state["train_units"] = [units[i] for i in perm[n_test:]]
    state["dataset"] = dataset
    state["times"] = units[0].factual.times
    state["d_x"] = units[0].factual.d_x
    kind = dataset.config.get("kind", config.dataset.get("kind", "dex"))
    state["expert"] = _expert_setup(kind, config.expert)
    meta["n_train"], meta["n_test"] = len(state["train_units"]), n_test


def _stage_hybrid(config, state, out, meta):
    family, params, _, _ = state["expert"]
    cfg_kwargs = dict(config.hybrid)
    if "hidden" in cfg_kwargs:
        cfg_kwargs["hidden"] = tuple(cfg_kwargs["hidden"])
    cfg = HybridCpConfig(**cfg_kwargs)
    model = make_hybrid_model(family, params, state["d_x"], cfg, seed=config.seed)
    train_ds = Dataset(
        units=state["train_units"], schema_version=1, seed=config.seed, config={}
    )
    model, losses = train_hybrid(model, train_ds)
    model.params.save(out / "checkpoints" / "hybrid.json")
    state["hybrid"] = model
    meta["hybrid_final_loss"] = losses[-1]


def _stage_propensity(config, state, out, meta):
    train_ds = Dataset(
        units=state["train_units"], schema_version=1, seed=config.seed, config={}
    )
    prop = fit_propensity(train_ds)
    state["weights"] = np.array(
        [propensity_weight(prop, u) for u in state["train_units"]]
    )
    meta["mean_iptw_weight"] = float(state["weights"].mean())


def _unit_inputs(state, units: list[UnitRecord], arm: str, guided: bool = False):
    """Per-unit inputs of one sampling stage, each kind built by one batched
    call.

    Conditioning: the scaled hybrid prediction of every unit's ``arm`` from
    one ``predict`` rollout, started from the factual initial observation
    (all that is available at deployment). Guidance, when ``guided``: the
    aligned mechanistic signals, pre-divergence window and scaled factual
    outcome of every unit. A mechanistic curve depends only on its schedule
    (the initial state and parameters are the run's), so the schedules not
    yet in the run's ``expert_curves`` are simulated in one call and kept.
    Returns the conditioning list and the guidance list, or None for the
    latter when not ``guided``.
    """
    trajs = [getattr(u, arm) for u in units]
    y_p, x_p = predict(
        state["hybrid"],
        np.stack([u.factual.x[0] for u in units]),
        [float(tr.a[0]) for tr in trajs],
        [float(u.factual.y[0]) for u in units],
        np.stack([tr.a for tr in trajs]),
        state["times"],
        [getattr(u, f"treatment_{arm}") for u in units],
    )
    y_s, x_s = state["y_scaler"], state["x_scalers"]
    x_scaled = np.stack([x_s[j].transform(x_p[..., j]) for j in range(x_p.shape[-1])], axis=-1)
    conds = [
        ConditioningContext(y_prime=y_s.transform(y), x=x, a=np.asarray(tr.a, float))
        for y, x, tr in zip(y_p, x_scaled, trajs)
    ]
    if not guided:
        return conds, None
    curves = state.setdefault("expert_curves", {})
    arms = [tr for u in units for tr in (u.treatment_factual, u.treatment_counterfactual)]
    new = list(dict.fromkeys(tr for tr in arms if tr not in curves))
    if new:
        family, params, init, dt = state["expert"]
        curves.update(zip(new, _expert_outcomes(family, params, init, new, state["times"], dt)))
    guidance = []
    for unit in units:
        f_sim, cf_sim = curves[unit.treatment_factual], curves[unit.treatment_counterfactual]
        _, aligned_f, aligned_cf = align_factual(f_sim, unit.factual.y, cf_sim)
        signals = ExpertGuidanceSignals(
            f_cf=y_s.transform(aligned_cf), f_f=y_s.transform(aligned_f)
        )
        window = FactualWindow.before_divergence(unit.factual.a, unit.counterfactual.a)
        guidance.append((signals, window, y_s.transform(unit.factual.y)))
    return conds, guidance


def _stage_diffusion(config, state, out, meta):
    train_units = state["train_units"]
    y_obs = np.concatenate([u.factual.y[u.factual.observed] for u in train_units])
    state["y_scaler"] = Scaler.fit(y_obs)
    d_x = state["d_x"]
    state["x_scalers"] = [
        Scaler.fit(
            np.concatenate([u.factual.x[u.factual.observed, j] for u in train_units])
        )
        for j in range(d_x)
    ]
    sched_kwargs = dict(config.schedule)
    state["schedule"] = make_schedule(**sched_kwargs)
    horizon = state["times"].size
    diff = dict(config.diffusion)
    denoiser = make_denoiser(
        horizon,
        d_x,
        hidden=tuple(diff.get("hidden", (64, 64, 64))),
        seed=config.seed,
        n_freq=diff.get("n_freq", 8),
    )
    y0_rows = np.stack([state["y_scaler"].transform(u.factual.y) for u in train_units])
    conds, _ = _unit_inputs(state, train_units, "factual")
    cond_rows = np.stack([c.vector() for c in conds])
    mask_rows = np.stack([u.factual.observed.astype(float) for u in train_units])
    train_cfg = DiffusionTrainConfig(
        epochs=diff.get("epochs", 200),
        lr=diff.get("lr", 1e-3),
        batch_size=diff.get("batch_size", 64),
    )
    denoiser, losses = train_diffusion(
        denoiser,
        y0_rows,
        cond_rows,
        mask_rows,
        state["weights"],
        state["schedule"],
        train_cfg,
        seed=config.seed,
    )
    denoiser.params.save(out / "checkpoints" / "denoiser.json")
    state["denoiser"] = denoiser
    meta["diffusion_final_loss"] = losses[-1]


def _guidance_config(config) -> GuidanceConfig:
    g = config.guidance
    kwargs = {
        k: g[k] for k in ("eta", "nu", "use_value", "use_direction") if k in g
    }
    if "eta_candidates" in g:
        kwargs["eta_candidates"] = tuple(float(v) for v in g["eta_candidates"])
    return GuidanceConfig(**kwargs)


def _guided_samples(state, cond, guidance, eta, nu, n_samples, seed) -> np.ndarray:
    """Guided ensemble of one unit from its ``_unit_inputs``; (K, 1, 1)
    ``eta`` and ``nu`` columns give K ensembles, (K, n_samples, T), that
    share the seed's noise."""
    signals, window, y0_f = guidance
    guide = make_guide_fn(y0_f, signals, window, state["gcfg"], eta=eta, nu=nu)
    return sample(state["denoiser"], cond, state["schedule"], n_samples, seed, guide).samples


def _stage_select_eta(config, state, out, meta):
    sweep_path = out / "eta_sweep.csv"
    sweep_path.write_text("eta,correlation\n")
    if config.guidance is None:
        state["eta"] = None
        return
    g = config.guidance
    gcfg = _guidance_config(config)
    state["gcfg"] = gcfg
    if not g.get("select", False):
        state["eta"] = gcfg.eta
        return
    n_val = min(g.get("n_val_units", 3), len(state["train_units"]))
    n_val_samples = g.get("n_val_samples", 10)
    val_units = state["train_units"][-n_val:]
    y_s = state["y_scaler"]
    target = np.concatenate(
        [
            y_s.transform(
                u.counterfactual.y_clean
                if u.counterfactual.y_clean is not None
                else u.counterfactual.y
            )
            for u in val_units
        ]
    )
    # one stacked reverse pass per validation unit covers every candidate
    etas = sorted(gcfg.eta_candidates)
    column = np.asarray(etas, float)[:, None, None]
    conds, guidance = _unit_inputs(state, val_units, "counterfactual", guided=True)
    passes = [
        _guided_samples(state, c, g, column, gcfg.nu, n_val_samples, _unit_seed(config.seed, 41, i))
        for i, (c, g) in enumerate(zip(conds, guidance))
    ]

    def sampler(eta, _seed):
        # select_eta hands back config.seed, which the passes above used
        k = etas.index(eta)
        return np.concatenate([p[k] for p in passes], axis=1)

    eta, entries = select_eta(gcfg, sampler, target, config.seed)
    with open(sweep_path, "a", newline="") as fh:
        writer = csv.writer(fh)
        for e in entries:
            writer.writerow([repr(e.eta), repr(e.correlation)])
    state["eta"] = eta
    meta["chosen_eta"] = eta


def _stage_sample(config, state, out, meta):
    n_samples = config.evaluation.get("n_samples", 100)
    times = state["times"]
    y_s = state["y_scaler"]
    guided, unguided = [], []
    unit_ids = [u.unit_id for u in state["test_units"]]
    conds, guidance = _unit_inputs(
        state, state["test_units"], "counterfactual", guided=config.guidance is not None
    )
    if config.guidance is not None:
        # one stacked pass per unit: row 0 has zero strengths and is
        # bitwise the unguided ensemble, row 1 is the guided one
        eta = np.array([0.0, state["eta"]])[:, None, None]
        nu = np.array([0.0, state["gcfg"].nu])[:, None, None]
    for i, cond in enumerate(conds):
        seed_u = _unit_seed(config.seed, 29, i)
        if config.guidance is None:
            base = sample(state["denoiser"], cond, state["schedule"], n_samples, seed_u)
            unguided.append(y_s.inverse(base.samples))
        else:
            ens = _guided_samples(state, cond, guidance[i], eta, nu, n_samples, seed_u)
            unguided.append(y_s.inverse(ens[0]))
            guided.append(y_s.inverse(ens[1]))
    state["unguided"] = unguided
    if config.guidance is not None:
        state["guided"] = guided
        _write_ensembles_csv(out / "ensembles.csv", unit_ids, times, guided)
        _write_ensembles_csv(out / "ensembles_unguided.csv", unit_ids, times, unguided)
    else:
        _write_ensembles_csv(out / "ensembles.csv", unit_ids, times, unguided)


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
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be >= 1")
        if self.train_weeks < 1:
            raise ValueError("train_weeks must be >= 1")
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
class RegionSeries:
    region: str
    deaths: np.ndarray
    hospitalizations: np.ndarray
    policy: np.ndarray


@dataclass
class CaseStudyRow:
    region: str
    proxy_wd: float | None
    model_wd: float | None
    skipped: str | None
    neighbors: list


def load_regions(path) -> list[RegionSeries]:
    """Parse the (region, week, deaths_per_capita, hospitalizations, policy)
    CSV into per-region series ordered by week. Every region must list each
    week once, and the same weeks as the first region."""
    rows: dict[str, list] = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            week, policy = int(rec["week"]), int(rec["policy"])
            if policy not in (0, 1):
                raise ValueError(
                    f"region {rec['region']!r} has policy {policy} in week {week}; "
                    "policy must be 0 or 1"
                )
            rows.setdefault(rec["region"], []).append(
                (week, float(rec["deaths_per_capita"]), float(rec["hospitalizations"]), policy)
            )
    if not rows:
        raise ValueError("region file contains no rows")
    out = []
    grid = None
    for region, recs in rows.items():
        recs.sort()
        weeks = [r[0] for r in recs]
        if weeks != grid:
            if len(set(weeks)) < len(weeks):
                raise ValueError(f"region {region!r} lists a week more than once")
            if grid is not None:
                raise ValueError(f"region {region!r} does not have the weeks of region {first!r}")
            grid, first = weeks, region
        deaths = np.array([r[1] for r in recs])
        hospitalizations = np.array([r[2] for r in recs])
        finite = np.isfinite(deaths) & np.isfinite(hospitalizations)
        if not finite.all():
            week = recs[int(np.argmin(finite))][0]
            raise ValueError(f"region {region!r} has a non-finite value in week {week}")
        out.append(RegionSeries(region, deaths, hospitalizations, np.array([r[3] for r in recs])))
    return out


def _dominant_policy(series: RegionSeries, train_weeks: int) -> int:
    """Majority policy over the post-period weeks (ties count as weak)."""
    post = series.policy[train_weeks:]
    return int(np.sum(post) * 2 > post.size)


def case_study(
    config: CaseStudyConfig, model_fn=None
) -> list[CaseStudyRow]:
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
    by_name = {r.region: r for r in regions}
    if isinstance(config.test_regions, str):
        n = int(config.test_regions.partition(":")[2])
        rng = np.random.default_rng([config.seed, 31])
        names = sorted(by_name)
        picks = rng.permutation(len(names))[: min(n, len(names))]
        test_names = [names[i] for i in sorted(picks)]
    else:
        test_names = list(config.test_regions)
        missing = [t for t in test_names if t not in by_name]
        if missing:
            raise ValueError(f"unknown test regions: {missing}")
    w = config.train_weeks
    pre = np.stack([r.deaths[:w] for r in regions])
    results = []
    for name in test_names:
        costs = dtw_cost(by_name[name].deaths[:w], pre).tolist()
        dists = sorted((c, r.region) for c, r in zip(costs, regions) if r.region != name)
        neighbors = [by_name[r] for _, r in dists[: config.k_neighbors]]
        strong = [n for n in neighbors if _dominant_policy(n, w) == 1]
        weak = [n for n in neighbors if _dominant_policy(n, w) == 0]
        neighbor_names = [n.region for n in neighbors]
        if not strong or not weak:
            results.append(
                CaseStudyRow(
                    region=name,
                    proxy_wd=None,
                    model_wd=None,
                    skipped="no policy-diverse neighbors",
                    neighbors=neighbor_names,
                )
            )
            continue
        strong_mean = np.mean([n.deaths[w:] for n in strong], axis=0)
        weak_mean = np.mean([n.deaths[w:] for n in weak], axis=0)
        proxy = wasserstein1(strong_mean, weak_mean)
        model_wd = None
        if model_fn is not None:
            model_wd = wasserstein1(model_fn(name, 1), model_fn(name, 0))
        results.append(
            CaseStudyRow(
                region=name,
                proxy_wd=proxy,
                model_wd=model_wd,
                skipped=None,
                neighbors=neighbor_names,
            )
        )
    return results


def write_case_study_csv(rows: list[CaseStudyRow], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "proxy_wd", "model_wd", "skipped"])
        for row in rows:
            writer.writerow(
                [
                    row.region,
                    "" if row.proxy_wd is None else repr(row.proxy_wd),
                    "" if row.model_wd is None else repr(row.model_wd),
                    row.skipped or "",
                ]
            )
