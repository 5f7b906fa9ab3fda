"""The three benchmark workloads: their inputs, built from the seed alone,
one repetition of each through the public API, and the checks on its
outputs.

Pipelines run from in-memory ``dataset.kind`` configs. A dataset written by
``write_dataset`` and read back by ``read_dataset`` loses ``y_clean``, so a
round-tripped run would score against noisy truth: a different program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import resource
from pathlib import Path
from time import perf_counter

import numpy as np

from odeguide import harness

WHY = {
    "dex_pipeline": (
        "hybrid training is about 60% of it, so batching the hybrid predictor "
        "must show here and sampling changes should barely register"
    ),
    "covid_guided": (
        "sampling, autodiff guidance and per-candidate expert simulations are about "
        "two thirds of it at T=52, the hybrid a quarter; vectorised closed-form guidance must show here"
    ),
    "case_study": (
        "cost-only 25x25 DTWs are about 98% of it, with no training or diffusion; "
        "model-layer changes should read as no change"
    ),
}

# The criterion-9 dex preset and the covid config are scaled so that one
# repetition takes seconds, not a minute (three repetitions must fit one
# run): 12 patients and 3 hybrid epochs instead of 50 and 8, 6 cities
# instead of 8, and fewer validation and evaluation samples. The preset's
# 0.2 eta candidate is dropped because it exceeds the relation loss's step
# bound 2/lambda_max ~ 0.17.
PIPELINES = {
    "dex_pipeline": {
        "dataset": {"kind": "dex", "n_units": 12, "n_days": 14},
        "hybrid": {"m_y": 4, "m_x": 4, "hidden": [16, 16], "epochs": 3},
        "schedule": {"t_d": 50, "beta_end": 0.2},
        "diffusion": {"epochs": 150, "hidden": [64, 64]},
        "guidance": {
            "eta_candidates": [0.0, 0.005, 0.01, 0.02, 0.05, 0.1],
            "nu": 0.01,
            "select": True,
            "n_val_units": 2,
            "n_val_samples": 3,
        },
        "evaluation": {"n_samples": 10, "test_fraction": 0.2},
    },
    "covid_guided": {
        "dataset": {"kind": "covid", "n_units": 6, "n_weeks": 52},
        "hybrid": {"m_y": 2, "m_x": 2, "hidden": [8], "epochs": 1},
        "schedule": {"t_d": 50, "beta_end": 0.2},
        "diffusion": {"epochs": 100, "hidden": [64, 64]},
        "guidance": {
            "eta_candidates": [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.15],
            "nu": 0.01,
            "select": True,
            "n_val_units": 2,
            "n_val_samples": 3,
        },
        "evaluation": {"n_samples": 10, "test_fraction": 0.5},
    },
}
PIPELINE_ARTIFACTS = (
    "report.json",
    "report_unguided.json",
    "ensembles.csv",
    "ensembles_unguided.csv",
    "eta_sweep.csv",
)

# Regional panel for the case study.
N_REGIONS = 120
N_WEEKS = 52
TRAIN_WEEKS = 25
K_NEIGHBORS = 5
N_TEST_REGIONS = 40
PLANTED_SHIFT = 0.5  # post-period deaths per 1000, strong minus weak policy
SHIFT_TOLERANCE = 1e-9
CASE_STUDY_CSV = "case_study.csv"

SETUPS_PER_REP = {"dex_pipeline": 2, "covid_guided": 2, "case_study": 5}
NAMES = tuple(WHY)


def pipeline_config(name: str, seed: int, out_dir) -> harness.ExperimentConfig:
    return harness.ExperimentConfig.from_dict(
        {**PIPELINES[name], "seed": seed, "out_dir": str(out_dir)}
    )


def write_panel(path, seed: int) -> None:
    """Seeded regional panel: every region has its own pre-period curve (a
    logistic rise with its own height, rate and midpoint), and after
    ``TRAIN_WEEKS`` all regions follow one shared curve, raised by
    ``PLANTED_SHIFT`` in the strong-policy group. The neighbor proxy of any
    scored region is then exactly the planted shift."""
    rng = np.random.default_rng([seed, 4242])
    strong = rng.permutation(N_REGIONS) < N_REGIONS // 2
    height = rng.uniform(0.5, 2.0, N_REGIONS)
    rate = rng.uniform(0.15, 0.45, N_REGIONS)
    midpoint = rng.uniform(6.0, 20.0, N_REGIONS)
    weeks = np.arange(N_WEEKS)
    shared_post = 2.0 + 0.05 * (weeks - TRAIN_WEEKS) + 0.1 * np.sin(weeks / 4.0)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["region", "week", "deaths_per_capita", "hospitalizations", "policy"])
        for r in range(N_REGIONS):
            pre = height[r] / (1.0 + np.exp(-rate[r] * (weeks - midpoint[r])))
            post = shared_post + PLANTED_SHIFT * strong[r]
            deaths = np.where(weeks < TRAIN_WEEKS, pre, post)
            hosp = np.abs(np.diff(deaths, prepend=0.0)) * 10.0
            policy = np.where(weeks < TRAIN_WEEKS, 0, int(strong[r]))
            for t in range(N_WEEKS):
                writer.writerow(
                    [f"region_{r:03d}", t, repr(float(deaths[t])), repr(float(hosp[t])), int(policy[t])]
                )


def digest_files(out_dir: Path, names) -> dict[str, str]:
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest() for n in names}


def _finite_report(path: Path) -> dict:
    report = json.loads(path.read_text())
    bad = [k for k, v in report.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{path.name} has non-finite fields {bad}")
    return report


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pipeline(name: str, seed: int, work: Path, n_setups: int, run_hook=None) -> dict:
    """One repetition: the timed full run, then ``n_setups`` timed data
    stages in the now warm process. ``run_hook`` wraps the full run (the
    tracer uses it)."""
    out = work / "run"
    cfg = pipeline_config(name, seed, out)
    t0 = perf_counter()
    if run_hook is None:
        harness.run_experiment(cfg)
    else:
        run_hook(lambda: harness.run_experiment(cfg))
    run_s = perf_counter() - t0
    rss = peak_rss_mb()
    setup_s = []
    for j in range(n_setups):
        cfg = pipeline_config(name, seed, work / f"setup{j}")
        t0 = perf_counter()
        harness.run_experiment(cfg, stop_after="data")
        setup_s.append(perf_counter() - t0)
    guided = _finite_report(out / "report.json")
    unguided = _finite_report(out / "report_unguided.json")
    meta = json.loads((out / "run_meta.json").read_text())
    quality = {"chosen_eta": meta.get("chosen_eta")}
    for label, rep in (("guided", guided), ("unguided", unguided)):
        for key in ("wasserstein1", "pearson_corr", "pi_coverage_90"):
            quality[f"{label}.{key}"] = rep[key]
    return {
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "digests": digest_files(out, PIPELINE_ARTIFACTS),
        "quality": quality,
    }


def run_case_study(seed: int, work: Path, n_setups: int, run_hook=None) -> dict:
    """One repetition: write the panel, time ``case_study`` plus the CSV
    write, then time ``load_regions`` ``n_setups`` times, and check that the
    scored rows recover the planted shift."""
    panel = work / "regions.csv"
    write_panel(panel, seed)
    cfg = harness.CaseStudyConfig(
        region_csv=str(panel),
        train_weeks=TRAIN_WEEKS,
        k_neighbors=K_NEIGHBORS,
        test_regions=f"random:{N_TEST_REGIONS}",
        seed=seed,
    )
    out = work / CASE_STUDY_CSV

    def call():
        harness.write_case_study_csv(harness.case_study(cfg), out)

    t0 = perf_counter()
    call() if run_hook is None else run_hook(call)
    run_s = perf_counter() - t0
    rss = peak_rss_mb()
    setup_s = []
    for _ in range(n_setups):
        t0 = perf_counter()
        harness.load_regions(panel)
        setup_s.append(perf_counter() - t0)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    scored = [float(r["proxy_wd"]) for r in rows if not r["skipped"]]
    if len(rows) != N_TEST_REGIONS or not scored:
        raise ValueError(f"{len(rows)} rows, {len(scored)} scored")
    error = max(abs(p - PLANTED_SHIFT) for p in scored)
    if not error <= SHIFT_TOLERANCE:
        raise ValueError(f"proxy misses the planted shift {PLANTED_SHIFT} by {error}")
    return {
        "run_s": run_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "digests": digest_files(work, [CASE_STUDY_CSV]),
        "quality": {"scored": len(scored), "skipped": len(rows) - len(scored), "max_shift_error": error},
    }


def run_workload(name: str, seed: int, work: Path, n_setups: int, run_hook=None) -> dict:
    if name == "case_study":
        return run_case_study(seed, work, n_setups, run_hook)
    return run_pipeline(name, seed, work, n_setups, run_hook)
