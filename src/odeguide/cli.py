"""Command-line entry point: dataset generation, mechanistic simulation,
staged pipeline runs, and the regional case study, all driven by JSON
config files."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .datagen import write_dataset
from .expert_models import (
    ExpertOdeSpec,
    PkpdParams,
    SeirhdParams,
    SeirmParams,
    TreatmentSchedule,
    simulate_expert,
)
from .harness import (
    CaseStudyConfig,
    ExperimentConfig,
    _load_or_generate,
    case_study,
    run_experiment,
    write_case_study_csv,
)
from .ode_core import TimeGrid

# Subcommands that run the experiment pipeline, mapped to their last stage.
_PIPELINE_STOPS = {
    "train-hybrid": "hybrid",
    "train-diff": "diffusion",
    "select-eta": "select-eta",
    "sample": "sample",
    "evaluate": None,
    "run": None,
}

_PARAM_CLASSES = {"SEIRM": SeirmParams, "SEIRHD": SeirhdParams, "PKPD": PkpdParams}
_SIMULATE_REQUIRED = {"family", "init", "treatment", "dt", "n_steps"}


def _resolve_seed(args, config):
    """``config`` with the seed of config < --seed flag < ODEGUIDE_SEED
    environment variable, checked as when the config loads."""
    seed = config.seed
    if args.seed is not None:
        seed = args.seed
    env = os.environ.get("ODEGUIDE_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            seed = env
        if isinstance(seed, str) or seed < 0:
            raise ValueError(f"ODEGUIDE_SEED: seed must be an integer >= 0, got {seed!r}")
    return replace(config, seed=seed)


def _experiment_config(args) -> ExperimentConfig:
    config = ExperimentConfig.from_file(args.config)
    config = _resolve_seed(args, config)
    if args.out is not None:
        config.out_dir = args.out
    return config


def _cmd_datagen(args) -> None:
    config = _experiment_config(args)
    dataset = _load_or_generate(config)
    write_dataset(dataset, config.out_dir)


def _cmd_simulate(args) -> None:
    with open(args.config) as fh:
        spec = json.load(fh)
    unknown = set(spec) - _SIMULATE_REQUIRED - {"params", "t0"}
    if unknown:
        raise ValueError(f"unknown simulation config keys: {sorted(unknown)}")
    missing = _SIMULATE_REQUIRED - set(spec)
    if missing:
        raise ValueError(f"simulation config is missing required keys: {sorted(missing)}")
    family = spec["family"]
    if family not in _PARAM_CLASSES:
        raise ValueError(f"unknown family {family!r}")
    params = _PARAM_CLASSES[family].from_dict(spec.get("params", {}))
    treatment = TreatmentSchedule.from_dict(spec["treatment"])
    grid = TimeGrid(
        t0=spec.get("t0", 0.0), dt=spec["dt"], n_steps=spec["n_steps"]
    )
    message = "init must be one state, a flat list of numbers"
    try:
        init = np.asarray(spec["init"], float)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{message} ({err})") from None
    if init.ndim != 1:
        raise ValueError(f"{message} (got shape {init.shape})")
    ode = ExpertOdeSpec(family=family, params=params, init=init, treatment=treatment)
    traj = simulate_expert(ode, grid)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "simulation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        dim = traj.states.shape[1]
        writer.writerow(["t"] + [f"z_{j+1}" for j in range(dim)])
        for t, row in zip(grid.times, traj.states):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def _cmd_pipeline(args) -> None:
    config = _experiment_config(args)
    run_experiment(config, stop_after=_PIPELINE_STOPS[args.command])


def _cmd_case_study(args) -> None:
    config = CaseStudyConfig.from_file(args.config)
    config = _resolve_seed(args, config)
    rows = case_study(config)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    write_case_study_csv(rows, out / "case_study.csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odeguide",
        description="Expert-ODE-guided counterfactual diffusion pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("datagen", "generate a dataset and write it to --out"),
        ("simulate", "integrate a mechanistic model from a simulation config"),
        ("train-hybrid", "run the pipeline through hybrid-predictor training"),
        ("train-diff", "run the pipeline through diffusion training"),
        ("select-eta", "run the pipeline through guidance-strength selection"),
        ("sample", "run the pipeline through counterfactual sampling"),
        ("evaluate", "run the full pipeline and write the metric report"),
        ("case-study", "run the regional neighbor-matching protocol"),
        ("run", "run the full pipeline"),
    ]
    for name, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="master seed override")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "datagen":
            _cmd_datagen(args)
        elif args.command == "simulate":
            _cmd_simulate(args)
        elif args.command == "case-study":
            _cmd_case_study(args)
        else:
            _cmd_pipeline(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
