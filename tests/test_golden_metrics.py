"""Golden report metrics: two small seed-0 pipelines (a dex config, whose
factual outcomes are partly unobserved, with eta selection, and a covid
config) must reproduce the ``report.json`` and ``report_unguided.json``
metrics in ``golden_metrics.json``.

The tolerance is relative 1e-9: reruns on one BLAS kernel are
byte-identical, and across OpenBLAS kernels (Haswell, Nehalem and
Sandybridge against SkylakeX) these metrics drift by at most 3e-14
relative, so 1e-9 passes every kernel while a change to the numerics
fails. After an intended change, rewrite the file with
``PYTHONPATH=src python3 tests/test_golden_metrics.py``.
"""

import json
from pathlib import Path

import pytest

from odeguide.harness import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).with_name("golden_metrics.json")
REPORTS = ("report.json", "report_unguided.json")
SMALL = {
    "seed": 0,
    "hybrid": {"m_y": 2, "m_x": 2, "hidden": [4], "epochs": 2},
    "schedule": {"t_d": 5},
    "diffusion": {"epochs": 3, "hidden": [8], "batch_size": 4},
    "guidance": {
        "eta_candidates": [0.0, 0.01],
        "nu": 0.01,
        "select": True,
        "n_val_units": 2,
        "n_val_samples": 2,
    },
}
CONFIGS = {
    "dex": {
        **SMALL,
        "dataset": {"kind": "dex", "n_units": 6, "n_days": 4},
        "evaluation": {"n_samples": 3, "test_fraction": 0.34},
    },
    "covid": {
        **SMALL,
        "dataset": {"kind": "covid", "n_units": 4, "n_weeks": 12},
        "evaluation": {"n_samples": 3, "test_fraction": 0.5},
    },
}


def _reports(name: str, out_dir) -> dict:
    run_experiment(ExperimentConfig.from_dict({**CONFIGS[name], "out_dir": str(out_dir)}))
    return {r: json.loads((Path(out_dir) / r).read_text()) for r in REPORTS}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_metrics_equal_the_golden_values(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    got = _reports(name, tmp_path)
    for report in REPORTS:
        assert got[report].keys() == want[report].keys(), report
        for key, value in want[report].items():
            assert got[report][key] == pytest.approx(value, rel=1e-9, abs=0), (report, key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: _reports(name, Path(tmp) / name) for name in sorted(CONFIGS)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
