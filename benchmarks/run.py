"""Pipeline benchmark for odeguide.

    python3 benchmarks/run.py --workload dex_pipeline --seed 0 --seconds 40 --trace 0

Runs one workload as a closed loop with one client: repetitions run one at
a time, each in a fresh process (``rep.py``), until ``--seconds`` would be
exceeded, with at least ``MIN_REPS`` repetitions. One repetition is one
operation; it fails if it raises, returns a non-finite report, or writes
artifacts that are not byte-identical to the first successful repetition.

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics; spans go to ``benchmarks/_work/<workload>/``. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = 1  # pinned; never above nproc
MIN_REPS = 3  # untraced repetitions per run, for a median
MIN_TRACED_PAIRS = 1
CHILD_TIMEOUT_S = 60
HARD_LIMIT_S = 170  # every run ends within 180 s, hung repetitions included
EXACT_SUFFIXES = (".calls", ".members", ".distinct_ratio", ".gflop_computed")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".members")):
        return "count"
    if name.endswith(".distinct_ratio"):
        return "ratio"
    if name.endswith(".gflop_computed"):
        return "GFLOP"
    if name.endswith(".gflop_per_s"):
        return "GFLOP/s"
    return "s"


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for key in BLAS_ENV:
        env[key] = str(BLAS_THREADS)
    return env


def run_child(
    workload: str, seed: int, work: Path, setups: int, trace: int, timeout: float, spans_csv=None, run_id=""
) -> dict:
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--work", str(work),
        "--setups", str(setups), "--trace", str(trace),
    ]
    if spans_csv is not None:
        cmd += ["--spans-csv", str(spans_csv), "--run-id", run_id]
    t0 = perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": "timed out", "wall_s": perf_counter() - t0}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall = perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"ok": False, "error": f"exit code {proc.returncode}", "wall_s": wall}
    result = json.loads(lines[-1])
    if not result["ok"]:
        sys.stderr.write(proc.stderr)
    result["wall_s"] = wall
    return result


def mark_mismatches(reps: list[dict], field: str, select=lambda v: v) -> None:
    """Fail every successful repetition whose ``field`` differs from the
    first successful one's."""
    ok = [r for r in reps if r["ok"]]
    if not ok:
        return
    ref = select(ok[0][field])
    for r in ok[1:]:
        if select(r[field]) != ref:
            r["ok"] = False
            r["error"] = f"{field} differ from the first repetition"


def exact_counts(layers: dict) -> dict:
    """The per-layer metrics that must repeat exactly."""
    return {k: v for k, v in layers.items() if k.endswith(EXACT_SUFFIXES)}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def machine_context(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "load": "closed loop, one client, one repetition per process",
    }


def measure(workload: str, seed: int, seconds: float, trace: int, setups: int, work: Path) -> tuple[list, list]:
    """Run repetitions until the budget would be exceeded; returns the
    untraced and traced repetitions."""
    untraced, traced = [], []
    start = perf_counter()

    def timeout():
        return max(1.0, min(CHILD_TIMEOUT_S, HARD_LIMIT_S - (perf_counter() - start)))

    k = 0
    while True:
        t0 = perf_counter()
        untraced.append(run_child(workload, seed, work / f"rep{k}", setups, 0, timeout()))
        if trace:
            run_id = f"{workload}-seed{seed}-rep{k}"
            spans_csv = work / f"spans-{run_id}.csv"
            traced.append(run_child(workload, seed, work / f"rep{k}t", 0, 1, timeout(), spans_csv, run_id))
        k += 1
        step = perf_counter() - t0
        elapsed = perf_counter() - start
        done = len(traced) >= MIN_TRACED_PAIRS if trace else len(untraced) >= MIN_REPS
        if elapsed + step > HARD_LIMIT_S or (done and elapsed + step > seconds):
            return untraced, traced


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "odeguide" / "harness.py").is_file():
        print(f"odeguide sources not found under {SRC}", file=sys.stderr)
        return 2
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setups = 0 if args.trace else workloads.SETUPS_PER_REP[args.workload]
    untraced, traced = measure(args.workload, args.seed, args.seconds, args.trace, setups, work)
    reps = untraced + traced
    mark_mismatches(reps, "digests")
    mark_mismatches(traced, "layers", exact_counts)
    ok_untraced = [r for r in untraced if r["ok"]]
    ok_traced = [r for r in traced if r["ok"]]
    failed = sum(not r["ok"] for r in reps)

    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    if not args.trace:
        samples = {
            "run_s": [r["run_s"] for r in ok_untraced],
            "setup_s": [s for r in ok_untraced for s in r["setup_s"]],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok_untraced],
        }
        units = dict(END_TO_END_UNITS)
    elif ok_traced:
        for name in ok_traced[0]["layers"]:
            samples[name] = [r["layers"][name] for r in ok_traced]
        if ok_untraced:
            overhead = statistics.median(r["run_s"] for r in ok_traced) - statistics.median(
                r["run_s"] for r in ok_untraced
            )
            samples["trace.overhead_s"] = [overhead]
        units = {name: layer_unit(name) for name in samples}
    metrics = {
        name: {"value": vals[0] if name.endswith(EXACT_SUFFIXES) else statistics.median(vals), "unit": units[name]}
        for name, vals in samples.items()
        if vals
    }

    context = machine_context(args.seed)
    context["workload"] = args.workload
    context["why"] = workloads.WHY[args.workload]
    context["samples"] = {name: len(vals) for name, vals in samples.items()}
    context["quartiles"] = {name: quartiles(vals) for name, vals in samples.items()}
    context["quality"] = [r["quality"] for r in ok_untraced]
    context["errors"] = [r["error"] for r in reps if not r["ok"]]
    if ok_traced:
        names = sorted({n for r in ok_traced for n in r["span_table"]})
        context["span_table"] = {
            n: {
                col: statistics.median(r["span_table"].get(n, {}).get(col, 0.0) for r in ok_traced)
                for col in ("calls", "busy_s", "self_s")
            }
            for n in names
        }
        print(f"{'span':<34}{'calls':>10}{'busy_s':>12}{'self_s':>12}")
        for n, row in context["span_table"].items():
            print(f"{n:<34}{row['calls']:>10.0f}{row['busy_s']:>12.4f}{row['self_s']:>12.4f}")
    for name, m in metrics.items():
        print(f"{name:<46}{m['value']:>16.6g} {m['unit']:<8} n={len(samples[name])}")
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "samples": samples, "metrics": metrics}, indent=2)
    )
    print("context " + json.dumps(context, sort_keys=True))
    correct = failed == 0 and bool(ok_untraced) and (bool(ok_traced) or not args.trace)
    print(json.dumps({"correct": correct, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
