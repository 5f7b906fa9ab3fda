"""Run the benchmark over several seeds and summarise it as one JSON file.

    python3 benchmarks/collect.py --seeds 10 --out benchmarks/baseline.json

Runs ``run.py`` once per (seed, workload), seed-major so that slow phases
of a shared machine fall on every workload alike, then one traced run per
workload on the first seed. For each end-to-end metric the summary gives
the median of the per-run values, their quartiles (``statistics.quantiles``,
n=4) and the spread (interquartile range over the median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    context = next(json.loads(ln[len("context "):]) for ln in lines if ln.startswith("context "))
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["quality"] = context["quality"]
    result["samples"] = context["samples"]
    return {"result": result, "context": context}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, default=10, help="seeds 0..n-1")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs: dict[str, list] = {n: [] for n in names}
    machine = None
    for seed in seeds:
        for name in names:
            out = run_once(name, seed, seconds, 0)
            runs[name].append(out["result"])
            machine = machine or {
                k: out["context"][k] for k in ("cpu_model", "nproc", "python", "numpy", "blas", "blas_threads", "load")
            }
            print(f"{name} seed {seed}: " + json.dumps(out["result"]["metrics"]), flush=True)
    summary = {"machine": machine, "run_seconds": seconds, "workloads": {}}
    for w in bench["workloads"]:
        name = w["name"]
        traced = run_once(name, seeds[0], seconds, 1)
        summary["workloads"][name] = {
            "why": w["why"],
            "correct": all(r["correct"] for r in runs[name]),
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **summarise([r["metrics"][m["name"]]["value"] for r in runs[name]])}
                for m in bench["end_to_end"]
            },
            "per_layer": {"seed": seeds[0], **traced["result"]},
            "span_table": traced["context"].get("span_table", {}),
            "runs": runs[name],
        }
        print(f"{name} traced: correct={traced['result']['correct']}", flush=True)
    Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    for name, s in summary["workloads"].items():
        for metric, row in s["end_to_end"].items():
            print(f"{name:<14}{metric:<13}median {row['median']:.4f}  spread {row['spread']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
