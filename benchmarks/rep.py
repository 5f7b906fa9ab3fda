"""One benchmark repetition in its own process; prints one JSON line.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src`` and the BLAS
thread count already pinned in the environment. Peak RSS is this process's
high-water mark right after the full run.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import spans
import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--setups", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-csv", default=None)
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    result: dict = {"ok": True}
    tracer = spans.Tracer() if args.trace else None
    run_hook = None
    if tracer is not None:
        def run_hook(call):
            saved = spans.install(tracer)
            try:
                tracer.timed(spans.ROOT_SPAN, call)()
            finally:
                spans.uninstall(saved)
    try:
        result.update(workloads.run_workload(args.workload, args.seed, work, args.setups, run_hook))
        if tracer is not None:
            done = [s for s in tracer.spans if s is not None]
            result["layers"] = spans.layer_metrics(tracer)
            result["span_table"] = spans.span_table(done)
            if args.spans_csv:
                tracer.write_csv(args.spans_csv, args.run_id)
    except Exception as exc:  # one failed repetition is one failed operation
        traceback.print_exc(file=sys.stderr)
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
