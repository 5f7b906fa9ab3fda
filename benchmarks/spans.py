"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's side only: each traced function is
replaced, for the duration of one repetition, by a wrapper installed on the
module attribute its caller looks up at call time (a function imported by
name is patched in the importing module, not where it is defined). No file
under ``src/`` is touched.

A span is (span_id, parent_id, name, start, end); the parent is the span
open when the call began. Hot functions whose time is not a metric are only
counted, which keeps the tracing overhead small.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

ROOT_SPAN = "harness.run"


class Tracer:
    """In-memory span and counter store for one repetition."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)

    def timed(self, name, fn, on_call=None):
        """Wrap ``fn`` so each call records a span named ``name``;
        ``on_call(tracer, bound_arguments)`` runs first when given."""
        sig = inspect.signature(fn) if on_call is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, sig.bind(*args, **kwargs).arguments)
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(sid)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self.stack.pop()
                self.spans[sid] = (sid, parent, name, start, end)

        return wrapper

    def counted(self, name, fn):
        """Wrap ``fn`` so each call only increments ``counts[name]``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_csv(self, path, run_id: str) -> None:
        """Write every finished span, times relative to the first span."""
        done = [s for s in self.spans if s is not None]
        t0 = min((s[3] for s in done), default=0.0)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run_id", "span_id", "parent_id", "name", "start_s", "end_s"])
            for sid, parent, name, start, end in done:
                writer.writerow([run_id, sid, parent, name, f"{start - t0:.9f}", f"{end - t0:.9f}"])


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts only spans with no ancestor of the same name, so a
    recursive layer is not counted twice. Self time is a span's duration
    minus the durations of its direct children.
    """
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _, start, end in spans:
        if parent in by_id:
            child_time[parent] += end - start
    table: dict[str, dict] = {}
    for sid, parent, name, start, end in spans:
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[sid]
        ancestor = parent
        while ancestor in by_id and by_id[ancestor][2] != name:
            ancestor = by_id[ancestor][1]
        if ancestor not in by_id:
            row["busy_s"] += end - start
    return table


def distinct_ratio(distinct: int, calls: int) -> float:
    """Share of calls whose arguments had not been seen before; 0.0 when
    there were no calls."""
    return distinct / calls if calls else 0.0


def mlp_flops(widths) -> int:
    """Multiply-add count of one dense forward pass, two flops per weight."""
    return sum(2 * a * b for a, b in zip(widths[:-1], widths[1:]))


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        data = getattr(part, "tobytes", None)
        h.update(data() if data is not None else repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _expert_key(tracer, args):
    spec = args["spec"]
    tracer.keys["expert_models.simulate_expert"].add(
        _digest(spec.family, spec.params, spec.init, spec.treatment, args["grid"], args.get("decay_lambda"))
    )


def _predict_key(tracer, args):
    tracer.keys["hybrid_cp.predict"].add(
        _digest(*(args[k] for k in ("x0", "a0", "y0", "a_seq", "times", "treatment")))
    )


def _sample_work(tracer, args):
    model, n = args["model"], args["n_samples"]
    tracer.counts["diffusion.sample.members"] += n
    if args.get("predict_fn") is None:
        steps = n * args["schedule"].t_d
        tracer.counts["diffusion.denoiser.flop"] += steps * mlp_flops(model.spec.widths)


def install(tracer: Tracer):
    """Patch every traced attribute; returns the list of originals so that
    ``uninstall`` can restore them."""
    from odeguide import datagen, diff_engine, diffusion, expert_models, guidance, harness, ode_core

    timed = [
        (harness, "gen_dex_dataset", "datagen.generate", None),
        (harness, "gen_covid_dataset", "datagen.generate", None),
        (expert_models, "integrate", "ode_core.integrate", None),
        (harness, "simulate_expert", "expert_models.simulate_expert", _expert_key),
        (datagen, "simulate_expert", "expert_models.simulate_expert", _expert_key),
        (harness, "train_hybrid", "hybrid_cp.train_hybrid", None),
        (harness, "predict", "hybrid_cp.predict", _predict_key),
        (diff_engine.Tensor, "backward", "diff_engine.backward", None),
        (diff_engine, "value_and_grad", "diff_engine.value_and_grad", None),
        (harness, "train_diffusion", "diffusion.train_diffusion", None),
        (harness, "sample", "diffusion.sample", _sample_work),
        (harness, "select_eta", "guidance.select_eta", None),
        (guidance, "grad_loss_cf", "guidance.correction", None),
        (guidance, "grad_loss_f", "guidance.correction", None),
        (harness, "align_factual", "guidance.align_factual", None),
        (harness, "dtw", "metrics.dtw", None),
        (guidance, "dtw", "metrics.dtw", None),
        (harness, "evaluate_ensembles", "metrics.evaluate", None),
        (harness, "load_regions", "harness.load_regions", None),
    ]
    counted = [
        (ode_core, "rk4_step", "ode_core.rk4_step"),
        (diffusion, "reverse_step", "diffusion.reverse_step"),
    ]
    saved = []
    for owner, attr, name, on_call in timed:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.timed(name, fn, on_call))
    for owner, attr, name in counted:
        fn = getattr(owner, attr)
        saved.append((owner, attr, fn))
        setattr(owner, attr, tracer.counted(name, fn))
    return saved


def uninstall(saved) -> None:
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced repetition (all but
    ``trace.overhead_s``, which needs the untraced runs)."""
    spans = [s for s in tracer.spans if s is not None]
    table = span_table(spans)

    def row(name):
        return table.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})

    def ratio(name):
        return distinct_ratio(len(tracer.keys[name]), row(name)["calls"])

    roots = [s for s in spans if s[2] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT_SPAN} span, found {len(roots)}")
    root_id = roots[0][0]
    top_children = sum(s[4] - s[3] for s in spans if s[1] == root_id)
    gflop = tracer.counts["diffusion.denoiser.flop"] / 1e9
    sample_busy = row("diffusion.sample")["busy_s"]
    return {
        "datagen.generate.busy_s": row("datagen.generate")["busy_s"],
        "ode_core.rk4_step.calls": tracer.counts["ode_core.rk4_step"],
        "ode_core.integrate.calls": row("ode_core.integrate")["calls"],
        "ode_core.integrate.busy_s": row("ode_core.integrate")["busy_s"],
        "expert_models.simulate_expert.calls": row("expert_models.simulate_expert")["calls"],
        "expert_models.simulate_expert.busy_s": row("expert_models.simulate_expert")["busy_s"],
        "expert_models.simulate_expert.distinct_ratio": ratio("expert_models.simulate_expert"),
        "hybrid_cp.train_hybrid.busy_s": row("hybrid_cp.train_hybrid")["busy_s"],
        "hybrid_cp.predict.calls": row("hybrid_cp.predict")["calls"],
        "hybrid_cp.predict.busy_s": row("hybrid_cp.predict")["busy_s"],
        "hybrid_cp.predict.distinct_ratio": ratio("hybrid_cp.predict"),
        "diff_engine.backward.calls": row("diff_engine.backward")["calls"],
        "diff_engine.backward.busy_s": row("diff_engine.backward")["busy_s"],
        "diff_engine.value_and_grad.calls": row("diff_engine.value_and_grad")["calls"],
        "diff_engine.value_and_grad.busy_s": row("diff_engine.value_and_grad")["busy_s"],
        "diffusion.train_diffusion.busy_s": row("diffusion.train_diffusion")["busy_s"],
        "diffusion.sample.calls": row("diffusion.sample")["calls"],
        "diffusion.sample.members": tracer.counts["diffusion.sample.members"],
        "diffusion.sample.busy_s": sample_busy,
        "diffusion.reverse_step.calls": tracer.counts["diffusion.reverse_step"],
        "diffusion.denoiser.gflop_computed": gflop,
        "diffusion.sample.gflop_per_s": gflop / sample_busy if sample_busy else 0.0,
        "guidance.select_eta.busy_s": row("guidance.select_eta")["busy_s"],
        "guidance.correction.calls": row("guidance.correction")["calls"],
        "guidance.correction.busy_s": row("guidance.correction")["busy_s"],
        "guidance.align_factual.calls": row("guidance.align_factual")["calls"],
        "guidance.align_factual.busy_s": row("guidance.align_factual")["busy_s"],
        "metrics.dtw.calls": row("metrics.dtw")["calls"],
        "metrics.dtw.busy_s": row("metrics.dtw")["busy_s"],
        "metrics.evaluate.busy_s": row("metrics.evaluate")["busy_s"],
        "harness.self_s": (roots[0][4] - roots[0][3]) - top_children,
        "harness.load_regions.busy_s": row("harness.load_regions")["busy_s"],
    }
