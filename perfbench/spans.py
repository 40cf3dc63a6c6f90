"""Spans recorded around the calls pvfdi.experiment makes into each layer.

For the length of one traced run, ``Tracer.installed()`` rebinds the
names pvfdi.experiment imported (fit, inject, rmse, ...) and the class
attributes TrainedModel.predict_batch and Dataset.checksum to timing
wrappers, and puts the originals back afterwards. Nothing in the package
changes. Spans stay in memory until the benchmark writes them out.
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import pvfdi.experiment as experiment
from pvfdi.data import Dataset
from pvfdi.regressors import DEFAULT_KINDS, TrainedModel

# name imported by pvfdi.experiment -> span name ("<layer>.<call>")
MODULE_CALLS = {
    "synth_generate": "data.synth_generate",
    "load_csv": "data.load_csv",
    "split": "data.split",
    "normalize": "data.normalize",
    "fit": "regressors.fit",
    "inject": "noise.inject",
    "metric_triple": "metrics.metric_triple",
    "rmse": "metrics.rmse",
    "compute_sensitivity": "experiment.compute_sensitivity",
}
CLASS_CALLS = {
    (TrainedModel, "predict_batch"): "regressors.predict_batch",
    (Dataset, "checksum"): "data.checksum",
}
RUN = "experiment.run"
EMIT = "experiment.emit_report"

# (name, unit, better) of every per-layer metric, in report order. A kind
# or layer a workload does not run reports 0.
PER_LAYER = (
    [(f"regressors.{m}.{k}", u, "lower")
     for k in DEFAULT_KINDS
     for m, u in (("fit_s", "s"), ("predict_s", "s"), ("predict_rows", "count"))]
    + [
        ("regressors.gbrt_rounds", "count", "lower"),
        ("regressors.gbrt_tree_nodes", "count", "lower"),
        ("regressors.dt_nodes", "count", "lower"),
        ("regressors.mlpr_epochs", "count", "lower"),
        ("regressors.mlpr_stopped_early", "flag", "higher"),
        ("regressors.svr_iterations", "count", "lower"),
        ("regressors.svr_support", "count", "lower"),
        ("regressors.svr_converged", "flag", "higher"),
        ("regressors.gpr_points", "count", "lower"),
        ("regressors.gpr_jitter", "1", "lower"),
        ("regressors.gpr_subsampled", "flag", "lower"),
        ("regressors.knn_distance_pairs", "count", "lower"),
        ("data.synth_generate_s", "s", "lower"),
        ("data.load_csv_s", "s", "lower"),
        ("data.split_s", "s", "lower"),
        ("data.normalize_s", "s", "lower"),
        ("data.checksum_s", "s", "lower"),
        ("noise.inject_s", "s", "lower"),
        ("noise.inject_calls", "count", "lower"),
        ("noise.rows_injected", "count", "lower"),
        ("metrics.score_s", "s", "lower"),
        ("metrics.calls", "count", "lower"),
        ("experiment.sensitivity_s", "s", "lower"),
        ("experiment.emit_s", "s", "lower"),
        ("experiment.emit_bytes", "B", "lower"),
        ("experiment.files_written", "count", "lower"),
        ("experiment.self_s", "s", "lower"),
        ("trace.run_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)
# counts the benchmark derives by formula rather than reads from the program
COMPUTED = ("regressors.knn_distance_pairs",)


@dataclass
class Span:
    id: int
    name: str
    kind: str | None
    start: float
    end: float
    parent: int | None
    run: int
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _model_counts(model) -> dict:
    """Work counts from the public attributes of a fitted model."""
    kind = model.kind
    if kind == "SVR":
        return {"svr_iterations": model.iterations, "svr_support": model.n_support,
                "svr_converged": int(model.converged)}
    if kind == "MLPR":
        return {"mlpr_epochs": model.epochs_run,
                "mlpr_stopped_early": int(model.stopped_early)}
    if kind == "GBRT":
        return {"gbrt_rounds": model.rounds,
                "gbrt_tree_nodes": sum(tree[0].size for tree in model.trees)}
    if kind == "DT":
        return {"dt_nodes": model.n_nodes}
    if kind == "GPR":
        return {"gpr_points": model.X_train.shape[0], "gpr_jitter": model.jitter,
                "gpr_subsampled": int(model.subsampled)}
    return {}


def _kind(name, args):
    """Model kind of a fit (spec first) or predict_batch (model first) call."""
    if name in ("regressors.fit", "regressors.predict_batch"):
        return args[0].kind
    return None


def _counts(name, args, result) -> dict:
    """Work counts of one finished call."""
    if name == "regressors.fit":
        return _model_counts(result)
    if name == "regressors.predict_batch":
        model, rows = args[0], len(args[1])
        counts = {"predict_rows": rows}
        if model.kind == "KNN":
            counts["knn_distance_pairs"] = rows * model.X_train.shape[0]
        return counts
    if name == "noise.inject":
        return {"rows_injected": len(result[1])}
    return {}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._runs = 0

    @contextmanager
    def span(self, name, kind=None):
        parent = self._stack[-1] if self._stack else None
        s = Span(id=len(self.spans), name=name, kind=kind, start=0.0, end=0.0,
                 parent=parent.id if parent else None,
                 run=parent.run if parent else self._runs)
        if parent is None:
            self._runs += 1
        self.spans.append(s)
        self._stack.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, original):
        def traced(*args, **kwargs):
            with self.span(name, _kind(name, args)) as s:
                result = original(*args, **kwargs)
            s.counts = _counts(name, args, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        saved = [(experiment, attr, getattr(experiment, attr)) for attr in MODULE_CALLS]
        saved += [(cls, attr, cls.__dict__[attr]) for cls, attr in CLASS_CALLS]
        try:
            for attr, name in MODULE_CALLS.items():
                setattr(experiment, attr, self._wrap(name, getattr(experiment, attr)))
            for (cls, attr), name in CLASS_CALLS.items():
                setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def records(self) -> list:
        return [vars(s) for s in self.spans]


def _covered(spans) -> float:
    """Seconds of the union of the spans' intervals."""
    total, reach = 0.0, float("-inf")
    for s in sorted(spans, key=lambda s: s.start):
        if s.end > reach:
            total += s.end - max(s.start, reach)
            reach = s.end
    return total


def layer_metrics(tracer: Tracer, root: Span) -> dict:
    """Per-layer values of one traced run, from the root's direct children.

    Nested spans are part of their parent's time and are not counted
    again. experiment.self_s is the root's time not covered by a child.
    """
    out = {name: 0 for name, _, _ in PER_LAYER}
    children = [s for s in tracer.spans if s.parent == root.id]

    def add(metric, value):
        out[metric] += value

    for s in children:
        layer, call = s.name.split(".", 1)
        if s.name == "regressors.fit":
            add(f"regressors.fit_s.{s.kind}", s.seconds)
        elif s.name == "regressors.predict_batch":
            add(f"regressors.predict_s.{s.kind}", s.seconds)
            add(f"regressors.predict_rows.{s.kind}", s.counts["predict_rows"])
        elif layer == "data":
            add(f"data.{call}_s", s.seconds)
        elif layer == "noise":
            add("noise.inject_s", s.seconds)
            add("noise.inject_calls", 1)
        elif layer == "metrics":
            add("metrics.score_s", s.seconds)
            add("metrics.calls", 1)
        elif s.name == EMIT:
            add("experiment.emit_s", s.seconds)
        else:  # experiment.compute_sensitivity
            add("experiment.sensitivity_s", s.seconds)
        for key, value in s.counts.items():
            if key != "predict_rows":
                add(f"{layer}.{key}", value)
    out["experiment.self_s"] = root.seconds - _covered(children)
    out["trace.run_s"] = root.seconds
    out["trace.spans"] = sum(1 for s in tracer.spans if s.run == root.run)
    return out
