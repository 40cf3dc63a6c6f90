"""Benchmark orchestration: clean metrics, noise sweep, sensitivity, emission.

The pipeline is a pure function of (dataset bytes, config): load or
generate data, split, min-max normalize from the training side, fit
every requested model once, evaluate on the clean test set and on each
noise-injected variant, and derive sensitivity percentages from the
RMSE grid. Each model's fit and evaluations form one job; the jobs run
in one forked worker process per usable CPU, or in this process where a
pool would have one worker or could not be forked safely, and give the
same bytes either way. Emission is byte-deterministic: float cells use
repr, key order is fixed, and no timestamps are written.
"""

import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, SplitConfig, load_csv, normalize, split, synth_generate
from .errors import IoError, ZeroBaseline
from .metrics import EvaluationSeries, metric_triple, percent_change, rmse
from .noise import NoiseConfig, inject
from .regressors import DEFAULT_KINDS, ModelSpec, fit
from .regressors.base import is_count
from .rng import derive_seed

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_clean_benchmark",
    "run_noise_sweep",
    "compute_sensitivity",
    "emit_report",
    "fraction_label",
    "sensitivity_label",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on besides the dataset bytes themselves.

    ``data_path`` None means synthetic data of ``synth_n`` samples. All
    randomness (synth draw, split, noise, model seeds) flows from
    ``seed`` through purpose-labeled streams unless individual
    ModelSpecs carry their own seeds. Construction raises ValueError for
    fractions that do not start at 0.0 or that repeat, and for a
    non-integer ``repeats`` or ``synth_n``; empty ``noise_columns`` become None.
    """

    data_path: str | None = None
    synth_n: int = 10_000
    seed: int = 0
    train_ratio: float = 0.8
    models: tuple = None  # None -> the eight default kinds
    fractions: tuple = (0.0, 0.1, 0.5, 1.0)
    noise_mean: float = NoiseConfig.mean
    noise_std: float = NoiseConfig.std
    noise_target: str = NoiseConfig.target
    noise_columns: tuple | None = NoiseConfig.columns
    repeats: int = 1
    clamp_predictions: bool = False

    def __post_init__(self):
        fractions = tuple(float(f) for f in self.fractions)
        if not fractions or fractions[0] != 0.0:
            raise ValueError("fractions must start with 0.0")
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ValueError("fractions must lie in [0, 1]")
        if len(set(fractions)) != len(fractions):
            raise ValueError("fractions must not repeat")
        object.__setattr__(self, "fractions", fractions)
        if self.models is not None:
            models = tuple(self.models)
            if not models:
                raise ValueError("at least one model is required")
            object.__setattr__(self, "models", models)
        if not (is_count(self.repeats) and self.repeats >= 1):
            raise ValueError("repeats must be an integer >= 1")
        if not is_count(self.synth_n):
            raise ValueError("synth_n must be an integer")
        # fail fast on bad noise parameters; fraction filled per sweep step
        noise = NoiseConfig(fraction=0.0, mean=self.noise_mean, std=self.noise_std,
                            target=self.noise_target, columns=self.noise_columns)
        object.__setattr__(self, "noise_columns", noise.columns)

    def model_specs(self) -> tuple:
        if self.models is not None:
            return self.models
        return tuple(ModelSpec(kind, seed=self.seed) for kind in DEFAULT_KINDS)


@dataclass
class ExperimentReport:
    """Assembled results; tables are keyed by model name, config order."""

    model_order: tuple = ()
    clean_table: dict = field(default_factory=dict)       # name -> MetricTriple
    noise_table: dict = field(default_factory=dict)       # name -> {fraction: rmse}
    sensitivity_table: dict = field(default_factory=dict) # name -> {label: percent}
    prediction_series: dict = field(default_factory=dict) # name -> {condition: series}
    errors: dict = field(default_factory=dict)            # name -> message
    provenance: dict = field(default_factory=dict)


def fraction_label(fraction: float) -> str:
    return f"{fraction * 100:g}%"


def sensitivity_label(fraction: float) -> str:
    return f"0% vs. {fraction_label(fraction)}"


def _model_names(specs) -> tuple:
    names = []
    for spec in specs:
        name = spec.kind
        serial = 2
        while name in names:
            name = f"{spec.kind}.{serial}"
            serial += 1
        names.append(name)
    return tuple(names)


def _prepare(cfg: ExperimentConfig):
    if cfg.data_path is not None:
        raw = load_csv(cfg.data_path)
    else:
        raw = synth_generate(cfg.synth_n, cfg.seed)
    train_raw, test_raw = split(raw, SplitConfig(cfg.train_ratio, cfg.seed))
    train, (test,) = normalize(train_raw, [test_raw])
    return raw, train, test


def _series(cfg, actual, predicted) -> EvaluationSeries:
    if cfg.clamp_predictions:
        predicted = np.clip(predicted, 0.0, 1.0)
    return EvaluationSeries(actual=actual, predicted=predicted)


def _model_job(shared, index):
    """Fit the ``index``-th spec and evaluate it on every test set.

    ``shared`` is ``(cfg, specs, train, test, steps)``, where ``steps``
    lists the ``(noisy, rows)`` pairs ``inject`` returned, in sweep
    order. Returns the clean series followed by one series per step, or
    the error text of the first failure: a failing model becomes its own
    error row and never aborts the others.

    A step that changed no feature reuses the clean predictions. Any
    other step re-predicts the changed rows through ``predict_rows`` and
    keeps the clean predictions elsewhere: injection leaves the other
    rows bit-identical, so that is ``predict_batch`` of the noisy
    features, bit for bit.
    """
    cfg, specs, train, test, steps = shared
    try:
        model = fit(specs[index], train)
        clean = model.predict_batch(test.features)
        out = [_series(cfg, test.power, clean)]
        for noisy, rows in steps:
            predicted = clean
            if rows and cfg.noise_target != "POWER":
                predicted = clean.copy()
                predicted[rows] = model.predict_rows(noisy.features, rows)
            out.append(_series(cfg, noisy.power, predicted))
        return out
    except Exception as exc:  # error row per failed model
        return f"{type(exc).__name__}: {exc}"


# One model's job in a worker process reads the run's data from here. A
# forked worker inherits it, so no dataset is pickled per task.
_WORKER_SHARED = None


def _init_worker(*shared):
    global _WORKER_SHARED
    _WORKER_SHARED = shared


def _worker_job(index):
    return _model_job(_WORKER_SHARED, index)


# Model kinds by the cost of one job at the default hyperparameters, most
# expensive first. Measured as the median seconds of three _model_job
# calls, summed over the perfbench c6-sweep and attack-grid workloads
# (seed 42, one CPU, one BLAS thread, two runs): MLPR 3.3-3.6 s, GBRT
# 1.3-1.5 s, GPR 0.55-0.58 s, KNN 0.54-0.55 s, DT 0.33-0.35 s, SVR
# 0.21-0.24 s, LR and LASSO under 0.01 s; GPR and KNN tie within noise,
# so their order stands. Submitting longest first
# (Graham's LPT list scheduling) starts MLPR at once, so it never lands
# last on a worker that the short jobs have kept busy.
COST_RANK = ("MLPR", "GBRT", "GPR", "KNN", "DT", "SVR", "LR", "LASSO")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _threads() -> int:
    """Threads this process runs, a BLAS library's own threads included."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:  # no procfs: count the threads Python started
        return threading.active_count()


def _worker_count(n_jobs: int) -> int:
    """Worker processes for ``n_jobs`` model jobs; 1 runs them in-process.

    Workers are forked, so they need the ``fork`` start method, a parent
    that may have children (a daemonic process may not) and a parent
    with no other thread. Another thread could hold a lock across the
    fork; and a BLAS that runs threads of its own would run as many in
    every worker, oversubscribing the CPUs, and cannot be cut to one
    thread there without changing the bytes. ``import pvfdi`` pins one
    BLAS thread unless numpy was loaded first or the environment sets a
    count.
    """
    # multiprocessing and the pool are imported on first use, as every
    # CLI command imports this module and only bench and sweep start workers
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or _threads() > 1):
        return 1
    return min(n_jobs, _usable_cpus())


def _run_jobs(cfg, specs, train, test, steps, meanwhile) -> tuple:
    """(every spec's job outcome in spec order, ``meanwhile()``).

    With more than one worker the jobs run in a forked process pool,
    submitted by COST_RANK, while ``meanwhile`` runs here. Every job does
    the same arithmetic in whichever process it lands in, so the outcomes
    do not depend on the worker count.
    """
    shared = (cfg, specs, train, test, steps)
    workers = _worker_count(len(specs))
    if workers == 1:
        outcomes = [_model_job(shared, i) for i in range(len(specs))]
        return outcomes, meanwhile()
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    order = sorted(range(len(specs)), key=lambda i: COST_RANK.index(specs[i].kind))
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_worker, initargs=shared) as pool:
        futures = {i: pool.submit(_worker_job, i) for i in order}
        during = meanwhile()
        return [futures[i].result() for i in range(len(specs))], during


def _noise_seed(cfg, fraction, repeat):
    if cfg.repeats == 1:
        return derive_seed(cfg.seed, "noise", fraction)
    return derive_seed(cfg.seed, "noise", fraction, repeat)


def _provenance(cfg, specs, names, raw: Dataset) -> dict:
    from . import __version__

    noise_seeds = {
        fraction_label(f): [_noise_seed(cfg, f, r) for r in range(cfg.repeats)]
        for f in cfg.fractions if f != 0.0
    }
    return {
        "version": __version__,
        "dataset": {
            "source": cfg.data_path if cfg.data_path is not None else "synth",
            "synth_n": None if cfg.data_path is not None else cfg.synth_n,
            "checksum_sha256": raw.checksum(),
            "rows": len(raw),
        },
        "seed": cfg.seed,
        "split": {"train_ratio": cfg.train_ratio, "seed": cfg.seed},
        "models": [
            {
                "name": name,
                "kind": spec.kind,
                "seed": spec.seed,
                "hyperparameters": {
                    k: v for k, v in sorted(spec.effective_hyperparameters().items())
                },
            }
            for name, spec in zip(names, specs)
        ],
        "noise": {
            "mean": cfg.noise_mean,
            "std": cfg.noise_std,
            "target": cfg.noise_target,
            "columns": list(cfg.noise_columns) if cfg.noise_columns else None,
            "fractions": list(cfg.fractions),
            "repeats": cfg.repeats,
            "seeds": noise_seeds,
        },
        "clamp_predictions": cfg.clamp_predictions,
    }


def _noisy_steps(cfg, test: Dataset) -> list:
    """``inject`` results for every nonzero fraction and repeat, in sweep order."""
    return [
        inject(test, NoiseConfig(
            fraction=f, mean=cfg.noise_mean, std=cfg.noise_std,
            target=cfg.noise_target, columns=cfg.noise_columns,
            seed=_noise_seed(cfg, f, r),
        ))
        for f in cfg.fractions if f != 0.0
        for r in range(cfg.repeats)
    ]


def _evaluate_models(cfg, sweep: bool) -> ExperimentReport:
    """Run every model's job and build the report: clean columns, and the sweep's if ``sweep``."""
    raw, train, test = _prepare(cfg)
    steps = _noisy_steps(cfg, test) if sweep else []
    specs = cfg.model_specs()
    names = _model_names(specs)
    report = ExperimentReport(model_order=names)
    outcomes, report.provenance = _run_jobs(
        cfg, specs, train, test, steps, lambda: _provenance(cfg, specs, names, raw))
    nonzero = [f for f in cfg.fractions if f != 0.0]
    top = max(cfg.fractions)
    for name, outcome in zip(names, outcomes):
        if isinstance(outcome, str):
            report.errors[name] = outcome
            continue
        clean, *noisy = outcome
        report.clean_table[name] = metric_triple(clean)
        series = report.prediction_series[name] = {"clean": clean}
        if not sweep:
            continue
        # the zero column IS the clean benchmark, bit for bit
        row = report.noise_table[name] = {0.0: report.clean_table[name].rmse}
        series["noisy"] = clean  # kept only when every fraction is 0
        for k, f in enumerate(nonzero):
            block = noisy[k * cfg.repeats:(k + 1) * cfg.repeats]
            total = 0.0
            for step in block:
                total += rmse(step)
            row[f] = total / cfg.repeats
            if f == top:
                series["noisy"] = block[0]
    if sweep:
        report.sensitivity_table = compute_sensitivity(report.noise_table, report.errors)
    return report


def run_clean_benchmark(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit every model on the clean split and record test metrics."""
    return _evaluate_models(cfg, sweep=False)


def run_noise_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Clean benchmark plus the per-fraction injection sweep.

    Models are fit once on clean training data and never retrained; each
    fraction perturbs the test set only. With repeats > 1 the RMSE per
    fraction is the mean over independently seeded realizations, and the
    noisy series is the first realization of the largest fraction.
    Each step re-predicts only the rows its injection changed.
    """
    return _evaluate_models(cfg, sweep=True)


def compute_sensitivity(noise_table: dict, errors: dict) -> dict:
    """Relative percent RMSE change of each nonzero fraction vs clean.

    ``noise_table`` maps model name -> {fraction: rmse} and must carry a
    0.0 column. A row whose clean RMSE is 0 has no percent change: it is
    left out, and ``errors[name]`` gets the ZeroBaseline text, so that
    model's sensitivity row reads ERROR.
    """
    out = {}
    for name, row in noise_table.items():
        if 0.0 not in row:
            raise ValueError(f"noise table row {name!r} lacks the 0.0 column")
        baseline = row[0.0]
        try:
            out[name] = {
                sensitivity_label(f): percent_change(baseline, row[f])
                for f in sorted(row) if f != 0.0
            }
        except ZeroBaseline as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
    return out


# --- emission -----------------------------------------------------------------

def _write_text(path: Path, text: str):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def _write_json(path: Path, block: dict):
    _write_text(path, json.dumps(block, sort_keys=True, indent=2) + "\n")


def _csv_table(header, rows) -> str:
    return "".join(",".join(row) + "\n" for row in [header, *rows])


def _aligned(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    def fmt(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    return "\n".join([fmt(header)] + [fmt(r) for r in rows]) + "\n"


def _rows(report, header, values, cell) -> list:
    """One row per model in config order; a failed model's cells read ERROR."""
    rows = []
    for name in report.model_order:
        if name in values:
            rows.append([name] + [cell(v) for v in values[name]])
        elif name in report.errors:
            rows.append([name] + ["ERROR"] * (len(header) - 1))
    return rows


def emit_report(report: ExperimentReport, out_dir) -> list:
    """Write all tables, series files, and the provenance block.

    CSV cells hold repr floats (exact round-trip); report.txt holds the
    same tables aligned for reading. Emission of a fixed report is
    byte-deterministic. Returns the written paths.
    """
    out_dir = Path(out_dir)
    # (file, report.txt title, header, values per model, report.txt cell format)
    tables = [("clean_metrics.csv", "Clean test metrics", ["model", "rmse", "mse", "mae"],
               {name: (t.rmse, t.mse, t.mae) for name, t in report.clean_table.items()},
               "{:.6f}")]
    if report.noise_table:
        fractions = sorted(next(iter(report.noise_table.values())))
        labels = [sensitivity_label(f) for f in fractions if f != 0.0]
        tables += [
            ("noise_rmse.csv", "RMSE under injection",
             ["model"] + [fraction_label(f) for f in fractions],
             {name: [row[f] for f in fractions] for name, row in report.noise_table.items()},
             "{:.6f}"),
            ("sensitivity.csv", "RMSE change vs clean (percent)", ["model"] + labels,
             {name: [row[label] for label in labels]
              for name, row in report.sensitivity_table.items()},
             "{:+.2f}%"),
        ]
    written = []
    text_blocks = []
    exact = lambda v: repr(float(v))
    for file, title, header, values, human in tables:
        written.append(out_dir / file)
        _write_text(written[-1], _csv_table(header, _rows(report, header, values, exact)))
        text_blocks.append(title + "\n" + _aligned(
            header, _rows(report, header, values, human.format)))
    if not report.noise_table:
        text_blocks.append("Noise sweep: not run; sweep files skipped.\n")

    if report.errors:
        rows = [[name, report.errors[name]] for name in report.model_order if name in report.errors]
        text_blocks.append("Model errors\n" + _aligned(["model", "error"], rows))

    # one (index, actual, predicted) CSV per model per condition; the
    # models share their actual columns, so each distinct one is rendered
    # once, as "\n<index>,<actual>," line starts
    starts = {}
    for name in report.model_order:
        for condition, series in report.prediction_series.get(name, {}).items():
            key = series.actual.tobytes()
            if key not in starts:
                starts[key] = [f"\n{i},{a!r}," for i, a in enumerate(series.actual.tolist())]
            cells = map(repr, series.predicted.tolist())
            written.append(out_dir / "series" / f"{name}_{condition}.csv")
            _write_text(written[-1], "index,actual,predicted"
                        + "".join(map(str.__add__, starts[key], cells)) + "\n")

    written.append(out_dir / "provenance.json")
    _write_json(written[-1], report.provenance)

    written.append(out_dir / "report.txt")
    _write_text(written[-1], "\n".join(text_blocks))
    return written
