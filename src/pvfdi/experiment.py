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
from .errors import WorkerDied, ZeroBaseline
from .files import write_files
from .metrics import EvaluationSeries, metric_triple, percent_change, rmse
from .noise import NoiseConfig, inject
from .regressors import DEFAULT_KINDS, ModelSpec, fit
from .regressors.base import is_count
from .rng import derive_seed, is_seed

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_clean_benchmark",
    "run_noise_sweep",
    "compute_sensitivity",
    "emit_report",
    "table_text",
    "json_text",
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
    fractions that do not start at 0.0, repeat or share a ``fraction_label``,
    for a non-integer ``repeats`` or ``synth_n``, for a ``seed`` outside
    [0, 2**64), and for the train ratios and noise parameters SplitConfig
    and NoiseConfig refuse; empty ``noise_columns`` become None.
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
        fractions = tuple(float(f) + 0.0 for f in self.fractions)  # -0 is 0
        if not fractions or fractions[0] != 0.0:
            raise ValueError("fractions must start with 0.0")
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ValueError("fractions must lie in [0, 1]")
        labels = [fraction_label(f) for f in fractions]  # each names a column of every table
        if len(set(fractions)) != len(fractions) or len(set(labels)) != len(labels):
            raise ValueError(f"fractions must not repeat or share a percent label: {labels}")
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
        if not is_seed(self.seed):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        SplitConfig(self.train_ratio, self.seed)  # fail fast on a bad train_ratio
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
    fractions: tuple = ()  # the sweep's, ascending from 0.0; () for a clean benchmark
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
    order. Returns the clean predictions followed by one prediction
    array per step, or the error text of the first failure: a failing
    model becomes its own error row and never aborts the others. The
    caller pairs them with the actual values it already holds.

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
        out = [clean]
        for noisy, rows in steps:
            predicted = clean
            if rows and cfg.noise_target != "POWER":
                predicted = clean.copy()
                predicted[rows] = model.predict_rows(noisy.features, rows)
            out.append(predicted)
        return out
    except Exception as exc:  # error row per failed model
        return f"{type(exc).__name__}: {exc}"


# Model kinds by the cost of one job at the default hyperparameters, most
# expensive first. Measured as the median CPU seconds of three _model_job
# calls, summed over the perfbench c6-sweep and attack-grid workloads
# (seed 42, one CPU, one BLAS thread, two runs): MLPR 3.2-3.3 s, GBRT
# 0.64-0.70 s, KNN 0.55-0.59 s, GPR 0.50-0.51 s, DT 0.24-0.25 s, SVR 0.10-0.11 s,
# LR and LASSO under 0.01 s. Submitting longest first (Graham's LPT list
# scheduling) starts MLPR at once, so it never lands last on a worker that
# the short jobs have kept busy.
COST_RANK = ("MLPR", "GBRT", "KNN", "GPR", "DT", "SVR", "LR", "LASSO")


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
    # multiprocessing is imported on first use, as every CLI command
    # imports this module and only bench and sweep start workers
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or _threads() > 1):
        return 1
    return min(n_jobs, _usable_cpus())


def _serve(shared, jobs, conn, inherited):
    """Run the job indices drawn from ``jobs`` up to a None, then send all their outcomes.

    ``jobs`` is (read end, lock). First the worker closes ``inherited``, the
    pipe ends it got from the parent but does not use: the job pipe's write
    end and the read ends of its own and earlier workers' result pipes. Once
    the parent is gone, even killed by a signal that runs none of its
    clean-up, no one holds the other end of this worker's pipes, so its
    read or send fails and it exits instead of waiting for ever.
    """
    for end in inherited:
        end.close()
    reader, lock = jobs

    def draw():
        with lock:  # a message is two reads, which no other worker may split
            return reader.recv()

    try:
        conn.send({index: _model_job(shared, index) for index in iter(draw, None)})
    except (EOFError, BrokenPipeError):  # the parent is gone: no one to tell
        pass


def _run_jobs(cfg, specs, train, test, steps, meanwhile) -> tuple:
    """(every spec's job outcome in spec order, ``meanwhile()``).

    With more than one worker the jobs run in forked workers, which draw
    them from one queue in COST_RANK order, while ``meanwhile`` runs in
    this process, which starts no thread. Every job does the same
    arithmetic in whichever process it lands in, so the outcomes do not
    depend on the worker count. A worker that dies before it sends its
    outcomes raises WorkerDied. On any error every worker still running
    is killed.
    """
    shared = (cfg, specs, train, test, steps)
    workers = _worker_count(len(specs))
    if workers == 1:
        return [_model_job(shared, i) for i in range(len(specs))], meanwhile()
    import multiprocessing.connection

    context = multiprocessing.get_context("fork")
    job_reader, job_writer = context.Pipe(duplex=False)
    jobs, started, done = (job_reader, context.Lock()), {}, {}
    try:
        for _ in range(workers):  # fork hands each worker ``shared``; nothing pickles it
            receiver, sender = context.Pipe(duplex=False)
            inherited = [job_writer, *started, receiver]
            process = context.Process(target=_serve, args=(shared, jobs, sender, inherited))
            process.start()
            sender.close()  # the worker holds the only write end: its death reads as EOF
            started[receiver] = process
        # a send blocks on a full pipe, so the jobs go in once the workers run
        order = sorted(range(len(specs)), key=lambda i: COST_RANK.index(specs[i].kind))
        for i in order + [None] * workers:  # then one None per worker
            job_writer.send(i)
        during = meanwhile()
        waiting = dict(started)
        while waiting:  # in the order they finish, so a dead worker's EOF shows at once
            for receiver in multiprocessing.connection.wait(list(waiting)):
                process = waiting.pop(receiver)
                try:
                    done.update(receiver.recv())
                except EOFError:  # it died before sending: the OOM killer, say
                    process.join()
                    raise WorkerDied(process.exitcode) from None
                process.join()
    finally:  # after an error, the workers still running are killed
        for receiver, process in started.items():
            receiver.close()
            process.kill()
            process.join()
        job_reader.close()
        job_writer.close()
    return [done[i] for i in range(len(specs))], during


def _schedule(cfg) -> list:
    """(fraction, noise seed) of every injection in sweep order: each nonzero
    fraction in config order, ``cfg.repeats`` times."""
    repeats = [()] if cfg.repeats == 1 else [(r,) for r in range(cfg.repeats)]
    return [(f, derive_seed(cfg.seed, "noise", f, *r))
            for f in cfg.fractions if f != 0.0 for r in repeats]


def _provenance(cfg, specs, names, raw: Dataset) -> dict:
    from . import __version__

    noise_seeds = {}
    for f, seed in _schedule(cfg):
        noise_seeds.setdefault(fraction_label(f), []).append(seed)
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


def _evaluate_models(cfg, sweep: bool) -> ExperimentReport:
    """Run every model's job and build the report: clean columns, and the sweep's if ``sweep``."""
    raw, train, test = _prepare(cfg)
    schedule = _schedule(cfg) if sweep else []
    steps = [inject(test, NoiseConfig(fraction=f, mean=cfg.noise_mean, std=cfg.noise_std,
                                      target=cfg.noise_target, columns=cfg.noise_columns,
                                      seed=seed))
             for f, seed in schedule]
    specs = cfg.model_specs()
    names = _model_names(specs)
    report = ExperimentReport(model_order=names,
                              fractions=tuple(sorted(cfg.fractions)) if sweep else ())
    outcomes, report.provenance = _run_jobs(
        cfg, specs, train, test, steps, lambda: _provenance(cfg, specs, names, raw))
    # the noisy series is repeat 0 of the largest fraction, or clean when every fraction is 0
    top = [f for f, _ in schedule].index(report.fractions[-1]) if schedule else None
    test_sets = [test] + [noisy for noisy, _ in steps]
    for name, outcome in zip(names, outcomes):
        if not isinstance(outcome, str):
            try:  # a non-finite prediction or RMSE makes its model's error row
                clean, *noisy = [_series(cfg, d.power, p) for d, p in zip(test_sets, outcome)]
                triple = metric_triple(clean)
                noisy_rmse = [rmse(step) for step in noisy]
            except ValueError as exc:
                outcome = f"{type(exc).__name__}: {exc}"
        if isinstance(outcome, str):
            report.errors[name] = outcome
            continue
        report.clean_table[name] = triple
        series = report.prediction_series[name] = {"clean": clean}
        if not sweep:
            continue
        series["noisy"] = clean if top is None else noisy[top]
        totals = dict.fromkeys(report.fractions[1:], 0.0)
        for (f, _), value in zip(schedule, noisy_rmse):
            totals[f] += value
        # the zero column IS the clean benchmark, bit for bit
        report.noise_table[name] = {0.0: triple.rmse,
                                    **{f: total / cfg.repeats for f, total in totals.items()}}
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

def json_text(block: dict) -> str:
    """``block`` as sorted, indented JSON: the form of every provenance file."""
    return json.dumps(block, sort_keys=True, indent=2) + "\n"


def _aligned(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    def fmt(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    return "\n".join([fmt(header)] + [fmt(r) for r in rows]) + "\n"


# Every table file: its report.txt title, its header after "model" and
# each model's values in header order, both read from a report, and the
# format of a report.txt cell. Sweep tables have a column per fraction.
_TABLES = {
    "clean_metrics.csv": (
        "Clean test metrics", lambda r: ["rmse", "mse", "mae"],
        lambda r: {name: (t.rmse, t.mse, t.mae) for name, t in r.clean_table.items()},
        "{:.6f}"),
    "noise_rmse.csv": (
        "RMSE under injection", lambda r: [fraction_label(f) for f in r.fractions],
        lambda r: {name: [row[f] for f in r.fractions] for name, row in r.noise_table.items()},
        "{:.6f}"),
    "sensitivity.csv": (
        "RMSE change vs clean (percent)",
        lambda r: [sensitivity_label(f) for f in r.fractions[1:]],
        lambda r: {name: [row[sensitivity_label(f)] for f in r.fractions[1:]]
                   for name, row in r.sensitivity_table.items()},
        "{:+.2f}%"),
}


def table_text(report, file) -> tuple:
    """``report``'s table ``file`` as (CSV text, text aligned for reading).

    ``file`` is clean_metrics.csv, noise_rmse.csv or sensitivity.csv; the
    last two have a column per fraction in ``report.fractions``. The
    table has one row per model in ``report.model_order``: the CSV cells
    hold the exact repr of each float and the text cells a rounded form
    of it, and a model in ``report.errors`` with no values reads ERROR.
    """
    _, columns, table, human = _TABLES[file]
    header = ["model", *columns(report)]
    values = table(report)
    exact, text = [], []
    for name in report.model_order:
        if name in values:
            exact.append([name] + [repr(float(v)) for v in values[name]])
            text.append([name] + [human.format(v) for v in values[name]])
        elif name in report.errors:
            exact.append([name] + ["ERROR"] * (len(header) - 1))
            text.append(exact[-1])
    return "".join(",".join(row) + "\n" for row in [header, *exact]), _aligned(header, text)


def emit_report(report: ExperimentReport, out_dir) -> list:
    """Write all tables, series files, and the provenance block, or none of them.

    CSV cells hold repr floats (exact round-trip); report.txt holds the
    same tables aligned for reading. Emission of a fixed report is
    byte-deterministic. Returns the written paths.
    """
    return write_files(_report_files(report, Path(out_dir)))


def _report_files(report, out_dir):
    """(path, text) of each file of ``report``, each text built as it is written."""
    text_blocks = []
    for file in _TABLES if report.fractions else ["clean_metrics.csv"]:
        exact, text = table_text(report, file)
        yield out_dir / file, exact
        text_blocks.append(_TABLES[file][0] + "\n" + text)
    if not report.fractions:
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
            yield (out_dir / "series" / f"{name}_{condition}.csv", "index,actual,predicted"
                   + "".join(map(str.__add__, starts[key], cells)) + "\n")

    yield out_dir / "provenance.json", json_text(report.provenance)
    yield out_dir / "report.txt", "\n".join(text_blocks)
