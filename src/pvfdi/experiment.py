"""Benchmark orchestration: clean metrics, noise sweep, sensitivity, emission.

The pipeline is a pure function of (dataset bytes, config): load or
generate data, split, min-max normalize from the training side, fit
every requested model once, evaluate on the clean test set and on each
noise-injected variant, and derive sensitivity percentages from the
RMSE grid. Emission is byte-deterministic: float cells use repr, key
order is fixed, and no timestamps are written.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import Dataset, SplitConfig, load_csv, normalize, split, synth_generate
from .errors import IoError, ZeroBaseline
from .metrics import EvaluationSeries, MetricTriple, metric_triple, percent_change, rmse
from .noise import NoiseConfig, inject
from .regressors import DEFAULT_KINDS, ModelSpec, fit
from .rng import derive_seed

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "run_clean_benchmark",
    "run_noise_sweep",
    "compute_sensitivity",
    "emit_report",
    "emit_plot_series",
    "fraction_label",
    "sensitivity_label",
]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on besides the dataset bytes themselves.

    ``data_path`` None means synthetic data of ``synth_n`` samples. All
    randomness (synth draw, split, noise, model seeds) flows from
    ``seed`` through purpose-labeled streams unless individual
    ModelSpecs carry their own seeds.
    """

    data_path: str | None = None
    synth_n: int = 10_000
    seed: int = 0
    train_ratio: float = 0.8
    models: tuple = None  # None -> the eight default kinds
    fractions: tuple = (0.0, 0.1, 0.5, 1.0)
    noise_mean: float = 0.0
    noise_std: float = 1.0
    noise_target: str = "FEATURES"
    noise_columns: tuple | None = None
    repeats: int = 1
    clamp_predictions: bool = False

    def __post_init__(self):
        fractions = tuple(float(f) for f in self.fractions)
        if not fractions or fractions[0] != 0.0:
            raise ValueError("fractions must start with 0.0")
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ValueError("fractions must lie in [0, 1]")
        object.__setattr__(self, "fractions", fractions)
        if self.models is not None:
            models = tuple(self.models)
            if not models:
                raise ValueError("at least one model is required")
            object.__setattr__(self, "models", models)
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        # fail fast on bad noise parameters; fraction filled per sweep step
        NoiseConfig(fraction=0.0, mean=self.noise_mean, std=self.noise_std,
                    target=self.noise_target, columns=self.noise_columns)

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


def _error_text(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


def _fit_all(specs, names, train, report):
    """Fit every spec; failures become error rows, not aborts."""
    models = {}
    for name, spec in zip(names, specs):
        try:
            models[name] = fit(spec, train)
        except Exception as exc:  # error row per failed model
            report.errors[name] = _error_text(exc)
    return models


def _evaluate(cfg, model, test: Dataset, clean=None, rows=None) -> EvaluationSeries:
    """Series of ``model`` on ``test``.

    Given the model's ``clean`` series and the ``rows`` in which ``test``
    differs from the clean test set, a row-wise model re-predicts only
    those rows and keeps its clean predictions elsewhere, bit for bit.
    """
    if clean is not None and model.rowwise:
        predicted = np.array(clean.predicted)
        if rows:
            predicted[rows] = model.predict_batch(test.features[rows])
    else:
        predicted = model.predict_batch(test.features)
    if cfg.clamp_predictions:
        predicted = np.clip(predicted, 0.0, 1.0)
    return EvaluationSeries(actual=test.power, predicted=predicted)


def _evaluate_all(cfg, models, test: Dataset, report, clean=None, rows=None) -> dict:
    """Evaluate every model on ``test``; one that raises leaves ``models``,
    drops its partial results and becomes an error row.

    ``clean`` maps a model name to its clean series and ``rows`` lists
    the rows ``test`` changed, as ``inject`` returns them.
    """
    out = {}
    for name in list(models):
        try:
            prior = clean[name] if clean is not None else None
            out[name] = _evaluate(cfg, models[name], test, prior, rows)
        except Exception as exc:  # error row per failed model
            del models[name]
            for table in (report.clean_table, report.noise_table,
                          report.prediction_series):
                table.pop(name, None)
            report.errors[name] = _error_text(exc)
    return out


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


def run_clean_benchmark(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit every model on the clean split and record test metrics."""
    raw, train, test = _prepare(cfg)
    specs = cfg.model_specs()
    names = _model_names(specs)
    report = ExperimentReport(model_order=names)
    report.provenance = _provenance(cfg, specs, names, raw)

    models = _fit_all(specs, names, train, report)
    for name, series in _evaluate_all(cfg, models, test, report).items():
        report.clean_table[name] = metric_triple(series)
        report.prediction_series[name] = {"clean": series}
    return report


def run_noise_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Clean benchmark plus the per-fraction injection sweep.

    Models are fit once on clean training data and never retrained; each
    fraction perturbs the test set only. With repeats > 1 the RMSE per
    fraction is the mean over independently seeded realizations. Row-wise
    models re-predict only the rows each injection changed.
    """
    raw, train, test = _prepare(cfg)
    specs = cfg.model_specs()
    names = _model_names(specs)
    report = ExperimentReport(model_order=names)
    report.provenance = _provenance(cfg, specs, names, raw)

    models = _fit_all(specs, names, train, report)
    clean_series = _evaluate_all(cfg, models, test, report)
    for name, series in clean_series.items():
        report.clean_table[name] = metric_triple(series)
        report.prediction_series[name] = {"clean": series}
        report.noise_table[name] = {}

    max_fraction = max(cfg.fractions)
    for f in cfg.fractions:
        if f == 0.0:
            # the zero column IS the clean benchmark, bit for bit
            for name in models:
                report.noise_table[name][f] = report.clean_table[name].rmse
            if max_fraction == 0.0:
                for name in models:
                    report.prediction_series[name]["noisy"] = clean_series[name]
            continue
        sums = {name: 0.0 for name in models}
        for r in range(cfg.repeats):
            noise_cfg = NoiseConfig(
                fraction=f, mean=cfg.noise_mean, std=cfg.noise_std,
                target=cfg.noise_target, columns=cfg.noise_columns,
                seed=_noise_seed(cfg, f, r),
            )
            noisy, affected = inject(test, noise_cfg)
            evaluated = _evaluate_all(cfg, models, noisy, report, clean_series, affected)
            for name, series in evaluated.items():
                sums[name] += rmse(series)
                if f == max_fraction and r == 0:
                    report.prediction_series[name]["noisy"] = series
        for name in models:
            report.noise_table[name][f] = sums[name] / cfg.repeats

    report.sensitivity_table = compute_sensitivity(report.noise_table)
    return report


def compute_sensitivity(noise_table: dict) -> dict:
    """Relative percent RMSE change of each nonzero fraction vs clean.

    ``noise_table`` maps model name -> {fraction: rmse} and must carry a
    0.0 column; raises ZeroBaseline when a clean RMSE is 0.
    """
    out = {}
    for name, row in noise_table.items():
        if 0.0 not in row:
            raise ValueError(f"noise table row {name!r} lacks the 0.0 column")
        baseline = row[0.0]
        out[name] = {
            sensitivity_label(f): percent_change(baseline, row[f])
            for f in sorted(row) if f != 0.0
        }
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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _aligned(header, rows) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    def fmt(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()
    return "\n".join([fmt(header)] + [fmt(r) for r in rows]) + "\n"


def _clean_rows(report, cell):
    rows = []
    for name in report.model_order:
        if name in report.clean_table:
            t = report.clean_table[name]
            rows.append([name, cell(t.rmse), cell(t.mse), cell(t.mae)])
        elif name in report.errors:
            rows.append([name, "ERROR", "ERROR", "ERROR"])
    return rows


def _grid_rows(report, table, columns, keyed_by, cell):
    rows = []
    for name in report.model_order:
        if name in table:
            rows.append([name] + [cell(table[name][k]) for k in keyed_by])
        elif name in report.errors:
            rows.append([name] + ["ERROR"] * len(columns))
    return rows


def emit_plot_series(report: ExperimentReport, out_dir) -> list:
    """One (index, actual, predicted) CSV per model per condition."""
    out_dir = Path(out_dir)
    written = []
    for name in report.model_order:
        for condition, series in report.prediction_series.get(name, {}).items():
            path = out_dir / "series" / f"{name}_{condition}.csv"
            rows = [
                [str(i), repr(float(a)), repr(float(p))]
                for i, (a, p) in enumerate(zip(series.actual, series.predicted))
            ]
            _write_text(path, _csv_table(["index", "actual", "predicted"], rows))
            written.append(path)
    return written


def emit_report(report: ExperimentReport, out_dir) -> list:
    """Write all tables, series files, and the provenance block.

    CSV cells hold repr floats (exact round-trip); report.txt holds the
    same tables aligned for reading. Emission of a fixed report is
    byte-deterministic. Returns the written paths.
    """
    out_dir = Path(out_dir)
    written = []
    exact = lambda v: repr(float(v))
    human = lambda v: f"{v:.6f}"
    text_blocks = []

    header = ["model", "rmse", "mse", "mae"]
    written.append(out_dir / "clean_metrics.csv")
    _write_text(written[-1], _csv_table(header, _clean_rows(report, exact)))
    text_blocks.append("Clean test metrics\n" + _aligned(header, _clean_rows(report, human)))

    if report.noise_table:
        fractions = sorted(next(iter(report.noise_table.values())))
        header = ["model"] + [fraction_label(f) for f in fractions]
        rows = _grid_rows(report, report.noise_table, header[1:], fractions, exact)
        written.append(out_dir / "noise_rmse.csv")
        _write_text(written[-1], _csv_table(header, rows))
        text_blocks.append("RMSE under injection\n" + _aligned(
            header, _grid_rows(report, report.noise_table, header[1:], fractions, human)))

        labels = [sensitivity_label(f) for f in fractions if f != 0.0]
        header = ["model"] + labels
        rows = _grid_rows(report, report.sensitivity_table, labels, labels, exact)
        written.append(out_dir / "sensitivity.csv")
        _write_text(written[-1], _csv_table(header, rows))
        text_blocks.append("RMSE change vs clean (percent)\n" + _aligned(
            header, _grid_rows(report, report.sensitivity_table, labels, labels,
                               lambda v: f"{v:+.2f}%")))
    else:
        text_blocks.append("Noise sweep: not run; sweep files skipped.\n")

    if report.errors:
        rows = [[name, report.errors[name]] for name in report.model_order
                if name in report.errors]
        text_blocks.append("Model errors\n" + _aligned(["model", "error"], rows))

    written.extend(emit_plot_series(report, out_dir))

    written.append(out_dir / "provenance.json")
    _write_json(written[-1], report.provenance)

    written.append(out_dir / "report.txt")
    _write_text(written[-1], "\n".join(text_blocks))
    return written
