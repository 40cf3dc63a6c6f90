"""Command-line entry point: synth | bench | sweep | inject | report.

Configuration lives in an INI-style file (see CONFIG_EXAMPLE below);
command-line flags override file values, which override defaults. Every
run writes a provenance file naming the tool version, seeds, effective
settings, and input checksum, so any output can be reproduced exactly.

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 model
or runtime error.
"""

import argparse
import configparser
import sys
from pathlib import Path

from . import __version__
from .data import FEATURE_NAMES, load_csv, save_csv, synth_generate
from .errors import ConfigError, DataError, PvfdiError
from .experiment import (
    ExperimentConfig,
    _csv_table,
    _write_json,
    _write_text,
    compute_sensitivity,
    emit_report,
    fraction_label,
    run_clean_benchmark,
    run_noise_sweep,
    sensitivity_label,
)
from .noise import NoiseConfig, inject
from .regressors import KINDS, ModelSpec, default_hyperparameters

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

CONFIG_EXAMPLE = """\
[experiment]
# data = measurements.csv   ; omit to use synthetic data
synth_n = 10000
seed = 0
train_ratio = 0.8
fractions = 0, 0.1, 0.5, 1.0
models = LR, GPR, KNN, DT, GBRT, SVR, MLPR, LASSO
repeats = 1
clamp_predictions = false
out = pvfdi-out

[noise]
mean = 0.0
std = 1.0
target = features
# columns = ssrd, tsr       ; omit to hit all twelve features

[model.KNN]
k = 2

[model.SVR]
C = 1.0
epsilon = 0.1
"""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _csv_list(text):
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _fractions_list(text):
    try:
        return tuple(float(tok) for tok in _csv_list(text))
    except ValueError:
        raise ConfigError(f"fractions must be a comma-separated number list, got {text!r}")


def _scalar(text):
    """Best-effort typed parse of a config value."""
    lowered = text.strip().lower()
    if lowered in ("none", "null"):
        return None
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text.strip()


_EXPERIMENT_KEYS = frozenset({
    "data", "synth_n", "seed", "train_ratio", "fractions", "models",
    "repeats", "clamp_predictions", "out",
})
_NOISE_KEYS = frozenset({"mean", "std", "target", "columns"})


def _read_config(path) -> dict:
    """Parse the INI config into plain dicts, rejecting unknown fields."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}")

    out = {"experiment": {}, "noise": {}, "model": {}}
    for section in parser.sections():
        if section == "experiment":
            for key, value in parser.items(section):
                if key not in _EXPERIMENT_KEYS:
                    raise ConfigError(f"unknown field {key!r} in [experiment]")
                out["experiment"][key] = value
        elif section == "noise":
            for key, value in parser.items(section):
                if key not in _NOISE_KEYS:
                    raise ConfigError(f"unknown field {key!r} in [noise]")
                out["noise"][key] = value
        elif section.startswith("model."):
            kind = section[len("model."):]
            if kind not in KINDS:
                raise ConfigError(f"unknown model kind in section [{section}]")
            known = set(default_hyperparameters(kind)) | {"seed"}
            for key, value in parser.items(section):
                if key not in known:
                    raise ConfigError(f"unknown field {key!r} in [{section}]")
            out["model"][kind] = {k: _scalar(v) for k, v in parser.items(section)}
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return out


def _build_experiment(args) -> tuple:
    """Merge defaults, config file, and flags into an ExperimentConfig."""
    file_cfg = _read_config(args.config) if args.config else {
        "experiment": {}, "noise": {}, "model": {},
    }
    exp = file_cfg["experiment"]
    noi = file_cfg["noise"]

    def pick(flag_value, file_key, section, default, cast):
        if flag_value is not None:
            return flag_value
        if file_key in section:
            raw = section[file_key]
            try:
                return cast(raw) if isinstance(raw, str) else raw
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for {file_key!r}: {raw!r}")
        return default

    seed = pick(args.seed, "seed", exp, 0, int)
    data_path = pick(getattr(args, "data", None), "data", exp, None, str)
    models_csv = pick(getattr(args, "models", None), "models", exp, None,
                      lambda v: _csv_list(v))
    if isinstance(models_csv, str):
        models_csv = _csv_list(models_csv)

    specs = None
    if models_csv is not None:
        specs = []
        for kind in models_csv:
            if kind not in KINDS:
                raise ConfigError(f"unknown model kind {kind!r} in models list")
            hp = dict(file_cfg["model"].get(kind, {}))
            model_seed = hp.pop("seed", seed)
            specs.append(ModelSpec(kind, hp, seed=model_seed))
        specs = tuple(specs)
    elif file_cfg["model"]:
        # section-only customization still applies to the default suite
        from .regressors import DEFAULT_KINDS

        specs = []
        for kind in DEFAULT_KINDS:
            hp = dict(file_cfg["model"].get(kind, {}))
            model_seed = hp.pop("seed", seed)
            specs.append(ModelSpec(kind, hp, seed=model_seed))
        specs = tuple(specs)

    columns = pick(getattr(args, "noise_columns", None), "columns", noi, None,
                   lambda v: _csv_list(v))
    if isinstance(columns, str):
        columns = _csv_list(columns)

    target = pick(getattr(args, "noise_target", None), "target", noi, "features", str)

    try:
        cfg = ExperimentConfig(
            data_path=data_path,
            synth_n=pick(getattr(args, "n", None), "synth_n", exp, 10_000, int),
            seed=seed,
            train_ratio=pick(None, "train_ratio", exp, 0.8, float),
            models=specs,
            fractions=pick(getattr(args, "fractions", None), "fractions", exp,
                           (0.0, 0.1, 0.5, 1.0), _fractions_list),
            noise_mean=pick(getattr(args, "noise_mean", None), "mean", noi, 0.0, float),
            noise_std=pick(getattr(args, "noise_std", None), "std", noi, 1.0, float),
            noise_target=str(target).upper(),
            noise_columns=columns,
            repeats=pick(getattr(args, "repeats", None), "repeats", exp, 1, int),
            clamp_predictions=(args.clamp_predictions
                               or bool(pick(None, "clamp_predictions", exp, False, _scalar))),
        )
    except ValueError as exc:
        raise ConfigError(str(exc))
    out_dir = pick(getattr(args, "out", None), "out", exp, "pvfdi-out", str)
    return cfg, Path(out_dir)


# --- subcommands ----------------------------------------------------------------

def cmd_synth(args) -> int:
    dataset = synth_generate(args.n, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out)
    _write_json(out.with_name(out.name + ".provenance.json"), {
        "version": __version__,
        "command": "synth",
        "n": args.n,
        "seed": args.seed,
        "output": out.name,
        "checksum_sha256": dataset.checksum(),
    })
    print(f"wrote {len(dataset)} rows to {out}")
    return EXIT_OK


def cmd_inject(args) -> int:
    dataset = load_csv(args.data)
    cfg = NoiseConfig(
        fraction=args.fraction,
        mean=args.noise_mean,
        std=args.noise_std,
        target=args.noise_target.upper(),
        columns=_csv_list(args.noise_columns) if args.noise_columns else None,
        seed=args.seed,
    )
    noisy, affected = inject(dataset, cfg)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    comment = (f"pvfdi inject v{__version__} seed={cfg.seed} fraction={cfg.fraction!r} "
               f"mean={cfg.mean!r} std={cfg.std!r} target={cfg.target}")
    save_csv(noisy, out, header_comment=comment)
    index_path = out.with_name(out.name + ".affected.txt")
    with open(index_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{row}\n" for row in affected)
    _write_json(out.with_name(out.name + ".provenance.json"), {
        "version": __version__,
        "command": "inject",
        "input": str(args.data),
        "input_checksum_sha256": dataset.checksum(),
        "noise": {
            "fraction": cfg.fraction, "mean": cfg.mean, "std": cfg.std,
            "target": cfg.target,
            "columns": list(cfg.columns) if cfg.columns else None,
            "seed": cfg.seed,
        },
        "affected_rows": len(affected),
        "output": out.name,
    })
    print(f"perturbed {len(affected)} of {len(dataset)} rows; wrote {out}")
    return EXIT_OK


def _finish_run(report, out_dir) -> int:
    written = emit_report(report, out_dir)
    print((out_dir / "report.txt").read_text(encoding="utf-8"), end="")
    print(f"wrote {len(written)} files under {out_dir}")
    if report.errors:
        for name, message in report.errors.items():
            print(f"model {name} failed: {message}", file=sys.stderr)
        return EXIT_MODEL
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg, out_dir = _build_experiment(args)
    return _finish_run(run_clean_benchmark(cfg), out_dir)


def cmd_sweep(args) -> int:
    cfg, out_dir = _build_experiment(args)
    return _finish_run(run_noise_sweep(cfg), out_dir)


def _load_noise_grid(path: Path) -> dict:
    """Parse an emitted noise_rmse.csv back into {model: {fraction: rmse}}."""
    if path.is_dir():
        path = path / "noise_rmse.csv"
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise DataError(f"cannot read noise grid {path}: {exc}")
    if not lines:
        raise DataError(f"noise grid {path} is empty")
    header = lines[0].split(",")
    if header[:1] != ["model"] or len(header) < 2:
        raise DataError(f"{path} does not look like a noise RMSE table")
    try:
        fractions = [float(cell.rstrip("%")) / 100.0 for cell in header[1:]]
    except ValueError:
        raise DataError(f"bad fraction labels in {path} header")
    table = {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"row {cells[:1]} in {path} has {len(cells)} cells")
        if "ERROR" in cells[1:]:
            continue
        table[cells[0]] = {f: float(v) for f, v in zip(fractions, cells[1:])}
    if not table:
        raise DataError(f"no model rows in {path}")
    return table


def cmd_report(args) -> int:
    table = _load_noise_grid(Path(args.data))
    sensitivity = compute_sensitivity(table)
    fractions = sorted(next(iter(table.values())))
    labels = [sensitivity_label(f) for f in fractions if f != 0.0]

    out_dir = Path(args.out)
    rows = [[name] + [repr(sensitivity[name][c]) for c in labels] for name in sensitivity]
    _write_text(out_dir / "sensitivity.csv", _csv_table(["model"] + labels, rows))
    _write_json(out_dir / "provenance.json", {
        "version": __version__,
        "command": "report",
        "input": str(args.data),
        "fractions": [fraction_label(f) for f in fractions],
    })

    width = max(len(name) for name in sensitivity)
    print("model".ljust(width) + "  " + "  ".join(labels))
    for name in sensitivity:
        cells = "  ".join(f"{sensitivity[name][c]:+.2f}%".rjust(len(c)) for c in labels)
        print(name.ljust(width) + "  " + cells)
    print(f"wrote {out_dir / 'sensitivity.csv'}")
    return EXIT_OK


# --- parser wiring ----------------------------------------------------------------

def _add_experiment_flags(sub):
    sub.add_argument("--config", metavar="PATH", help="INI config file")
    sub.add_argument("--data", metavar="PATH", help="dataset CSV (default: synthetic)")
    sub.add_argument("--out", metavar="DIR", help="output directory")
    sub.add_argument("--seed", type=int, metavar="U64", help="root seed")
    sub.add_argument("--n", type=int, metavar="N", help="synthetic sample count")
    sub.add_argument("--fractions", type=_fractions_list, metavar="LIST",
                     help="noise fractions, e.g. 0,0.1,0.5,1.0")
    sub.add_argument("--models", type=_csv_list, metavar="LIST",
                     help="model kinds, e.g. LR,KNN,SVR")
    sub.add_argument("--noise-target", choices=("features", "power", "both"),
                     dest="noise_target")
    sub.add_argument("--noise-std", type=float, dest="noise_std", metavar="REAL")
    sub.add_argument("--noise-mean", type=float, dest="noise_mean", metavar="REAL")
    sub.add_argument("--noise-columns", dest="noise_columns", metavar="LIST",
                     help=f"feature names from: {', '.join(FEATURE_NAMES)}")
    sub.add_argument("--clamp-predictions", action="store_true",
                     dest="clamp_predictions", help="clip predictions to [0, 1]")
    sub.add_argument("--repeats", type=int, metavar="N",
                     help="noise realizations averaged per fraction")


def build_parser() -> _Parser:
    parser = _Parser(prog="pvfdi",
                     description="PV power forecasting models under "
                                 "Gaussian false-data injection")
    parser.add_argument("--version", action="version", version=f"pvfdi {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    synth = commands.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("--n", type=int, default=10_000, metavar="N")
    synth.add_argument("--seed", type=int, default=0, metavar="U64")
    synth.add_argument("--out", required=True, metavar="FILE")
    synth.set_defaults(func=cmd_synth)

    bench = commands.add_parser("bench", help="clean train/test benchmark")
    _add_experiment_flags(bench)
    bench.set_defaults(func=cmd_bench)

    sweep = commands.add_parser("sweep", help="benchmark plus noise-injection sweep")
    _add_experiment_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    injectp = commands.add_parser("inject", help="write a noise-injected copy of a CSV")
    injectp.add_argument("--data", required=True, metavar="PATH")
    injectp.add_argument("--out", required=True, metavar="FILE")
    injectp.add_argument("--fraction", type=float, required=True, metavar="REAL")
    injectp.add_argument("--seed", type=int, default=0, metavar="U64")
    injectp.add_argument("--noise-mean", type=float, default=0.0, dest="noise_mean")
    injectp.add_argument("--noise-std", type=float, default=1.0, dest="noise_std")
    injectp.add_argument("--noise-target", choices=("features", "power", "both"),
                         default="features", dest="noise_target")
    injectp.add_argument("--noise-columns", dest="noise_columns", metavar="LIST")
    injectp.set_defaults(func=cmd_inject)

    reportp = commands.add_parser("report",
                                  help="recompute sensitivity from an emitted RMSE grid")
    reportp.add_argument("--data", required=True, metavar="PATH",
                         help="noise_rmse.csv or a directory holding one")
    reportp.add_argument("--out", required=True, metavar="DIR")
    reportp.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"pvfdi: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"pvfdi: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (PvfdiError, OSError) as exc:
        print(f"pvfdi: error: {exc}", file=sys.stderr)
        return EXIT_MODEL


if __name__ == "__main__":
    sys.exit(main())
