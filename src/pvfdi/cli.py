"""Command-line entry point: synth | bench | sweep | inject | report.

Configuration lives in an INI-style file (the README shows one);
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
from .errors import ConfigError, DataError, IoError, PvfdiError
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    compute_sensitivity,
    emit_report,
    fraction_label,
    run_clean_benchmark,
    run_noise_sweep,
    write_json,
    write_table,
)
from .noise import NOISE_TARGETS, NoiseConfig, inject
from .regressors import DEFAULT_KINDS, KINDS, ModelSpec, default_hyperparameters
from .rng import is_seed

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_MODEL = 3

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _csv_list(text):
    return tuple(item.strip() for item in text.split(",") if item.strip())


def _fractions_list(text):
    return tuple(float(tok) for tok in _csv_list(text))


def _boolean(text):
    """An INI boolean word: 1/yes/true/on or 0/no/false/off, any case."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _scalar(section, key, text):
    """A [model.KIND] value: none/null, an int or a float."""
    if text.strip().lower() in ("none", "null"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    raise ConfigError(f"bad value for {key!r} in [{section}]: {text!r}")


_NOISE_TARGET_CHOICES = {"choices": NOISE_TARGETS, "metavar": "{features,power,both}"}

# Each run setting once: the ExperimentConfig field it fills, its INI
# section and key, the parser of an INI value or a flag argument, and its
# flag with the flag's other argparse options (flags show in --help in
# this order). Two rows fill no field as they stand: "models" lists the
# kind names that become ModelSpecs, and "out" is the output directory.
_SETTINGS = (
    ("data_path", "experiment", "data", str,
     "--data", {"metavar": "PATH", "help": "dataset CSV (default: synthetic)"}),
    ("out", "experiment", "out", str,
     "--out", {"metavar": "DIR", "help": "output directory"}),
    ("seed", "experiment", "seed", int,
     "--seed", {"metavar": "U64", "help": "root seed"}),
    ("synth_n", "experiment", "synth_n", int,
     "--n", {"metavar": "N", "help": "synthetic sample count"}),
    ("fractions", "experiment", "fractions", _fractions_list,
     "--fractions", {"metavar": "LIST", "help": "noise fractions, e.g. 0,0.1,0.5,1.0"}),
    ("models", "experiment", "models", _csv_list,
     "--models", {"metavar": "LIST", "help": "model kinds, e.g. LR,KNN,SVR"}),
    ("noise_target", "noise", "target", str.upper,
     "--noise-target", _NOISE_TARGET_CHOICES),
    ("noise_std", "noise", "std", float, "--noise-std", {"metavar": "REAL"}),
    ("noise_mean", "noise", "mean", float, "--noise-mean", {"metavar": "REAL"}),
    ("noise_columns", "noise", "columns", _csv_list,
     "--noise-columns", {"metavar": "LIST",
                         "help": f"feature names from: {', '.join(FEATURE_NAMES)}"}),
    ("clamp_predictions", "experiment", "clamp_predictions", _boolean,
     "--clamp-predictions", {"action": "store_true", "default": None,
                             "help": "clip predictions to [0, 1]"}),
    ("repeats", "experiment", "repeats", int,
     "--repeats", {"metavar": "N", "help": "noise realizations averaged per fraction"}),
    ("train_ratio", "experiment", "train_ratio", float, None, None),
)

_INI_KEYS = {
    section: {key for _, sec, key, *_ in _SETTINGS if sec == section}
    for section in ("experiment", "noise")
}

# the [noise] rows, whose INI keys are NoiseConfig's field names
_NOISE_SETTINGS = tuple(row for row in _SETTINGS if row[1] == "noise")


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
        if section in _INI_KEYS:
            for key, value in parser.items(section):
                if key not in _INI_KEYS[section]:
                    raise ConfigError(f"unknown field {key!r} in [{section}]")
                out[section][key] = value
        elif section.startswith("model."):
            kind = section[len("model."):]
            if kind not in KINDS:
                raise ConfigError(f"unknown model kind in section [{section}]")
            # configparser lowercases keys: match them to the names in any case (SVR's C)
            known = {name.lower(): name for name in (*default_hyperparameters(kind), "seed")}
            hp = out["model"][kind] = {}
            for key, value in parser.items(section):
                if key not in known:
                    raise ConfigError(f"unknown field {key!r} in [{section}]")
                hp[known[key]] = _scalar(section, known[key], value)
        else:
            raise ConfigError(f"unknown config section [{section}]")
    return out


def _build_experiment(args) -> tuple:
    """Resolve flags over config-file values into (ExperimentConfig, out dir).

    Only the settings a flag or the file gives reach ExperimentConfig, so
    its defaults are the only ones.
    """
    file_cfg = _read_config(args.config) if args.config else {
        "experiment": {}, "noise": {}, "model": {},
    }
    settings = {}
    for name, section, key, parse, flag, _ in _SETTINGS:
        value = getattr(args, name) if flag else None
        if value is None and key in file_cfg[section]:
            raw = file_cfg[section][key]
            try:
                value = parse(raw)
            except ValueError:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
        if value is not None:
            settings[name] = value

    out_dir = Path(settings.pop("out", "pvfdi-out"))
    kinds = settings.pop("models", None)
    try:
        if kinds is not None or file_cfg["model"]:
            # a [model.KIND] section alone still customizes the default suite
            seed = settings.get("seed", ExperimentConfig.seed)
            specs = []
            for kind in DEFAULT_KINDS if kinds is None else kinds:
                if kind not in KINDS:
                    raise ConfigError(f"unknown model kind {kind!r} in models list")
                hp = dict(file_cfg["model"].get(kind, {}))
                model_seed = hp.pop("seed", seed)
                specs.append(ModelSpec(kind, hp, seed=model_seed))
            settings["models"] = tuple(specs)
        return ExperimentConfig(**settings), out_dir
    except ValueError as exc:  # InvalidSpec is a ValueError too
        raise ConfigError(str(exc))


# --- subcommands ----------------------------------------------------------------

def cmd_synth(args) -> int:
    if not is_seed(args.seed):
        raise ConfigError(f"seed must be an integer in [0, 2**64), got {args.seed!r}")
    dataset = synth_generate(args.n, args.seed)
    out = Path(args.out)
    save_csv(dataset, out)
    write_json(out.with_name(out.name + ".provenance.json"), {
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
    given = {"fraction": args.fraction, "seed": args.seed,
             **{key: getattr(args, name) for name, _, key, *_ in _NOISE_SETTINGS}}
    try:
        # only the flags given reach NoiseConfig, so its defaults are the only ones
        cfg = NoiseConfig(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(str(exc))
    noisy, affected = inject(dataset, cfg)
    out = Path(args.out)
    comment = (f"pvfdi inject v{__version__} seed={cfg.seed} fraction={cfg.fraction!r} "
               f"mean={cfg.mean!r} std={cfg.std!r} target={cfg.target}")
    save_csv(noisy, out, header_comment=comment)
    index_path = out.with_name(out.name + ".affected.txt")
    try:
        with open(index_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{row}\n" for row in affected)
    except OSError as exc:
        raise IoError(f"cannot write {index_path}: {exc}") from None
    write_json(out.with_name(out.name + ".provenance.json"), {
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
        for name in report.model_order:
            if name in report.errors:
                print(f"model {name} failed: {report.errors[name]}", file=sys.stderr)
        return EXIT_MODEL
    return EXIT_OK


def cmd_bench(args) -> int:
    cfg, out_dir = _build_experiment(args)
    return _finish_run(run_clean_benchmark(cfg), out_dir)


def cmd_sweep(args) -> int:
    cfg, out_dir = _build_experiment(args)
    return _finish_run(run_noise_sweep(cfg), out_dir)


def _load_noise_grid(path: Path) -> ExperimentReport:
    """Parse an emitted noise_rmse.csv back into a report.

    The report holds the header's fractions, the rows' model order, the
    noise table of every numeric row, and an error for every ERROR row.
    Only labels a sweep writes are read, and a model row may not repeat.
    """
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
    if len(set(fractions)) != len(fractions):
        raise DataError(f"{path} header repeats a fraction")
    if [fraction_label(f + 0.0) if 0.0 <= f <= 1.0 else None for f in fractions] != header[1:]:
        raise DataError(f"{path} header has a label no sweep writes: {header[1:]}")
    if 0.0 not in fractions:
        raise DataError(f"{path} has no 0% column to compare against")
    order, table, errors = [], {}, {}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise DataError(f"row {cells[:1]} in {path} has {len(cells)} cells")
        if cells[0] in order:
            raise DataError(f"{path} repeats the model row {cells[0]!r}")
        order.append(cells[0])
        if "ERROR" in cells[1:]:
            errors[cells[0]] = "ERROR"
            continue
        try:
            table[cells[0]] = {f: float(v) for f, v in zip(fractions, cells[1:])}
        except ValueError:
            raise DataError(f"row {cells[:1]} in {path} has a non-numeric RMSE") from None
    if not order:
        raise DataError(f"no model rows in {path}")
    return ExperimentReport(model_order=tuple(order), fractions=tuple(sorted(set(fractions))),
                            noise_table=table, errors=errors)


def cmd_report(args) -> int:
    report = _load_noise_grid(Path(args.data))
    report.sensitivity_table = compute_sensitivity(report.noise_table, report.errors)
    out_dir = Path(args.out)
    text = write_table(out_dir, report, "sensitivity.csv")
    write_json(out_dir / "provenance.json", {
        "version": __version__,
        "command": "report",
        "input": str(args.data),
        "fractions": [fraction_label(f) for f in report.fractions],
    })
    print(text, end="")
    print(f"wrote {out_dir / 'sensitivity.csv'}")
    return EXIT_OK


# --- parser wiring ----------------------------------------------------------------

def _add_setting_flags(sub, rows):
    for name, _, _, parse, flag, options in rows:
        if flag:
            typed = {} if "action" in options else {"type": parse}
            sub.add_argument(flag, dest=name, **typed, **options)


def _add_experiment_flags(sub):
    sub.add_argument("--config", metavar="PATH", help="INI config file")
    _add_setting_flags(sub, _SETTINGS)


def build_parser() -> _Parser:
    parser = _Parser(prog="pvfdi",
                     description="PV power forecasting models under "
                                 "Gaussian false-data injection")
    parser.add_argument("--version", action="version", version=f"pvfdi {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    synth = commands.add_parser("synth", help="generate a synthetic dataset CSV")
    synth.add_argument("--n", type=int, default=ExperimentConfig.synth_n, metavar="N")
    synth.add_argument("--seed", type=int, default=ExperimentConfig.seed, metavar="U64")
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
    injectp.add_argument("--seed", type=int, metavar="U64")
    _add_setting_flags(injectp, _NOISE_SETTINGS)
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
