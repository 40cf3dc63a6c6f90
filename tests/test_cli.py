import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import pvfdi
from pvfdi.cli import _build_experiment, _load_noise_grid, build_parser, main
from pvfdi.experiment import ExperimentConfig, emit_report, fraction_label, run_noise_sweep
from pvfdi.regressors import ModelSpec


def run(argv):
    return main([str(a) for a in argv])


def non_comment_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


# --- synth ----------------------------------------------------------------------

def test_synth_writes_deterministic_csv(tmp_path, capsys):
    a = tmp_path / "a" / "d.csv"
    b = tmp_path / "b" / "d.csv"
    assert run(["synth", "--n", 50, "--seed", 4, "--out", a]) == 0
    assert run(["synth", "--n", 50, "--seed", 4, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "wrote 50 rows" in capsys.readouterr().out

    loaded = pvfdi.load_csv(a)
    assert len(loaded) == 50
    prov = json.loads((tmp_path / "a" / "d.csv.provenance.json").read_text())
    assert prov["command"] == "synth"
    assert prov["checksum_sha256"] == loaded.checksum()


def test_synth_rejects_tiny_count(tmp_path, capsys):
    assert run(["synth", "--n", 5, "--out", tmp_path / "d.csv"]) == 2
    assert "data error" in capsys.readouterr().err


# --- inject ---------------------------------------------------------------------

@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    run(["synth", "--n", 200, "--seed", 9, "--out", path])
    return path


def test_inject_zero_fraction_preserves_rows(dataset_csv, tmp_path):
    out = tmp_path / "noisy.csv"
    assert run(["inject", "--data", dataset_csv, "--out", out, "--fraction", 0]) == 0
    assert non_comment_lines(out) == non_comment_lines(dataset_csv)
    assert out.read_text().splitlines()[0].startswith("#")
    assert (tmp_path / "noisy.csv.affected.txt").read_text() == ""


def test_inject_half_marks_hundred_rows(dataset_csv, tmp_path):
    out = tmp_path / "noisy.csv"
    assert run(["inject", "--data", dataset_csv, "--out", out,
                "--fraction", 0.5, "--seed", 3]) == 0
    indices = (tmp_path / "noisy.csv.affected.txt").read_text().split()
    assert len(indices) == 100
    assert indices == sorted(indices, key=int)
    prov = json.loads((tmp_path / "noisy.csv.provenance.json").read_text())
    assert prov["noise"]["fraction"] == 0.5
    assert prov["affected_rows"] == 100


def test_inject_power_target_spares_features(dataset_csv, tmp_path):
    out = tmp_path / "noisy.csv"
    assert run(["inject", "--data", dataset_csv, "--out", out,
                "--fraction", 1.0, "--noise-target", "power"]) == 0
    before = pvfdi.load_csv(dataset_csv)
    after = pvfdi.load_csv(out)
    np.testing.assert_array_equal(after.features, before.features)
    assert not np.array_equal(after.power, before.power)


def test_inject_defaults_are_noise_configs(dataset_csv, tmp_path):
    out = tmp_path / "noisy.csv"
    assert run(["inject", "--data", dataset_csv, "--out", out, "--fraction", 0.5]) == 0
    cfg = pvfdi.NoiseConfig(fraction=0.5)
    noisy, affected = pvfdi.inject(pvfdi.load_csv(dataset_csv), cfg)
    expected = tmp_path / "expected.csv"
    pvfdi.save_csv(noisy, expected)
    # the CLI's file adds one provenance comment line
    assert out.read_bytes().split(b"\n", 1)[1] == expected.read_bytes()
    assert (tmp_path / "noisy.csv.affected.txt").read_text().split() == list(map(str, affected))
    prov = json.loads((tmp_path / "noisy.csv.provenance.json").read_text())
    assert prov["noise"] == dataclasses.asdict(cfg)


@pytest.mark.parametrize("flags", [
    ["--fraction", 1.5],
    ["--fraction", 0.5, "--noise-columns", "foo"],
    ["--fraction", 0.5, "--noise-std", -1],
])
def test_inject_bad_noise_setting_exits_one(dataset_csv, tmp_path, capsys, flags):
    assert run(["inject", "--data", dataset_csv, "--out", tmp_path / "o.csv"] + flags) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err


# -1 and 2**64 would run as seeds 2**64 - 1 and 0 under their own names
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_exits_one(dataset_csv, tmp_path, capsys, seed):
    out = tmp_path / "out"
    models = tmp_path / "models.ini"
    models.write_text(f"[model.LR]\nseed = {seed}\n")
    for argv in (["synth", "--n", 20, "--seed", seed, "--out", out / "d.csv"],
                 ["inject", "--data", dataset_csv, "--out", out / "o.csv",
                  "--fraction", 0.5, "--seed", seed],
                 ["sweep", "--n", 60, "--models", "LR", "--seed", seed, "--out", out],
                 ["sweep", "--n", 60, "--models", "LR", "--config", models, "--out", out]):
        assert run(argv) == 1, argv
        err = capsys.readouterr().err
        assert "seed must be an integer in [0, 2**64)" in err and "Traceback" not in err
        assert not out.exists()


# --- bench / sweep ----------------------------------------------------------------

def test_no_settings_leave_every_default_to_experiment_config():
    cfg, out_dir = _build_experiment(build_parser().parse_args(["sweep"]))
    assert cfg == ExperimentConfig()
    assert str(out_dir) == "pvfdi-out"


def test_sweep_flags_match_library_run(tmp_path):
    cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
    assert run(["sweep", "--n", 120, "--models", "LR,KNN", "--out", cli_out]) == 0
    cfg = ExperimentConfig(synth_n=120, models=(ModelSpec("LR"), ModelSpec("KNN")))
    emit_report(run_noise_sweep(cfg), lib_out)
    assert tree_bytes(cli_out) == tree_bytes(lib_out)


def test_sweep_empty_noise_columns_hit_every_feature(tmp_path):
    args = ["sweep", "--n", 120, "--seed", 3, "--models", "LR,KNN"]
    assert run(args + ["--noise-columns", "", "--out", tmp_path / "empty"]) == 0
    assert run(args + ["--out", tmp_path / "all"]) == 0
    assert tree_bytes(tmp_path / "empty") == tree_bytes(tmp_path / "all")


@pytest.mark.parametrize("source", ["flag", "file"])
def test_repeated_fraction_exits_one(tmp_path, capsys, source):
    cfg = tmp_path / "pv.ini"
    cfg.write_text("[experiment]\nfractions = 0, 0.5, 0.5\n")
    given = ["--fractions", "0,0.5,0.5"] if source == "flag" else ["--config", cfg]
    assert run(["sweep", "--n", 120, "--models", "LR", "--out", tmp_path / "out"] + given) == 1
    err = capsys.readouterr().err
    assert "config error: fractions must not repeat" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_fractions_sharing_a_label_exit_one(tmp_path, capsys):
    # both print as 12.3456%: noise_rmse.csv would get two columns of one
    # name, and sensitivity.csv one value under both
    assert run(["sweep", "--n", 200, "--models", "LR", "--fractions", "0,0.1234561,0.1234562",
                "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "share a percent label" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_zero_fraction_is_the_clean_fraction(tmp_path):
    args = ["sweep", "--n", 60, "--models", "LR"]
    assert run(args + ["--fractions=-0,0.5", "--out", tmp_path / "signed"]) == 0
    assert run(args + ["--fractions", "0,0.5", "--out", tmp_path / "plain"]) == 0
    assert tree_bytes(tmp_path / "signed") == tree_bytes(tmp_path / "plain")


def test_bench_single_model(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "--n", 120, "--seed", 2, "--models", "LR", "--out", out]) == 0
    printed = capsys.readouterr().out
    assert "Clean test metrics" in printed
    lines = (out / "clean_metrics.csv").read_text().splitlines()
    assert lines[0] == "model,rmse,mse,mae"
    assert len(lines) == 2 and lines[1].startswith("LR,")
    assert not (out / "noise_rmse.csv").exists()
    assert (out / "provenance.json").exists()


def test_sweep_custom_fractions_and_rerun_identical(tmp_path):
    args = ["sweep", "--n", 120, "--seed", 2, "--models", "LR,DT",
            "--fractions", "0,1.0"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", a]) == 0
    assert run(args + ["--out", b]) == 0
    header = (a / "noise_rmse.csv").read_text().splitlines()[0]
    assert header == "model,0%,100%"
    assert tree_bytes(a) == tree_bytes(b)


def test_failed_model_exits_three_but_emits(tmp_path, capsys):
    cfg = tmp_path / "pv.ini"
    cfg.write_text("[model.KNN]\nk = 100000\n")
    out = tmp_path / "out"
    code = run(["sweep", "--n", 120, "--seed", 2, "--models", "KNN,LR",
                "--config", cfg, "--out", out])
    assert code == 3
    assert "model KNN failed" in capsys.readouterr().err
    grid = (out / "noise_rmse.csv").read_text().splitlines()
    assert any(line.startswith("KNN,ERROR") for line in grid)
    assert any(line.startswith("LR,") and "ERROR" not in line for line in grid)


def test_overflowing_rmse_is_its_models_error_row(tmp_path, capfd):
    # LR's noisy predictions stay finite, but their squared errors sum beyond
    # the float range; KNN's nearest distances, GPR's and SVR's kernels and
    # MLPR's hidden layer overflow; DT's leaf values cannot. Forked workers
    # print their own warnings, so fd 2 is checked
    out, alone = tmp_path / "out", tmp_path / "alone"
    failing = ["LR", "KNN", "GPR", "SVR", "MLPR"]
    args = ["sweep", "--n", 60, "--noise-mean", 1e308]
    assert run(args + ["--models", ",".join(failing + ["DT"]), "--out", out]) == 3
    err = capfd.readouterr().err
    for kind in failing:
        assert f"model {kind} failed: ValueError" in err
    assert "Traceback" not in err and "Warning" not in err
    assert run(args + ["--models", "DT", "--out", alone]) == 0
    for name in ("clean_metrics.csv", "noise_rmse.csv", "sensitivity.csv"):
        lines = (out / name).read_text().splitlines()
        for kind, line in zip(failing, lines[1:]):
            assert line.startswith(f"{kind},") and set(line.split(",")[1:]) == {"ERROR"}
        assert lines[-1] == (alone / name).read_text().splitlines()[1]
        assert "ERROR" not in lines[-1]
    assert not (out / "series" / "LR_clean.csv").exists()


# --- config files -------------------------------------------------------------------

def test_config_file_drives_run_and_flags_override(tmp_path):
    cfg = tmp_path / "pv.ini"
    cfg.write_text(
        "[experiment]\n"
        "synth_n = 120\n"
        "seed = 6\n"
        "models = KNN\n"
        "fractions = 0, 0.5\n"
        "[model.KNN]\n"
        "k = 3\n"
    )
    out = tmp_path / "out"
    assert run(["sweep", "--config", cfg, "--out", out]) == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["dataset"]["rows"] == 120
    assert prov["seed"] == 6
    assert prov["models"] == [{
        "name": "KNN", "kind": "KNN", "seed": 6,
        "hyperparameters": {"k": 3},
    }]
    assert prov["noise"]["fractions"] == [0.0, 0.5]

    # flag overrides file: seed changes, hyperparameter section still applies
    out2 = tmp_path / "out2"
    assert run(["sweep", "--config", cfg, "--seed", 7, "--out", out2]) == 0
    prov2 = json.loads((out2 / "provenance.json").read_text())
    assert prov2["seed"] == 7
    assert prov2["models"][0]["hyperparameters"] == {"k": 3}


def test_unknown_config_field_exits_one(tmp_path, capsys):
    cfg = tmp_path / "pv.ini"
    cfg.write_text("[experiment]\nsample_count = 100\n")
    assert run(["bench", "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "sample_count" in capsys.readouterr().err


def test_unknown_model_kind_exits_one(tmp_path, capsys):
    assert run(["bench", "--models", "RIDGE", "--out", tmp_path / "out"]) == 1
    assert "RIDGE" in capsys.readouterr().err


def test_bad_config_value_exits_one(tmp_path, capsys):
    cfg = tmp_path / "pv.ini"
    cfg.write_text("[experiment]\nfractions = zero, one\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 1
    assert "fractions" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["2.5", "0"])
def test_bad_model_hyperparameter_exits_one(tmp_path, capsys, k):
    cfg = tmp_path / "pv.ini"
    cfg.write_text(f"[model.KNN]\nk = {k}\n")
    assert run(["sweep", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "config error: KNN k must be an integer" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# a rate, scale, penalty or variance of inf passes "positive" or ">= 0" yet
# overflows the arithmetic
@pytest.mark.parametrize("kind, key", [
    ("GBRT", "learning_rate"), ("MLPR", "learning_rate"), ("GPR", "length_scale"),
    ("GPR", "noise_variance"), ("SVR", "gamma"), ("SVR", "C"), ("LASSO", "lam"),
    ("GBRT", "reg_lambda"), ("GBRT", "gamma"),
])
def test_infinite_rate_or_scale_exits_one(tmp_path, capsys, kind, key):
    cfg = tmp_path / "pv.ini"
    cfg.write_text(f"[model.{kind}]\n{key} = inf\n")
    assert run(["sweep", "--config", cfg, "--n", 60, "--models", kind,
                "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert f"config error: {kind} {key} must be" in err and "finite" in err
    assert "Traceback" not in err and "Warning" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code", [
    ("sweep --n 60 --models LR --noise-std nan --out out", 1),
    ("inject --data d.csv --fraction 0.5 --noise-mean inf --out out/x.csv", 1),
    ("sweep --n 60 --models GPR --config seed.ini --out out", 1),
    ("sweep --n 60 --models LR --config ratio.ini --out out", 1),
    ("sweep --n 60 --models SVR --config cache.ini --out out", 1),
    ("sweep --n 60 --models SVR --config none.ini --out out", 1),
    ("sweep --n 60 --models LR --config malformed.ini --out out", 1),
    ("sweep --n 60 --models LR --config other.ini --out out", 1),
    ("sweep --n 60 --models LR --config foo.ini --out out", 1),
    ("sweep --n 60 --models KNN --config key.ini --out out", 1),
    ("sweep --n 60 --models LR --fractions 0,1.5 --out out", 1),
    ("sweep --n 60 --models LR --noise-columns tcc,tcc --out out", 1),
    # an --out under a regular file, or one that is a directory, cannot be written
    ("sweep --n 60 --models LR --out d.csv/out", 3),
    ("synth --n 60 --out d.csv/x.csv", 3),
    ("synth --n 60 --out dir", 3),
    ("inject --data d.csv --fraction 0.5 --out dir", 3),
    ("inject --data d.csv --fraction 0.5 --out d.csv/x.csv", 3),
    ("inject --data d.csv --fraction 0.5 --out y.csv", 3),  # y.csv.affected.txt is a directory
    # noise that overflows a column is a data error, as in min-max scaling
    ("sweep --n 60 --models LR --noise-std 1e308 --out out", 2),
    ("inject --data d.csv --fraction 0.5 --noise-std 1e308 --out out/x.csv", 2),
    ("inject --data wide.csv --fraction 1 --noise-mean 1e308 --out out/x.csv", 2),
    # a feature column at the float extremes overflows min-max scaling
    ("sweep --data wide.csv --models LR --out out", 2),
    # 10^11 rows of features are 8.7 TiB, an allocation refused outright
    ("synth --n 100000000000 --out out/x.csv", 3),
    ("sweep --n 100000000000 --models LR --out out", 3),
])
def test_bad_input_exits_without_traceback(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    Path("seed.ini").write_text("[model.GPR]\nseed = 2.5\n")
    Path("ratio.ini").write_text("[experiment]\ntrain_ratio = nan\n")
    Path("cache.ini").write_text("[model.SVR]\ncache_mb = nan\n")
    Path("none.ini").write_text("[model.SVR]\ncache_mb = none\n")
    Path("malformed.ini").write_text("no section header\n")
    Path("other.ini").write_text("[other]\nx = 1\n")
    Path("foo.ini").write_text("[model.FOO]\nk = 1\n")
    Path("key.ini").write_text("[model.KNN]\nwidth = 3\n")
    Path("dir").mkdir()
    Path("y.csv.affected.txt").mkdir()
    data = pvfdi.synth_generate(60, 3)
    features = np.array(data.features)
    features[:, 2] = np.where(np.arange(60) % 2, -1.7e308, 1.7e308)
    pvfdi.save_csv(data, "d.csv")
    pvfdi.save_csv(data.replace(features=features), "wide.csv")
    assert run(argv.split()) == code
    err = capsys.readouterr().err
    assert "error: " in err and "Traceback" not in err and "RuntimeWarning" not in err
    assert "cannot write" in err or "Unable to allocate" in err or code != 3
    assert not Path("out").exists()


# one output of each command blocked: a directory where a file goes, or a
# regular file where a directory goes; none of the command's files may stay
@pytest.mark.parametrize("argv, blocker, files", [
    ("inject --data d.csv --fraction 0.5 --out y.csv", "y.csv.affected.txt/",
     ["y.csv", "y.csv.provenance.json"]),
    ("synth --n 60 --out x.csv", "x.csv.provenance.json/", ["x.csv"]),
    ("sweep --n 60 --models LR --out out", "out/series",
     ["out/clean_metrics.csv", "out/noise_rmse.csv", "out/sensitivity.csv",
      "out/provenance.json", "out/report.txt"]),
    ("report --data grid.csv --out out", "out/provenance.json/", ["out/sensitivity.csv"]),
], ids=["inject", "synth", "sweep", "report"])
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, capsys, argv, blocker, files):
    monkeypatch.chdir(tmp_path)
    pvfdi.save_csv(pvfdi.synth_generate(60, 3), "d.csv")
    Path("grid.csv").write_text("model,0%,50%\nLR,0.1,0.2\n")
    Path(blocker).parent.mkdir(parents=True, exist_ok=True)
    if blocker.endswith("/"):
        Path(blocker).mkdir()
    else:
        Path(blocker).write_text("")
    assert run(argv.split()) == 3
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert [name for name in files if Path(name).exists()] == []


def test_readme_config_example_runs(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    cfg = tmp_path / "pv.ini"
    cfg.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
    out = tmp_path / "out"
    assert run(["bench", "--config", cfg, "--n", 120, "--models", "LR,SVR",
                "--out", out]) == 0
    # configparser lowercases keys; the README's SVR C still reaches the model
    assert '"C": 1.0' in (out / "provenance.json").read_text()


@pytest.mark.parametrize("epsilon", ["on", "abc"])
def test_model_values_must_be_numbers(tmp_path, capsys, epsilon):
    cfg = tmp_path / "pv.ini"
    cfg.write_text(f"[model.SVR]\nepsilon = {epsilon}\n")
    assert run(["bench", "--config", cfg, "--n", 120, "--models", "SVR",
                "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "epsilon" in err and "[model.SVR]" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_config_booleans_take_only_ini_words(tmp_path, capsys):
    cfg = tmp_path / "pv.ini"
    for word, clamped in (("on", True), ("No", False), ("1", True)):
        cfg.write_text(f"[experiment]\nclamp_predictions = {word}\n")
        out = tmp_path / word
        assert run(["bench", "--config", cfg, "--n", 40, "--models", "LR",
                    "--out", out]) == 0
        assert json.loads((out / "provenance.json").read_text())["clamp_predictions"] is clamped
    capsys.readouterr()
    cfg.write_text("[experiment]\nclamp_predictions = maybe\n")
    assert run(["bench", "--config", cfg, "--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert "clamp_predictions" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_bad_fractions_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["sweep", "--fractions", "zero"])
    assert exc.value.code == 1
    assert "--fractions" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path):
    assert run(["bench", "--config", tmp_path / "absent.ini",
                "--out", tmp_path / "out"]) == 1


# --- report ------------------------------------------------------------------------

@pytest.mark.parametrize("models, config, code", [
    ("LR,DT", "", 0),
    # MLPR diverges, so its rows read ERROR
    ("LR,MLPR", "[model.MLPR]\nlearning_rate = 1e300\n", 3),
    # LR's RMSE overflows: every row reads ERROR, and the grid is still written
    ("LR", "[noise]\nmean = 1e308\n", 3),
], ids=["fitted", "failed-MLPR", "all-failed"])
def test_report_regenerates_sensitivity(tmp_path, capsys, models, config, code):
    cfg = tmp_path / "run.ini"
    cfg.write_text(config)
    out = tmp_path / "run"
    assert run(["sweep", "--config", cfg, "--n", 120, "--seed", 2, "--models", models,
                "--out", out]) == code
    redone = tmp_path / "redone"
    assert run(["report", "--data", out, "--out", redone]) == 0
    assert "0% vs. 100%" in capsys.readouterr().out
    assert "not run" not in (out / "report.txt").read_text()
    original = (out / "sensitivity.csv").read_text()
    regenerated = (redone / "sensitivity.csv").read_text()
    assert regenerated == original


def test_zero_clean_rmse_fails_only_its_sensitivity_row(tmp_path, capsys):
    data = pvfdi.synth_generate(60, 1)
    path = tmp_path / "constant.csv"
    pvfdi.save_csv(data.replace(power=np.full(len(data), 0.5)), path)
    out = tmp_path / "run"
    # LR fits a constant POWER exactly; MLPR does not
    assert run(["sweep", "--data", path, "--models", "LR,MLPR", "--out", out]) == 3
    assert "model LR failed: ZeroBaseline" in capsys.readouterr().err

    def rows(name):
        lines = (out / name).read_text().splitlines()[1:]
        return {line.split(",")[0]: line.split(",")[1:] for line in lines}

    assert rows("sensitivity.csv")["LR"] == ["ERROR"] * 3
    assert "ERROR" not in rows("sensitivity.csv")["MLPR"]
    assert rows("clean_metrics.csv")["LR"] == ["0.0"] * 3
    assert rows("noise_rmse.csv")["LR"] == ["0.0"] * 4
    assert float(rows("noise_rmse.csv")["MLPR"][0]) > 0.0
    assert "ZeroBaseline" in (out / "report.txt").read_text()
    redone = tmp_path / "redone"
    assert run(["report", "--data", out, "--out", redone]) == 0
    assert (redone / "sensitivity.csv").read_bytes() == (out / "sensitivity.csv").read_bytes()


def test_report_missing_grid_exits_two(tmp_path, capsys):
    assert run(["report", "--data", tmp_path / "nothing.csv",
                "--out", tmp_path / "out"]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [
    "model,10%,100%\nLR,0.1,0.2\n",
    "model,0%,100%\nLR,0.1,abc\n",
    "model,0%,100%\n",  # no model rows
    "",
    "name,0%,100%\nLR,0.1,0.2\n",
    "model,0%,50%\nLR,0.1\n",  # a short row
    # header labels no sweep writes
    "model,0%,nan%,-50%,inf%\nLR,0.1,0.2,0.3,0.4\n",
    "model,-0%,50%\nLR,0.1,0.2\n",
    "model,0%,abc%\nLR,0.1,0.2\n",
    "model,0%,50\nLR,0.1,0.2\n",
    "model,0%,150%\nLR,0.1,0.2\n",
    "model,0%,50.0%\nLR,0.1,0.2\n",
    # a repeated model row: keeping one would silently drop the other
    "model,0%,50%\nLR,0.1,0.2\nLR,0.1,0.4\n",
    "model,0%,50%\nLR,ERROR,ERROR\nLR,0.1,0.4\n",
])
def test_report_bad_grid_exits_two(tmp_path, capsys, grid):
    path = tmp_path / "noise_rmse.csv"
    path.write_text(grid)
    assert run(["report", "--data", path, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("header", ["model,0%,10%,10%", "model,0%,10%,10.0%"])
def test_report_repeated_fraction_exits_two(tmp_path, capsys, header):
    # a sweep never writes a fraction twice; keeping the last column would
    # silently drop the other
    path = tmp_path / "noise_rmse.csv"
    path.write_text(f"{header}\nLR,0.1,0.2,0.3\n")
    assert run(["report", "--data", path, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "repeats a fraction" in err
    assert not (tmp_path / "out").exists()


def test_report_reads_every_label_a_sweep_writes(tmp_path):
    fractions = np.concatenate(([1e-9, 1e-7, 1 / 3, 0.1234561, 0.5, 1.0],
                                np.random.default_rng(5).random(300)))
    labels = sorted({fraction_label(f) for f in fractions})
    path = tmp_path / "noise_rmse.csv"
    path.write_text(",".join(["model", "0%"] + labels) + "\nLR" + ",0.1" * (len(labels) + 1))
    report = _load_noise_grid(path)
    assert [fraction_label(f) for f in report.fractions] == sorted(
        ["0%"] + labels, key=lambda label: float(label[:-1]))


def test_non_utf8_data_exits_two(tmp_path, capsys):
    path = tmp_path / "d.csv"
    assert run(["synth", "--n", 20, "--out", path]) == 0
    path.write_bytes(path.read_text(encoding="utf-8").encode("utf-16"))
    assert run(["bench", "--data", path, "--models", "LR", "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "not UTF-8" in err


# --- argparse behaviour ---------------------------------------------------------------

def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["bench", "--nope"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["inject", "--data", "x.csv", "--out", "y.csv"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_missing_data_file_exits_two(tmp_path, capsys):
    assert run(["inject", "--data", tmp_path / "absent.csv",
                "--out", tmp_path / "o.csv", "--fraction", 0.5]) == 2
    capsys.readouterr()
