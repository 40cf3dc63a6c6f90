import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import pvfdi
import pvfdi.experiment as experiment
from pvfdi.cli import main
from pvfdi.errors import WorkerDied, ZeroBaseline
from pvfdi.experiment import (
    ExperimentConfig,
    compute_sensitivity,
    emit_report,
    fraction_label,
    run_clean_benchmark,
    run_noise_sweep,
    sensitivity_label,
)
from pvfdi.metrics import rmse
from pvfdi.noise import NoiseConfig, inject
from pvfdi.regressors import DEFAULT_KINDS, KNNModel, ModelSpec
from pvfdi.rng import derive_seed
from tests.test_golden import child_env
from tests.test_knn import peak_bytes

BASE = dict(synth_n=240, seed=13)


@pytest.fixture(scope="module")
def sweep_report():
    return run_noise_sweep(ExperimentConfig(**BASE))


def read_bytes_tree(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def fake_host(monkeypatch, n):
    """Let the sweep see ``n`` usable CPUs, as ``taskset`` would, and no
    BLAS thread, as under ``OPENBLAS_NUM_THREADS=1``."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(experiment, "_threads", lambda: 1)


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="workers are forked")


@pytest.fixture()
def forked_once():
    """Fork once and reap the child, before a test reads the real thread count.

    conftest imports numpy before pvfdi, so an unpinned OpenBLAS starts
    its own threads, and it ends them when the process forks. Without an
    earlier pooled test in the process they would still run here.
    """
    child = os.fork()
    if child == 0:
        os._exit(0)
    os.waitpid(child, 0)


def test_labels():
    assert fraction_label(0.0) == "0%"
    assert fraction_label(0.1) == "10%"
    assert fraction_label(1.0) == "100%"
    assert sensitivity_label(0.5) == "0% vs. 50%"


def test_clean_metrics_cohere(sweep_report):
    assert len(sweep_report.model_order) == 8
    for name in sweep_report.model_order:
        t = sweep_report.clean_table[name]
        assert t.rmse > 0.0
        assert t.rmse**2 == pytest.approx(t.mse, rel=1e-12)
        assert t.mae <= t.rmse + 1e-15


def test_grid_shape_and_zero_column(sweep_report):
    for name in sweep_report.model_order:
        row = sweep_report.noise_table[name]
        assert sorted(row) == [0.0, 0.1, 0.5, 1.0]
        # the 0% column is the clean benchmark value, bit for bit
        assert row[0.0] == sweep_report.clean_table[name].rmse
        labels = list(sweep_report.sensitivity_table[name])
        assert labels == ["0% vs. 10%", "0% vs. 50%", "0% vs. 100%"]


def test_sensitivity_matches_percent_change(sweep_report):
    for name in sweep_report.model_order:
        row = sweep_report.noise_table[name]
        base = row[0.0]
        for f in (0.1, 0.5, 1.0):
            expected = (row[f] - base) / base * 100.0
            got = sweep_report.sensitivity_table[name][sensitivity_label(f)]
            assert got == pytest.approx(expected, rel=1e-12)


def test_feature_leak_recovered_exactly(tmp_path):
    # power copied from a feature: a correct pipeline must fit it exactly
    ds = pvfdi.synth_generate(80, seed=2)
    leaky = ds.replace(power=ds.features[:, 0].copy())
    path = tmp_path / "leaky.csv"
    pvfdi.save_csv(leaky, path)
    cfg = ExperimentConfig(data_path=str(path), seed=2, models=(ModelSpec("LR"),))
    report = run_clean_benchmark(cfg)
    assert report.clean_table["LR"].rmse < 1e-6


def test_zero_only_fractions_mirror_clean():
    cfg = ExperimentConfig(**BASE, models=(ModelSpec("LR", seed=13),), fractions=(0.0,))
    report = run_noise_sweep(cfg)
    assert report.noise_table["LR"] == {0.0: report.clean_table["LR"].rmse}
    assert report.sensitivity_table["LR"] == {}
    noisy = report.prediction_series["LR"]["noisy"]
    clean = report.prediction_series["LR"]["clean"]
    np.testing.assert_array_equal(noisy.predicted, clean.predicted)


def test_model_rows_are_isolated(sweep_report):
    # dropping other models must not move LR's numbers
    cfg = ExperimentConfig(**BASE, models=(ModelSpec("LR", seed=13), ModelSpec("DT", seed=13)))
    small = run_noise_sweep(cfg)
    assert small.clean_table["LR"] == sweep_report.clean_table["LR"]
    assert small.noise_table["LR"] == sweep_report.noise_table["LR"]
    assert small.noise_table["DT"] == sweep_report.noise_table["DT"]


def test_repeats_average_independent_draws():
    cfg = ExperimentConfig(
        synth_n=200, seed=5, models=(ModelSpec("LR", seed=5),),
        fractions=(0.0, 0.5), repeats=3,
    )
    report = run_noise_sweep(cfg)

    raw = pvfdi.synth_generate(200, 5)
    train_raw, test_raw = pvfdi.split(raw, pvfdi.SplitConfig(0.8, 5))
    train, (test,) = pvfdi.normalize(train_raw, [test_raw])
    model = pvfdi.regressors.fit(ModelSpec("LR", seed=5), train)
    total = 0.0
    for r in range(3):
        noisy, _ = inject(test, NoiseConfig(0.5, seed=derive_seed(5, "noise", 0.5, r)))
        series = pvfdi.metrics.EvaluationSeries(
            actual=noisy.power, predicted=model.predict_batch(noisy.features)
        )
        total += rmse(series)
    assert report.noise_table["LR"][0.5] == pytest.approx(total / 3.0, rel=1e-14)


def test_duplicate_kinds_get_serial_names():
    cfg = ExperimentConfig(
        **BASE, models=(ModelSpec("LR"), ModelSpec("LR"), ModelSpec("LR", seed=4))
    )
    report = run_clean_benchmark(cfg)
    assert report.model_order == ("LR", "LR.2", "LR.3")


def test_failed_model_becomes_error_row(tmp_path):
    cfg = ExperimentConfig(
        **BASE,
        models=(ModelSpec("KNN", {"k": 100_000}), ModelSpec("LR", seed=13)),
        fractions=(0.0, 1.0),
    )
    report = run_noise_sweep(cfg)
    assert "KNN" in report.errors
    assert "KTooLarge" in report.errors["KNN"]
    assert "KNN" not in report.clean_table
    assert "LR" in report.clean_table

    emit_report(report, tmp_path)
    grid = (tmp_path / "noise_rmse.csv").read_text().splitlines()
    knn_row = next(line for line in grid if line.startswith("KNN,"))
    assert knn_row == "KNN,ERROR,ERROR"
    text = (tmp_path / "report.txt").read_text()
    assert "Model errors" in text and "KTooLarge" in text


@pytest.mark.parametrize("bad_call", [0, 2])  # the clean or the 100% evaluation
def test_non_finite_prediction_fails_only_its_model(tmp_path, monkeypatch, bad_call):
    cfg = ExperimentConfig(
        **BASE, models=(ModelSpec("LR"), ModelSpec("KNN"), ModelSpec("DT")),
        fractions=(0.0, 0.5, 1.0),
    )
    emit_report(run_noise_sweep(cfg), tmp_path / "ok")
    calls = []
    predict = KNNModel._predict_batch

    def one_nan(self, X):
        out = predict(self, X)
        if len(calls) == bad_call:
            out[0] = np.nan
        calls.append(X.shape[0])
        return out

    monkeypatch.setattr(KNNModel, "_predict_batch", one_nan)
    report = run_noise_sweep(cfg)
    assert report.errors == {"KNN": "ValueError: evaluation series contains non-finite values"}
    emit_report(report, tmp_path / "bad")

    ok, bad = read_bytes_tree(tmp_path / "ok"), read_bytes_tree(tmp_path / "bad")
    assert sorted(bad) == sorted(n for n in ok if not n.startswith("series/KNN_"))
    for name in ("clean_metrics.csv", "noise_rmse.csv", "sensitivity.csv"):
        ok_rows, bad_rows = ok[name].decode().splitlines(), bad[name].decode().splitlines()
        knn = bad_rows.index(next(r for r in bad_rows if r.startswith("KNN,")))
        assert set(bad_rows[knn].split(",")[1:]) == {"ERROR"}
        assert bad_rows[:knn] + bad_rows[knn + 1 :] == ok_rows[:knn] + ok_rows[knn + 1 :]
    assert all(bad[n] == ok[n] for n in bad if n.startswith("series/"))
    assert bad["provenance.json"] == ok["provenance.json"]


def test_clamped_predictions_stay_in_unit_interval():
    cfg = ExperimentConfig(
        **BASE, models=(ModelSpec("LR", seed=13),),
        fractions=(0.0, 1.0), clamp_predictions=True,
    )
    report = run_noise_sweep(cfg)
    noisy = report.prediction_series["LR"]["noisy"].predicted
    assert noisy.min() >= 0.0 and noisy.max() <= 1.0


def test_emission_is_byte_deterministic(sweep_report, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    emit_report(sweep_report, first)
    emit_report(sweep_report, second)
    tree_a, tree_b = read_bytes_tree(first), read_bytes_tree(second)
    assert tree_a.keys() == tree_b.keys()
    assert tree_a == tree_b


def test_fresh_run_reproduces_identical_bytes(sweep_report, tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    emit_report(sweep_report, first)
    emit_report(run_noise_sweep(ExperimentConfig(**BASE)), second)
    assert read_bytes_tree(first) == read_bytes_tree(second)


@pytest.mark.parametrize("noise", [
    dict(noise_target="FEATURES"),
    # Only the 100% step's rows reach a series file, and there every row is
    # re-predicted. So a splice that rounds an attacked row differently
    # shows only in the RMSE grid, where unit noise hides it: such rows lie
    # far from the training rows, GPR predicts about 0 there, and a changed
    # last bit vanishes in the RMSE. Small noise keeps them in reach.
    dict(noise_target="FEATURES", noise_std=0.1),
    dict(noise_target="POWER"),
    dict(noise_target="BOTH", noise_columns=("ssrd", "t2m", "tcc")),
])
def test_rowwise_splice_matches_full_batch_prediction(tmp_path, monkeypatch, noise):
    # the row counter sees only this process, so the jobs must run here
    fake_host(monkeypatch, 1)
    # 0.01 of 48 test rows rounds to none, so no row is re-predicted there
    fractions = (0.0, 0.01, 0.1, 0.5, 1.0)
    small = {"GBRT": {"rounds": 5}, "MLPR": {"hidden": 8, "max_epochs": 20}}
    models = tuple(ModelSpec(kind, small.get(kind, {}), seed=13) for kind in DEFAULT_KINDS)
    cfg = ExperimentConfig(**BASE, models=models, fractions=fractions, repeats=2,
                           clamp_predictions=True, **noise)
    knn_rows = []
    predict = KNNModel._predict_batch

    def counted(self, X):
        knn_rows.append(len(X))
        return predict(self, X)

    monkeypatch.setattr(KNNModel, "_predict_batch", counted)
    spliced = run_noise_sweep(cfg)
    emit_report(spliced, tmp_path / "spliced")
    n_test = len(spliced.prediction_series["KNN"]["clean"])
    if cfg.noise_target == "POWER":
        # no feature changes, so every step reuses the clean predictions
        assert sum(knn_rows) == n_test
    else:
        assert sum(knn_rows) == n_test + sum(
            cfg.repeats * math.floor(f * n_test + 0.5) for f in fractions)

    def full_batch_job(shared, index):
        # the reference predicts every row of every test set
        cfg, specs, train, test, steps = shared
        model = experiment.fit(specs[index], train)
        return [model.predict_batch(data.features)
                for data in [test] + [noisy for noisy, _ in steps]]

    monkeypatch.setattr(experiment, "_model_job", full_batch_job)
    emit_report(run_noise_sweep(cfg), tmp_path / "full")
    assert read_bytes_tree(tmp_path / "spliced") == read_bytes_tree(tmp_path / "full")


# every kind, with MLPR diverging so that its ERROR row is compared too
POOL_CFG = ExperimentConfig(
    **BASE, repeats=2,
    models=tuple(ModelSpec(kind, {"learning_rate": 1e300} if kind == "MLPR" else {}, seed=13)
                 for kind in DEFAULT_KINDS),
)


@needs_fork
def test_pool_emits_the_serial_bytes(tmp_path, monkeypatch):
    fits = []  # a forked worker's fits stay in the worker: this sees only ours
    fit = experiment.fit

    def counted(spec, train):
        fits.append(spec.kind)
        return fit(spec, train)

    monkeypatch.setattr(experiment, "fit", counted)
    fake_host(monkeypatch, 1)
    serial = run_noise_sweep(POOL_CFG)
    assert sorted(fits) == sorted(DEFAULT_KINDS)
    assert serial.errors == {
        "MLPR": "NonFiniteLoss: training loss became non-finite at epoch 1"}
    emit_report(serial, tmp_path / "serial")

    fits.clear()
    fake_host(monkeypatch, 2)
    emit_report(run_noise_sweep(POOL_CFG), tmp_path / "pool")
    assert fits == []  # every job ran in a worker
    assert read_bytes_tree(tmp_path / "pool") == read_bytes_tree(tmp_path / "serial")


def _daemon_sweep(out_dir):
    emit_report(run_noise_sweep(POOL_CFG), out_dir)


@needs_fork
def test_daemonic_process_sweeps_serially(tmp_path, monkeypatch):
    # a daemonic process may not start workers, so its sweep runs in-process
    fake_host(monkeypatch, 2)
    emit_report(run_noise_sweep(POOL_CFG), tmp_path / "parent")
    child = multiprocessing.get_context("fork").Process(
        target=_daemon_sweep, args=(tmp_path / "daemon",), daemon=True)
    child.start()
    child.join(timeout=120)
    assert not child.is_alive() and child.exitcode == 0
    assert read_bytes_tree(tmp_path / "daemon") == read_bytes_tree(tmp_path / "parent")


@needs_fork
def test_other_threads_keep_the_sweep_in_process(monkeypatch):
    fake_host(monkeypatch, 4)
    assert experiment._worker_count(8) == 4
    assert experiment._worker_count(3) == 3
    # a BLAS running its own threads would run as many in every worker
    monkeypatch.setattr(experiment, "_threads", lambda: 2)
    assert experiment._worker_count(8) == 1


def test_thread_count_sees_a_started_thread():
    before = experiment._threads()
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert experiment._threads() == before + 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    # a joined thread stays listed until it has exited, which on one CPU can
    # take several tests: wait, so later tests that read the real count see none
    deadline = time.monotonic() + 10
    while experiment._threads() > before and time.monotonic() < deadline:
        time.sleep(0.001)


@needs_fork
def test_back_to_back_sweeps_all_run_pooled(monkeypatch, forked_once):
    # with the real thread count: the sweep's workers are processes, so
    # after a pooled sweep this process runs one thread again at once, and
    # the next sweep does not fall back to running in-process
    if experiment._threads() > 1:
        pytest.skip("this process runs another thread")
    fits = []  # a forked worker's fits stay in the worker: this sees only ours
    fit = experiment.fit

    def counted(spec, train):
        fits.append(spec.kind)
        return fit(spec, train)

    monkeypatch.setattr(experiment, "fit", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = ExperimentConfig(synth_n=60, seed=1, models=(ModelSpec("LR"), ModelSpec("KNN")))
    for sweep in range(20):
        run_noise_sweep(cfg)
        assert fits == [], sweep


@needs_fork
def test_pooled_sweep_runs_no_thread_beside_its_workers(monkeypatch, forked_once):
    # with the real thread count, read while the workers run: the parent
    # starts worker processes, and no thread to feed or watch them
    if experiment._threads() > 1:
        pytest.skip("this process runs another thread")
    fits, during = [], []
    fit, provenance = experiment.fit, experiment._provenance

    def counted(spec, train):
        fits.append(spec.kind)
        return fit(spec, train)

    def watched(*args):
        during.append(experiment._threads())
        return provenance(*args)

    monkeypatch.setattr(experiment, "fit", counted)
    monkeypatch.setattr(experiment, "_provenance", watched)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    run_noise_sweep(ExperimentConfig(synth_n=60, seed=1,
                                     models=(ModelSpec("LR"), ModelSpec("KNN"))))
    assert fits == [] and during == [1]
    assert experiment._threads() == 1


@needs_fork
def test_dead_worker_fails_the_sweep_and_leaves_no_worker(monkeypatch):
    fake_host(monkeypatch, 2)
    parent = os.getpid()
    fit = experiment.fit

    def dying(spec, train):
        if os.getpid() != parent:  # never in this process
            if spec.kind == "KNN":
                os._exit(1)
            time.sleep(60)  # the other worker is still busy when KNN's dies
        return fit(spec, train)

    monkeypatch.setattr(experiment, "fit", dying)
    cfg = ExperimentConfig(synth_n=60, seed=1, models=(ModelSpec("LR"), ModelSpec("KNN")))
    start = time.monotonic()
    with pytest.raises(WorkerDied, match="exit code 1 "):
        run_noise_sweep(cfg)
    assert time.monotonic() - start < 20
    left = multiprocessing.active_children()
    for child in left:
        child.kill()
    assert left == []


@needs_fork
def test_dead_worker_exits_3_without_a_traceback(monkeypatch, tmp_path, capfd):
    fake_host(monkeypatch, 2)
    parent = os.getpid()
    fit = experiment.fit

    def dying(spec, train):
        if os.getpid() != parent:
            os._exit(7)
        return fit(spec, train)

    monkeypatch.setattr(experiment, "fit", dying)
    code = main(["sweep", "--n", "60", "--seed", "1", "--models", "LR,KNN",
                 "--out", str(tmp_path / "out")])
    err = capfd.readouterr().err
    assert code == 3
    assert "exit code 7 " in err and "Traceback" not in err
    assert multiprocessing.active_children() == []


def test_prepare_allocates_each_dataset_once():
    # the raw 200,000 rows, their split and its normalized copy hold 59.6 MiB;
    # copying every array a builder had just made peaked at 83.6 MiB
    peak, (raw, train, test) = peak_bytes(experiment._prepare,
                                          ExperimentConfig(synth_n=200_000, seed=42))
    assert len(raw) == 200_000 and len(train) + len(test) == 200_000
    assert peak < 72 * 2**20


def proc_stat(pid) -> list:
    """The fields of /proc/<pid>/stat after the command name; [] once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def children(pid) -> list:
    """The processes whose parent is ``pid``."""
    return [int(stat.parent.name) for stat in Path("/proc").glob("[0-9]*/stat")
            if proc_stat(stat.parent.name)[1:2] == [str(pid)]]


def running(pid) -> bool:
    return proc_stat(pid)[:1] not in ([], ["Z"])


@needs_fork
@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_workers_exit_once_a_signal_kills_the_sweep(tmp_path):
    # SIGTERM's default action runs no finally, so no one kills the workers:
    # each must find its pipes broken and exit when its jobs are done
    expected = min(len(DEFAULT_KINDS), experiment._usable_cpus())
    if expected < 2:
        pytest.skip("one usable CPU runs the jobs in-process")
    sweep = subprocess.Popen([sys.executable, "-m", "pvfdi.cli", "sweep", "--n", "10000",
                              "--out", str(tmp_path / "o")], env=child_env(),
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        # signal as soon as every worker runs: the shorter worker's jobs
        # can end about a second in, and it then exits on its own
        deadline = time.monotonic() + 30
        while len(workers) < expected and time.monotonic() < deadline:
            workers = children(sweep.pid)
            time.sleep(0.05)
        sweep.send_signal(signal.SIGTERM)
        sweep.wait(timeout=10)
        assert len(workers) == expected
        deadline = time.monotonic() + 10
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert [pid for pid in workers if running(pid)] == []
    finally:
        sweep.kill()
        for pid in workers:
            if running(pid):
                os.kill(pid, signal.SIGKILL)


def test_cost_rank_orders_every_kind():
    assert sorted(experiment.COST_RANK) == sorted(DEFAULT_KINDS)


def test_emitted_grid_reparses_exactly(sweep_report, tmp_path):
    emit_report(sweep_report, tmp_path)
    lines = (tmp_path / "noise_rmse.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["model", "0%", "10%", "50%", "100%"]
    for line in lines[1:]:
        cells = line.split(",")
        row = sweep_report.noise_table[cells[0]]
        for label, cell in zip((0.0, 0.1, 0.5, 1.0), cells[1:]):
            assert float(cell) == row[label]


def test_sensitivity_regenerates_from_emitted_grid(sweep_report, tmp_path):
    emit_report(sweep_report, tmp_path)
    lines = (tmp_path / "noise_rmse.csv").read_text().splitlines()
    fractions = [float(h.rstrip("%")) / 100.0 for h in lines[0].split(",")[1:]]
    grid = {}
    for line in lines[1:]:
        cells = line.split(",")
        grid[cells[0]] = dict(zip(fractions, (float(c) for c in cells[1:])))
    regenerated = compute_sensitivity(grid, {})
    assert regenerated == sweep_report.sensitivity_table


def test_series_files_cover_model_conditions(sweep_report, tmp_path):
    emit_report(sweep_report, tmp_path)
    series = sorted(p.name for p in (tmp_path / "series").iterdir())
    expected = sorted(
        f"{name}_{cond}.csv" for name in sweep_report.model_order
        for cond in ("clean", "noisy")
    )
    assert series == expected
    n_test = 240 - int(240 * 0.8)
    actual_columns = set()
    for name in sweep_report.model_order:
        lines = (tmp_path / "series" / f"{name}_clean.csv").read_text().splitlines()
        assert lines[0] == "index,actual,predicted"
        assert len(lines) == 1 + n_test
        actual_columns.add(tuple(line.split(",")[1] for line in lines[1:]))
    assert len(actual_columns) == 1  # every model saw the same test targets


def test_bench_emission_skips_sweep_files(tmp_path):
    report = run_clean_benchmark(ExperimentConfig(**BASE, models=(ModelSpec("LR"),)))
    emit_report(report, tmp_path)
    assert not (tmp_path / "noise_rmse.csv").exists()
    assert not (tmp_path / "sensitivity.csv").exists()
    assert "Noise sweep: not run" in (tmp_path / "report.txt").read_text()
    assert (tmp_path / "series" / "LR_clean.csv").exists()
    assert not (tmp_path / "series" / "LR_noisy.csv").exists()


def test_provenance_contents(sweep_report, tmp_path):
    emit_report(sweep_report, tmp_path)
    prov = json.loads((tmp_path / "provenance.json").read_text())
    assert prov["dataset"]["source"] == "synth"
    assert prov["dataset"]["rows"] == 240
    assert len(prov["dataset"]["checksum_sha256"]) == 64
    assert [m["kind"] for m in prov["models"]] == list(sweep_report.model_order)
    assert prov["noise"]["fractions"] == [0.0, 0.1, 0.5, 1.0]
    assert "jobs" not in json.dumps(prov)


def test_compute_sensitivity_requires_baseline_column():
    with pytest.raises(ValueError):
        compute_sensitivity({"M": {0.5: 0.2}}, {})
    # a zero clean RMSE fails its own row only
    errors = {}
    table = compute_sensitivity({"M": {0.0: 0.0, 0.5: 0.2}, "N": {0.0: 0.1, 0.5: 0.2}}, errors)
    assert table == {"N": {"0% vs. 50%": 100.0}}
    assert errors == {"M": f"ZeroBaseline: {ZeroBaseline(0.0)}"}


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(fractions=(0.1, 0.5))
    with pytest.raises(ValueError):
        ExperimentConfig(fractions=())
    with pytest.raises(ValueError):
        ExperimentConfig(models=())
    with pytest.raises(ValueError):
        ExperimentConfig(repeats=0)
    with pytest.raises(ValueError):
        ExperimentConfig(noise_std=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(noise_target="nowhere")
    with pytest.raises(ValueError, match="std must be finite"):
        ExperimentConfig(noise_std=math.nan)
    with pytest.raises(ValueError, match="mean must be finite"):
        ExperimentConfig(noise_mean=math.inf)
    # at construction, not as a TypeError mid-run or a silently repeated step
    for bad in ({"repeats": 2.5}, {"repeats": True}, {"synth_n": 100.5}, {"synth_n": 100.0},
                {"fractions": (0.0, 0.5, 0.5)}, {"fractions": (0.0, 0.0)},
                {"seed": 2.5}, {"seed": True}, {"seed": math.nan}, {"train_ratio": math.nan}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            ExperimentConfig(**bad)


def test_empty_noise_columns_mean_every_feature():
    assert ExperimentConfig(noise_columns=()).noise_columns is None
    assert ExperimentConfig(noise_columns=["ssrd"]).noise_columns == ("ssrd",)
