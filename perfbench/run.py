"""pvfdi benchmark: one workload, timed (--trace 0) or traced (--trace 1).

Run from the root of a pvfdi checkout; the package is imported from src/:

    python3 perfbench/run.py --workload c6-sweep --seed 42 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 36 --trace 0

A pipeline run is run_noise_sweep + emit_report into a fresh directory,
with the package defaults (jobs=1). --trace 0 repeats it while the next
run is expected to end within --seconds (at least twice) and reports the
end-to-end metrics. --trace 1 makes one plain run and one traced run and
reports the per-layer metrics. Every run's output tree is checked (see
outputs.py). The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. ``--workload all`` runs
each workload in its own process and prints a table instead.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# relative to ROOT, which is the working directory of every run
OUT = Path("perfbench") / "out"
SETUP_REPEATS = 5
# a single run is too noisy on a shared 2-core host to stand alone
MIN_RUNS = 2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads when the caller sets none of THREAD_VARS. With OpenBLAS's
# default of one thread per CPU, whose idle workers spin, c6-sweep runs
# spread over 19-24 s on a shared 2-vCPU host; with one thread, 21.7-23.4 s.
BLAS_THREADS = "1"
END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_share", "ratio"),
)


def bootstrap():
    """Make the checkout's src/ importable, or exit non-zero without it.

    Runs before numpy is imported, so that the BLAS thread count holds.
    """
    src = ROOT / "src"
    if not (src / "pvfdi" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pvfdi package under {src}")
    os.chdir(ROOT)
    sys.path.insert(0, str(src))
    if not any(k in os.environ for k in THREAD_VARS):
        os.environ.update({k: BLAS_THREADS for k in THREAD_VARS})


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def digest_conditions() -> dict:
    """What an output tree's bytes depend on besides the code and the seed."""
    import numpy as np
    import scipy

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    task_dir = Path("/proc/self/task")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": len(os.listdir(task_dir)) if task_dir.is_dir() else None,
        "python": platform.python_version(),
        **digest_conditions(),
        "blas": blas,
        "seed": seed,
        "git_commit": git_commit(),
    }


def run_once(cfg, check, tracer=None) -> dict:
    """One pipeline run into a fresh directory, checked, then removed."""
    from pvfdi.experiment import emit_report, run_noise_sweep

    from spans import EMIT, RUN

    span = tracer.span if tracer else (lambda name: nullcontext())
    out_dir = Path(tempfile.mkdtemp(prefix="tree-", dir=OUT))
    record = {"digest": None, "problems": []}
    try:
        started = time.perf_counter()
        try:
            with span(RUN) as root:
                report = run_noise_sweep(cfg)
                with span(EMIT):
                    written = emit_report(report, out_dir)
        finally:
            record["seconds"] = time.perf_counter() - started
        record["root"] = root
        record["bytes"] = sum(p.stat().st_size for p in written)
        record["files"] = len(written)
        record["digest"], record["problems"] = check.problems(out_dir)
    except Exception:  # a failed run is counted, never retried
        record["problems"].append(traceback.format_exc().strip())
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    for problem in record["problems"]:
        print(f"perfbench: run failed: {problem}", file=sys.stderr)
    return record


def timed(cfg, check, seconds: float) -> list:
    """MIN_RUNS runs, then more while the next is expected to end within ``seconds``."""
    runs = []
    begin = time.perf_counter()
    while True:
        runs.append(run_once(cfg, check))
        spent = time.perf_counter() - begin
        expected = spent + statistics.median(r["seconds"] for r in runs)
        if len(runs) >= MIN_RUNS and expected > seconds:
            return runs


def traced(cfg, check) -> tuple:
    """One plain run, then one traced run that gives the per-layer metrics."""
    from spans import Tracer, layer_metrics

    plain = run_once(cfg, check)
    tracer = Tracer()
    with tracer.installed():
        runs = [plain, run_once(cfg, check, tracer)]
    last = runs[-1]
    metrics = {}
    if last.get("root") is not None:
        metrics = layer_metrics(tracer, last["root"])
        metrics["experiment.emit_bytes"] = last["bytes"]
        metrics["experiment.files_written"] = last["files"]
        metrics["trace.overhead_s"] = last["seconds"] - plain["seconds"]
    return runs, {"metrics": metrics, "spans": tracer.records()}


def single(args) -> int:
    import outputs
    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    refs = outputs.load_references(digest_conditions())
    check = outputs.OutputCheck(refs["digests"].get(workload.name, {}).get(str(args.seed)))
    fixed_setup = time.perf_counter() - _START
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        cfg = workload.prepare(args.seed, OUT)
        prepare_s.append(time.perf_counter() - started)
    setup_s = fixed_setup + statistics.median(prepare_s)

    try:
        if args.trace:
            runs, trace = traced(cfg, check)
        else:
            runs = timed(cfg, check, args.seconds)
    finally:
        if cfg.data_path is not None:
            Path(cfg.data_path).unlink(missing_ok=True)

    failed = sum(1 for r in runs if r["problems"])
    if args.trace:
        metrics = trace["metrics"]
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {
            "run_s": statistics.median(r["seconds"] for r in runs),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_share": 1 - failed / len(runs),
        }
        units = dict(END_TO_END)
    env = environment(args.seed)
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "environment": env,
        "reference": check.source,
        "run_seconds": [r["seconds"] for r in runs],
        "digests": [r["digest"] for r in runs],
        "problems": [p for r in runs for p in r["problems"]],
        "setup": {"fixed_s": fixed_setup, "prepare_s": prepare_s},
        "computed_counts": list(spans.COMPUTED),
    }
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({**detail, "metrics": metrics}, indent=2) + "\n")
    if args.trace:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for record in trace["spans"]:
                fh.write(json.dumps(record) + "\n")

    print("environment " + json.dumps(env))
    print(f"{workload.name}: {len(runs)} run(s), {failed} failed, "
          f"run seconds {[round(s, 3) for s in detail['run_seconds']]}, "
          f"reference from {check.source}")
    if args.trace and metrics:
        parts = sum(v for k, v in metrics.items()
                    if units[k] == "s" and not k.startswith("trace."))
        print(f"layer seconds incl. experiment.self_s {parts:.6f} "
              f"= trace.run_s {metrics['trace.run_s']:.6f}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def summary(args) -> int:
    """Every workload in its own process; one table of their metrics."""
    from workloads import WORKLOADS

    ok = True
    print(f"{'workload':<12} {'metric':<34} {'value':>14}  unit")
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name:<12} failed with exit code {proc.returncode}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows = {k: (m["value"], m["unit"]) for k, m in result["metrics"].items()}
        if not args.trace:
            rows["failed_share"] = (result["failed"] / result["attempted"], "ratio")
        rows["runs"] = (result["attempted"], "count")
        for metric, (value, unit) in rows.items():
            print(f"{name:<12} {metric:<34} {value:>14.6g}  {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    bootstrap()
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return summary(args) if args.workload == "all" else single(args)


if __name__ == "__main__":
    sys.exit(main())
