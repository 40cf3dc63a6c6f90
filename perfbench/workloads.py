"""The benchmark's workloads: each turns a seed into an ExperimentConfig.

The seed is the only input that varies between runs of one workload.
It becomes the experiment seed, so it fixes the synthetic draw, the
split, the noise and the model seeds; ``c6-sweep`` at seed 42 is the
ROADMAP's criterion-6 sweep exactly.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from pvfdi.data import save_csv, synth_generate
from pvfdi.experiment import ExperimentConfig
from pvfdi.regressors import ModelSpec

SYNTH_N = 10_000

# attack-grid leaves out the two fit-dominated kinds, so that prediction
# and injection carry the run
GRID_KINDS = ("LR", "GPR", "KNN", "DT", "SVR", "LASSO")
GRID_FRACTIONS = tuple(i / 10 for i in range(11))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, data_dir) -> config; may write input files under data_dir
    prepare: Callable[[int, Path], ExperimentConfig]


def _c6_sweep(seed: int, data_dir: Path) -> ExperimentConfig:
    return ExperimentConfig(synth_n=SYNTH_N, seed=seed)


def _attack_grid(seed: int, data_dir: Path) -> ExperimentConfig:
    models = tuple(ModelSpec(kind, seed=seed) for kind in GRID_KINDS)
    return ExperimentConfig(synth_n=SYNTH_N, seed=seed, models=models,
                            fractions=GRID_FRACTIONS)


def _kernel_csv(seed: int, data_dir: Path) -> ExperimentConfig:
    # The path lands in provenance.json, so it is relative to the checkout
    # root and fixed per seed: the stored digests depend on it.
    path = data_dir / f"kernel-csv-seed{seed}.csv"
    save_csv(synth_generate(SYNTH_N, seed), path)
    models = (
        ModelSpec("LR", seed=seed),
        # 4000 points: a Cholesky twice the default size
        ModelSpec("GPR", {"max_points": 4000}, seed=seed),
        # a small epsilon keeps thousands of support vectors, so SMO runs
        # through the LRU kernel-row cache instead of a full kernel matrix
        ModelSpec("SVR", {"epsilon": 0.01}, seed=seed),
    )
    return ExperimentConfig(data_path=path.as_posix(), seed=seed, models=models)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("c6-sweep",
                 "ROADMAP criterion 6 (all eight kinds, 4 fractions); fitting "
                 "MLPR, GBRT and DT dominates it",
                 _c6_sweep),
        Workload("attack-grid",
                 "six kinds without GBRT or MLPR over 11 fractions; KNN "
                 "prediction and injection dominate, fitting is about 4 %",
                 _attack_grid),
        Workload("kernel-csv",
                 "CSV ingestion, a 4000-point GPR Cholesky and SVR at "
                 "epsilon 0.01 running through its kernel-row cache",
                 _kernel_csv),
    )
}
