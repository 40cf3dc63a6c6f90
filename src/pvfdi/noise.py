"""Gaussian false-data injection into a seeded fraction of dataset rows.

The attack model perturbs a uniformly chosen subset of rows by adding
independent Normal(mean, std^2) draws to the targeted cells. Injection
never mutates its input; the returned dataset shares unaffected row
values bit-for-bit with the original.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import FEATURE_NAMES, Dataset, nonfinite_column
from .errors import DataError
from .rng import is_seed, stream

__all__ = ["NoiseConfig", "NOISE_TARGETS", "inject"]

NOISE_TARGETS = ("FEATURES", "POWER", "BOTH")


@dataclass(frozen=True)
class NoiseConfig:
    """Parameters of one injection pass.

    ``fraction`` of the rows (round-half-up) receive noise; ``target``
    picks which cells inside those rows are hit, and ``columns`` can
    narrow FEATURES/BOTH injection to a subset of the twelve features.
    None or an empty ``columns`` means all twelve. Construction raises
    ValueError for a NaN or infinite ``mean`` or ``std`` and for a ``seed``
    outside [0, 2**64).
    """

    fraction: float
    mean: float = 0.0
    std: float = 1.0
    target: str = "FEATURES"
    columns: tuple | None = None
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {self.fraction!r}")
        object.__setattr__(self, "fraction", self.fraction + 0.0)  # -0 is the clean 0
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean!r}")
        if not (math.isfinite(self.std) and self.std >= 0):
            raise ValueError(f"std must be finite and >= 0, got {self.std!r}")
        if not is_seed(self.seed):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        if self.target not in NOISE_TARGETS:
            raise ValueError(f"target must be one of {NOISE_TARGETS}, got {self.target!r}")
        if not self.columns:
            object.__setattr__(self, "columns", None)
        else:
            columns = tuple(self.columns)
            unknown = set(columns) - set(FEATURE_NAMES)
            if unknown:
                raise ValueError(f"unknown feature columns: {sorted(unknown)}")
            object.__setattr__(self, "columns", columns)


def inject(test: Dataset, cfg: NoiseConfig) -> tuple:
    """Perturb a seeded random fraction of rows; returns (noisy, affected).

    Exactly round(fraction * n) distinct rows are selected from
    cfg.seed's "noise-rows" stream; each targeted cell in them gains an
    independent draw from the "noise-cells" stream. ``affected`` is the
    sorted list of perturbed row indices. Rows outside it are
    value-identical to the input, and the input is never modified. The
    noise sweep relies on this: it re-predicts only ``affected``.
    Raises DataError naming the first column that the noise takes
    beyond the float range, as a std near 1e308 does.
    """
    n = len(test)
    count = math.floor(cfg.fraction * n + 0.5)  # round half up
    rows = np.sort(stream(cfg.seed, "noise-rows").permutation(n)[:count])

    features = np.array(test.features)
    power = np.array(test.power)
    if count:
        cells = stream(cfg.seed, "noise-cells")
        with np.errstate(over="ignore"):  # an overflow is reported below
            if cfg.target in ("FEATURES", "BOTH"):
                names = cfg.columns if cfg.columns is not None else FEATURE_NAMES
                cols = np.array([FEATURE_NAMES.index(c) for c in names], dtype=np.intp)
                features[np.ix_(rows, cols)] += cells.normal(
                    cfg.mean, cfg.std, size=(count, cols.size)
                )
            if cfg.target in ("POWER", "BOTH"):
                power[rows] += cells.normal(cfg.mean, cfg.std, size=count)
        name = nonfinite_column(features, power)
        if name is not None:
            raise DataError(f"noise takes column {name!r} beyond the float range")

    return test.replace(features=features, power=power), [int(r) for r in rows]
