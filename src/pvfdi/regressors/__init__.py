"""The eight-model regression suite behind one (spec, dataset) interface.

Each kind has a from-scratch fitting routine in its own module, which
also declares the kind's registry entry (defaults, range rules, fit
adapter and model-file schema). This package adds the ModelSpec record
(kind + hyperparameters + seed), validated against that entry, and
dispatches fit calls through it.
"""

from dataclasses import dataclass, field

from ..errors import InvalidSpec
from .base import TrainedModel
from .gbrt import GBRTModel, fit_gbrt
from .gpr import GPRModel, fit_gpr, rbf_kernel
from .knn import KNNModel, fit_knn
from .linear import LinearModel, fit_lasso, fit_lr, lasso_lambda_max
from .mlp import MLPRModel, fit_mlpr, init_params, loss_and_gradient, mlp_loss
from .registry import REGISTRY
from .serialize import FORMAT_VERSION, dumps, load_model, loads, save_model
from .svr import SVRModel, fit_svr
from .tree import TreeModel, fit_dt, grow_tree, presort, route

__all__ = [
    "KINDS",
    "DEFAULT_KINDS",
    "ModelSpec",
    "fit",
    "default_hyperparameters",
    "TrainedModel",
    "LinearModel", "fit_lr", "fit_lasso", "lasso_lambda_max",
    "GPRModel", "fit_gpr", "rbf_kernel",
    "KNNModel", "fit_knn",
    "TreeModel", "fit_dt", "grow_tree", "presort", "route",
    "GBRTModel", "fit_gbrt",
    "SVRModel", "fit_svr",
    "MLPRModel", "fit_mlpr", "init_params", "mlp_loss", "loss_and_gradient",
    "save_model", "load_model", "dumps", "loads", "FORMAT_VERSION",
]

DEFAULT_KINDS = tuple(REGISTRY)
KINDS = frozenset(DEFAULT_KINDS)


def _entry(kind: str):
    try:
        return REGISTRY[kind]
    except KeyError:
        raise InvalidSpec(f"unknown model kind {kind!r}") from None


def default_hyperparameters(kind: str) -> dict:
    """Copy of the documented defaults for one model kind."""
    return dict(_entry(kind).defaults)


@dataclass(frozen=True)
class ModelSpec:
    """What to fit: a kind, its hyperparameter overrides, and a seed.

    The seed feeds MLPR weight initialization and GPR subset selection;
    the other kinds are deterministic without it. Hyperparameters are
    validated against the kind at construction.
    """

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        hp = dict(self.hyperparameters) if self.hyperparameters else {}
        entry = _entry(self.kind)
        unknown = set(hp) - set(entry.defaults)
        if unknown:
            raise InvalidSpec(f"{self.kind} does not accept hyperparameters {sorted(unknown)}")
        entry.check(**{**entry.defaults, **hp})
        object.__setattr__(self, "hyperparameters", hp)

    def effective_hyperparameters(self) -> dict:
        """Defaults overlaid with this spec's overrides."""
        return {**REGISTRY[self.kind].defaults, **self.hyperparameters}


def fit(spec: ModelSpec, train) -> TrainedModel:
    """Fit ``spec`` on a training Dataset (or an (X, y) pair).

    Returns the kind-specific TrainedModel.
    """
    if hasattr(train, "features"):
        X, y = train.features, train.power
    else:
        X, y = train
    return REGISTRY[spec.kind].fit(X, y, spec.effective_hyperparameters(), spec.seed)
