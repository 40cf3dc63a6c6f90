"""The eight-model regression suite behind one (spec, dataset) interface.

Each kind is one TrainedModel subclass, declared in its own module next
to its from-scratch fitting routine, which the class carries as ``fit``
along with the kind's rules and model-file schema. This package adds the
ModelSpec record (kind + hyperparameters + seed), validated against that
class, and dispatches fit calls through it.
"""

from dataclasses import dataclass, field
from inspect import signature

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


def _model_class(kind: str):
    try:
        return REGISTRY[kind]
    except KeyError:
        raise InvalidSpec(f"unknown model kind {kind!r}") from None


def default_hyperparameters(kind: str) -> dict:
    """Copy of the documented defaults for one model kind."""
    return _model_class(kind).defaults()


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
        cls = _model_class(self.kind)
        defaults = cls.defaults()
        unknown = set(hp) - set(defaults)
        if unknown:
            raise InvalidSpec(f"{self.kind} does not accept hyperparameters {sorted(unknown)}")
        cls.check(**{**defaults, **hp})
        object.__setattr__(self, "hyperparameters", hp)

    def effective_hyperparameters(self) -> dict:
        """Defaults overlaid with this spec's overrides."""
        return {**REGISTRY[self.kind].defaults(), **self.hyperparameters}


def fit(spec: ModelSpec, train) -> TrainedModel:
    """Fit ``spec`` on a training Dataset (or an (X, y) pair).

    Returns the kind-specific TrainedModel. The spec's seed reaches the
    fitting routines that take one (GPR and MLPR).
    """
    if hasattr(train, "features"):
        X, y = train.features, train.power
    else:
        X, y = train
    routine = REGISTRY[spec.kind].fit
    hp = spec.effective_hyperparameters()
    if "seed" in signature(routine).parameters:
        hp["seed"] = spec.seed
    return routine(X, y, **hp)
