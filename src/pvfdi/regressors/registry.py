"""The suite's model kinds, one model class each, in benchmark-table order."""

from .gbrt import GBRTModel
from .gpr import GPRModel
from .knn import KNNModel
from .linear import LassoModel, LinearModel
from .mlp import MLPRModel
from .svr import SVRModel
from .tree import TreeModel

REGISTRY = {cls.kind: cls for cls in (LinearModel, GPRModel, KNNModel, TreeModel, GBRTModel,
                                      SVRModel, MLPRModel, LassoModel)}
