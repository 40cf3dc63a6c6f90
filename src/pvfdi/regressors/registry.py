"""The suite's model kinds, one entry each, in benchmark-table order."""

from .gbrt import GBRT
from .gpr import GPR
from .knn import KNN
from .linear import LASSO, LR
from .mlp import MLPR
from .svr import SVR
from .tree import DT

REGISTRY = {entry.name: entry for entry in (LR, GPR, KNN, DT, GBRT, SVR, MLPR, LASSO)}
