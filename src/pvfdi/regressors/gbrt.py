"""Gradient-boosted regression trees with second-order split gains.

Squared-loss boosting in the extreme-gradient style: each round fits a
tree to the per-sample gradients g_i = yhat_i - y_i (hessians are 1),
leaf weights are -G/(H + reg_lambda), and a node splits only when
gain = 0.5 * [G_L^2/(H_L+reg_lambda) + G_R^2/(H_R+reg_lambda)
             - G^2/(H+reg_lambda)] - gamma
is positive. Predictions start from the training-target mean and add
learning_rate times each tree's leaf weight.
"""

import numpy as np

from .base import (AT_LEAST_ONE, DEPTH, NON_NEGATIVE, POSITIVE, ModelKind, TrainedModel, as_design,
                   require_finite)
from .tree import grow_tree, presort, route

__all__ = ["GBRTModel", "fit_gbrt"]


class GBRTModel(TrainedModel):
    kind = "GBRT"
    rowwise = True  # per-row tree walks summed elementwise

    def __init__(self, base_score, trees, learning_rate, reg_lambda, gamma,
                 train_loss_history, n_features):
        super().__init__(n_features)
        require_finite(base_score=base_score, learning_rate=learning_rate)
        for t, (_, threshold, _, _, value) in enumerate(trees):
            require_finite(**{f"tree{t}.threshold": threshold, f"tree{t}.value": value})
        self.base_score = float(base_score)
        self.trees = tuple(trees)  # flat-array tuples, unscaled leaf weights
        self.learning_rate = float(learning_rate)
        self.reg_lambda = float(reg_lambda)
        self.gamma = float(gamma)
        # training MSE after round r; entry 0 is the base-score loss
        self.train_loss_history = tuple(train_loss_history)

    @property
    def rounds(self) -> int:
        return len(self.trees)

    def _predict_batch(self, X):
        out = np.full(X.shape[0], self.base_score)
        for arrays in self.trees:
            out += self.learning_rate * route(arrays, X)
        return out


def fit_gbrt(
    X,
    y,
    rounds: int = 100,
    learning_rate: float = 0.1,
    max_depth: int = 3,
    reg_lambda: float = 1.0,
    gamma: float = 0.0,
    min_samples_leaf: int = 1,
) -> GBRTModel:
    GBRT.check(rounds=rounds)
    X, y = as_design(X, y)

    columns = presort(X)  # X is fixed, so every round shares one sort
    base = float(y.mean())
    yhat = np.full(y.shape[0], base)
    history = [float(np.mean((yhat - y) ** 2))]
    trees = []
    for _ in range(rounds):
        grad = yhat - y
        arrays = grow_tree(
            columns,
            grad,
            reg_lambda=reg_lambda,
            leaf_sign=-1.0,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            min_split_quality=2.0 * gamma,
        )
        trees.append(arrays)
        yhat += learning_rate * route(arrays, X)
        history.append(float(np.mean((yhat - y) ** 2)))

    return GBRTModel(base, trees, learning_rate, reg_lambda, gamma, history, X.shape[1])


GBRT = ModelKind(
    "GBRT",
    defaults={"rounds": 100, "learning_rate": 0.1, "max_depth": 3,
              "reg_lambda": 1.0, "gamma": 0.0, "min_samples_leaf": 1},
    rules={"rounds": AT_LEAST_ONE, "learning_rate": POSITIVE,
           "max_depth": DEPTH, "reg_lambda": NON_NEGATIVE,
           "gamma": NON_NEGATIVE, "min_samples_leaf": AT_LEAST_ONE},
    fit=lambda X, y, hp, seed: fit_gbrt(X, y, **hp),
    schema=(("float", "base_score"), ("float", "learning_rate"),
            ("float", "reg_lambda"), ("float", "gamma"),
            ("array", "train_loss_history"), ("trees", "trees")),
    load=lambda fields, n_features: GBRTModel(
        fields["base_score"], fields["trees"], fields["learning_rate"],
        fields["reg_lambda"], fields["gamma"],
        fields["train_loss_history"].tolist(), n_features),
)
