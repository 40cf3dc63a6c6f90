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

from .base import (AT_LEAST_ONE, DEPTH, NON_NEGATIVE, POSITIVE, TrainedModel, as_design,
                   require_finite)
from .tree import check_tree, grow_tree, presort, route

__all__ = ["GBRTModel", "fit_gbrt"]


class GBRTModel(TrainedModel):
    kind = "GBRT"
    # trees hold unscaled leaf weights; train_loss_history[r] is the
    # training MSE after round r, entry 0 the base-score loss
    schema = (("float", "base_score"), ("float", "learning_rate"),
              ("float", "reg_lambda"), ("float", "gamma"),
              ("array", "train_loss_history"), ("trees", "trees"))
    rules = {"rounds": AT_LEAST_ONE, "learning_rate": POSITIVE,
             "max_depth": DEPTH, "reg_lambda": NON_NEGATIVE,
             "gamma": NON_NEGATIVE, "min_samples_leaf": AT_LEAST_ONE}
    rowwise = True  # per-row tree walks summed elementwise

    def _check_fields(self):
        require_finite(base_score=self.base_score, learning_rate=self.learning_rate)
        for arrays in self.trees:
            check_tree(arrays, self._n_features)

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
    GBRTModel.check(rounds=rounds, learning_rate=learning_rate, max_depth=max_depth,
                    reg_lambda=reg_lambda, gamma=gamma, min_samples_leaf=min_samples_leaf)
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

    return GBRTModel(X.shape[1], base_score=base, learning_rate=learning_rate,
                     reg_lambda=reg_lambda, gamma=gamma, train_loss_history=history, trees=trees)


GBRTModel.fit = staticmethod(fit_gbrt)
