"""Independent reference computations the benchmark checks outputs against.

Nothing here calls into vibroaudit's learning or random-stream code: the
logistic fitter minimizes the documented loss with scipy's trust-region
solver instead of the package's damped Newton loop, and the Philox draws
are rebuilt from the documented ``(seed, kind offset + index)`` key
convention.  A disagreement therefore points at the program, not at a
shared helper.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

# Default L2 strength of the program's classifier (learn.DEFAULT_L2).
L2 = 1e-3

# A held-out row whose oracle score lies this close to 0.5 may fall on
# either side of the threshold in the program; its prediction is not
# compared.
AMBIGUOUS = 1e-6

# Documented stream-id offsets per Monte-Carlo consumer (README: keyed
# counter-based streams, one id space per kind).
KIND_OFFSETS = {"control": 2_000_000, "mixing": 3_000_000, "permutation": 4_000_000}


def philox(seed: int, kind: str, index: int) -> np.random.Generator:
    """Generator for draw ``index`` of ``kind`` under master ``seed``."""
    return np.random.Generator(np.random.Philox(key=[seed, KIND_OFFSETS[kind] + index]))


def fit_logistic(X: np.ndarray, y: np.ndarray, l2: float = L2):
    """Minimize mean logistic loss + l2/2 |w|^2 on standardized features.

    Standardization uses the training rows' mean and population standard
    deviation; zero-variance columns are dropped; the bias is not
    regularized.  Returns a scoring function p(positive | rows).
    """
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    keep = std > 0
    A = np.hstack([(X[:, keep] - mean[keep]) / std[keep], np.ones((len(X), 1))])
    n, d1 = A.shape
    reg = np.full(d1, l2)
    reg[-1] = 0.0

    def loss_grad(theta):
        z = A @ theta
        loss = np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * np.dot(reg * theta, theta)
        return loss, A.T @ (expit(z) - y) / n + reg * theta

    def hess(theta):
        p = expit(A @ theta)
        return (A * (p * (1.0 - p))[:, None]).T @ A / n + np.diag(reg)

    res = minimize(loss_grad, np.zeros(d1), jac=True, hess=hess,
                   method="trust-exact", options={"gtol": 1e-10, "maxiter": 1000})
    theta = res.x

    def score(rows: np.ndarray) -> np.ndarray:
        Z = (rows[:, keep] - mean[keep]) / std[keep]
        return expit(Z @ theta[:-1] + theta[-1])

    return score


def loso(X: np.ndarray, groups, targets, l2: float = L2) -> dict:
    """Leave-one-group-out predictions, one refit per held-out group.

    Folds whose training rows hold a single class are skipped and their
    rows left unscored.  Returns per-row ``pred`` (None when unscored),
    ``correct`` and ``ambiguous`` flags, plus the micro ``accuracy``.
    """
    groups = np.asarray(groups, dtype=object)
    targets = np.asarray(targets, dtype=object)
    negative, positive = sorted(set(targets.tolist()))
    y = (targets == positive).astype(np.float64)
    n = len(targets)
    pred = np.array([None] * n, dtype=object)
    score = np.full(n, np.nan)
    for g in sorted(set(groups.tolist())):
        test = groups == g
        if len(set(y[~test].tolist())) < 2:
            continue
        score[test] = fit_logistic(X[~test], y[~test], l2)(X[test])
        pred[test] = np.where(score[test] > 0.5, positive, negative)
    scored = ~np.isnan(score)
    correct = scored & (pred == targets)
    return {
        "pred": pred,
        "ambiguous": scored & (np.abs(score - 0.5) < AMBIGUOUS),
        "accuracy": float(correct[scored].mean()),
        "n_scored": int(scored.sum()),
        "correct": correct,
    }


def accuracy_matches(program_acc: float, ref: dict) -> bool:
    """Program accuracy equals the oracle's up to its ambiguous rows."""
    slack = ref["ambiguous"].sum() / ref["n_scored"]
    return abs(program_acc - ref["accuracy"]) <= slack + 1e-12
