"""Linear classification, leave-one-subject-out validation, and 2-D PCA.

The classifier is an L2-regularized logistic regression on per-fold
standardized features.  Minimization uses damped Newton steps with an
Armijo backtracking line search; the regularized logistic loss is
strictly convex, so this reaches the same unique optimum a plain
gradient descent would, in two orders of magnitude fewer iterations
(the audit battery refits thousands of folds per run).  Convergence is
declared when the gradient max-norm drops below tol.

Cross-validation fits all of its folds as one stack: folds whose
training designs share a shape go through one batched Newton kernel
(one stacked solve per iteration, a step size and a stopping iteration
per fold), and ``fit_linear`` is the same kernel on a stack of one, so
a fold refitted alone gives its cross-validated model bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ._parallel import pmap  # noqa: F401  unused here; perfbench/spans.py patches learn.pmap
from .dataset import FeatureTable, FeatureVector
from .errors import ParameterError

DEFAULT_L2 = 1e-3
DEFAULT_MAX_ITER = 5000
DEFAULT_TOL = 1e-8


# ---------------------------------------------------------------------------
# model


@dataclass
class LinearModel:
    """Affine classifier on standardized features.

    classes = (negative, positive) in sorted order; the score is
    p(positive | x).  Features with zero variance in the training fold
    are dropped and listed in dropped_features.  threshold is fixed at
    0.5 with the documented tie-break: a score of exactly 0.5 predicts
    the negative class.
    """

    feature_names: list[str]
    weights: dict[str, float]
    bias: float
    standardization: dict[str, tuple[float, float]]
    classes: tuple[str, str]
    dropped_features: list[str] = field(default_factory=list)
    converged: bool = True
    n_iter: int = 0
    threshold: float = 0.5

    def weight_vector(self) -> np.ndarray:
        return np.array([self.weights[n] for n in self.feature_names])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _loss(z: np.ndarray, y: np.ndarray, w: np.ndarray, l2: float) -> np.ndarray:
    # per-fit mean logistic loss + L2 on weights (bias unregularized);
    # rows of z, y and w are independent fits
    return np.mean(np.logaddexp(0.0, z) - y * z, axis=1) + 0.5 * l2 * _rowdot(w, w)


# Stacked products go through matmul, which calls the same BLAS routine
# on each slice as on a single fit, so a fit's bits do not depend on
# what else is in its stack (einsum or sum reductions would not keep that).
def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (A @ v[:, :, None])[:, :, 0]


def _newton_steps(hess: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Solve every fit's Newton system; a singular one steps along grad."""
    try:
        return np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        steps = grad.copy()
        for g in range(len(hess)):
            try:
                steps[g] = np.linalg.solve(hess[g], grad[g][:, None])[:, 0]
            except np.linalg.LinAlgError:
                pass
        return steps


def _newton_stack(
    Xa: np.ndarray, y: np.ndarray, l2: float, max_iter: int, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on a (G, n, d+1) stack of fits that share one shape.

    Xa holds each fit's standardized features plus a ones column, y its
    0/1 targets.  Every fit keeps its own Armijo step size and stops on
    its own; a converged fit is frozen and leaves the stack.  Returns
    theta (G, d+1: weights then bias), converged (G,) and n_iter (G,).
    """
    G, n, p = Xa.shape
    d = p - 1
    reg = np.concatenate([np.full(d, l2), [0.0]])
    ridge = np.diag(reg + 1e-12)
    theta = np.zeros((G, p))
    converged = np.zeros(G, dtype=bool)
    n_iter = np.full(G, max(max_iter, 0))
    live = np.arange(G)  # fits still iterating, and their stacks
    A, Y, th = Xa, y, theta.copy()
    for it in range(1, max_iter + 1):
        z = _matvec(A, th)
        prob = _sigmoid(z)
        grad = _matvec(np.swapaxes(A, 1, 2), prob - Y) / n + reg * th
        done = np.max(np.abs(grad), axis=1) < tol
        if done.any():
            converged[live[done]] = True
            n_iter[live[done]] = it
            theta[live[done]] = th[done]
            go = ~done
            live, A, Y, th = live[go], A[go], Y[go], th[go]
            if live.size == 0:
                break
            z, prob, grad = z[go], prob[go], grad[go]
        r = prob * (1.0 - prob)
        hess = np.swapaxes(A * r[:, :, None], 1, 2) @ A / n + ridge
        step = _newton_steps(hess, grad)
        # Armijo backtracking on the regularized loss, one step size per fit
        base = _loss(z, Y, th[:, :d], l2)
        slope = _rowdot(grad, step)
        t = np.ones(live.size)
        trying = np.arange(live.size)
        for _ in range(60):
            sub = slice(None) if trying.size == live.size else trying
            cand = th[sub] - t[sub, None] * step[sub]
            ok = _loss(_matvec(A[sub], cand), Y[sub], cand[:, :d], l2) <= (
                base[sub] - 1e-4 * t[sub] * slope[sub]
            )
            trying = trying[~ok]
            if trying.size == 0:
                break
            t[trying] *= 0.5
        th = th - t[:, None] * step
    theta[live] = th
    return theta, converged, n_iter


@dataclass
class _Prepared:
    """One fit's standardized design, ready for the Newton kernel."""

    Xa: np.ndarray
    y: np.ndarray
    feature_names: list[str]
    keep: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    classes: tuple[str, str]


def _prepare(features, labels, feature_names: list[str] | None) -> _Prepared:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    labels = np.asarray(labels, dtype=object)
    if X.shape[0] != len(labels):
        raise ParameterError(f"{X.shape[0]} rows but {len(labels)} labels")
    class_values = sorted(set(labels.tolist()))
    if len(class_values) != 2:
        raise ParameterError(
            f"need exactly 2 classes, got {len(class_values)}: {class_values}"
        )
    negative, positive = class_values
    if feature_names is None:
        feature_names = [f"f{j:02d}" for j in range(X.shape[1])]
    if len(feature_names) != X.shape[1]:
        raise ParameterError("feature_names length does not match feature count")

    mean = X.mean(axis=0)
    std = X.std(axis=0)
    keep = std > 0
    Xs = (X[:, keep] - mean[keep]) / std[keep]
    return _Prepared(
        Xa=np.hstack([Xs, np.ones((Xs.shape[0], 1))]),
        y=(labels == positive).astype(np.float64),
        feature_names=list(feature_names),
        keep=keep,
        mean=mean,
        std=std,
        classes=(str(negative), str(positive)),
    )


def _fit_prepared(
    fits: list[_Prepared], l2: float, max_iter: int, tol: float
) -> list[LinearModel]:
    """Fit every prepared design, one Newton stack per (rows, columns) shape."""
    if l2 < 0:
        raise ParameterError("l2 must be >= 0")
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, f in enumerate(fits):
        by_shape.setdefault(f.Xa.shape, []).append(i)
    solved: dict[int, tuple[np.ndarray, bool, int]] = {}
    for members in by_shape.values():
        theta, converged, n_iter = _newton_stack(
            np.stack([fits[i].Xa for i in members]),
            np.stack([fits[i].y for i in members]),
            l2, max_iter, tol,
        )
        for k, i in enumerate(members):
            solved[i] = theta[k], bool(converged[k]), int(n_iter[k])

    models = []
    for i, f in enumerate(fits):
        theta, converged, n_iter = solved[i]
        kept = [n for n, k in zip(f.feature_names, f.keep) if k]
        d = len(kept)
        models.append(LinearModel(
            feature_names=kept,
            weights={n: float(w) for n, w in zip(kept, theta[:d])},
            bias=float(theta[d]),
            standardization={
                n: (float(m), float(s))
                for n, m, s, k in zip(f.feature_names, f.mean, f.std, f.keep) if k
            },
            classes=f.classes,
            dropped_features=[n for n, k in zip(f.feature_names, f.keep) if not k],
            converged=converged,
            n_iter=n_iter,
        ))
    return models


def fit_linear(
    features: np.ndarray,
    labels,
    feature_names: list[str] | None = None,
    l2: float = DEFAULT_L2,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> LinearModel:
    """Fit the logistic model on standardized features.

    ``features`` is (n_samples, n_features); ``labels`` is a sequence of
    exactly two distinct values; the lexicographically larger one is the
    positive class (so Unhealthy is positive against Healthy).  This is
    the one-fit call of the kernel every cross-validation uses, so a
    fold refitted here reproduces its cross-validated model exactly.
    """
    return _fit_prepared([_prepare(features, labels, feature_names)], l2, max_iter, tol)[0]


def _score_matrix(model: LinearModel, X: np.ndarray, feature_names: list[str]) -> np.ndarray:
    """Vectorized scores for rows whose columns are feature_names."""
    cols = []
    for name in model.feature_names:
        try:
            cols.append(feature_names.index(name))
        except ValueError:
            raise ParameterError(f"missing feature {name!r} required by the model") from None
    mean = np.array([model.standardization[n][0] for n in model.feature_names])
    std = np.array([model.standardization[n][1] for n in model.feature_names])
    Xs = (X[:, cols] - mean) / std
    return _sigmoid(Xs @ model.weight_vector() + model.bias)


def _labels_from_scores(model: LinearModel, scores: np.ndarray) -> np.ndarray:
    # tie-break: exactly threshold -> negative class
    return np.where(scores > model.threshold, model.classes[1], model.classes[0]).astype(object)


def predict(model: LinearModel, feature_vector) -> tuple[str, float]:
    """Score one sample: (predicted label, p(positive)).

    Accepts a mapping of feature name to value or a FeatureVector.
    """
    if isinstance(feature_vector, FeatureVector):
        values: Mapping[str, float] = feature_vector.values
    else:
        values = feature_vector
    for name in model.feature_names:
        if name not in values:
            raise ParameterError(f"missing feature {name!r} required by the model")
    X = np.array([[float(values[n]) for n in model.feature_names]])
    score = float(_score_matrix(model, X, list(model.feature_names))[0])
    label = model.classes[1] if score > model.threshold else model.classes[0]
    return label, score


# ---------------------------------------------------------------------------
# leave-one-group-out cross-validation


@dataclass
class CvResult:
    """Leave-one-group-out outcome, predictions aligned to table rows.

    mean_repetition_accuracy is the micro average over all scored rows
    (correct repetitions / total repetitions).  Skipped folds (training
    set left single-class by the holdout) are reported, their rows stay
    unscored, and they are excluded from the averages.
    """

    group_key: str
    target: str
    classes: tuple[str, str]
    per_group_accuracy: dict[str, float]
    mean_repetition_accuracy: float
    subject_majority_accuracy: float
    fold_models: dict[str, LinearModel]
    confusion: dict[str, dict[str, int]]
    skipped_folds: dict[str, str]
    row_group: np.ndarray
    row_true: np.ndarray
    row_pred: np.ndarray
    row_score: np.ndarray
    dropped_features: dict[str, list[str]]

    @property
    def n_folds(self) -> int:
        return len(self.per_group_accuracy) + len(self.skipped_folds)


def loso_cv(
    table: FeatureTable,
    group_key: str = "subject",
    target: str = "health",
    l2: float = DEFAULT_L2,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> CvResult:
    """Leave-one-group-out cross-validation over a feature table.

    One fold per distinct group value; standardization and zero-variance
    handling happen inside each fold's fit, so nothing from the held-out
    rows can leak into training.
    """
    groups = table.label(group_key)
    targets = table.label(target)
    unique_groups = sorted(set(groups.tolist()))
    if len(unique_groups) < 2:
        raise ParameterError(
            f"leave-one-{group_key}-out needs >= 2 distinct {group_key} values"
        )
    class_values = sorted(set(targets.tolist()))
    if len(class_values) != 2:
        raise ParameterError(
            f"target {target!r} must have exactly 2 values, got {class_values}"
        )
    negative, positive = (str(c) for c in class_values)

    names = list(table.feature_names)
    fits: list[tuple[str, _Prepared]] = []
    skipped: dict[str, str] = {}
    for g in unique_groups:
        train = groups != g
        train_targets = set(targets[train].tolist())
        if len(train_targets) < 2:
            skipped[str(g)] = (
                f"training set single-class ({train_targets.pop()}) without {group_key}={g}"
            )
            continue
        fits.append((g, _prepare(table.matrix[train], targets[train], names)))
    models = _fit_prepared([f for _, f in fits], l2, max_iter, tol)

    n = table.n_rows
    row_pred = np.array([""] * n, dtype=object)
    row_score = np.full(n, np.nan)
    fold_models: dict[str, LinearModel] = {}
    dropped: dict[str, list[str]] = {}
    for (g, _), model in zip(fits, models):
        mask = groups == g
        scores = _score_matrix(model, table.matrix[mask], names)
        row_score[mask] = scores
        row_pred[mask] = _labels_from_scores(model, scores)
        fold_models[str(g)] = model
        if model.dropped_features:
            dropped[str(g)] = model.dropped_features

    scored = np.array([p != "" for p in row_pred])
    correct = scored & (row_pred == targets)
    per_group: dict[str, float] = {}
    for g in unique_groups:
        mask = (groups == g) & scored
        if mask.any():
            per_group[str(g)] = float(correct[mask].mean())
    mean_acc = float(correct[scored].mean()) if scored.any() else float("nan")

    # subject-level majority vote (reported, not used for acceptance)
    votes_correct = []
    for g in unique_groups:
        mask = (groups == g) & scored
        if not mask.any():
            continue
        true_label = targets[mask][0]
        pos_votes = int(np.sum(row_pred[mask] == positive))
        neg_votes = int(mask.sum()) - pos_votes
        vote = positive if pos_votes > neg_votes else negative
        votes_correct.append(1.0 if vote == true_label else 0.0)
    majority = float(np.mean(votes_correct)) if votes_correct else float("nan")

    confusion = {t: {p: 0 for p in (negative, positive)} for t in (negative, positive)}
    for i in range(n):
        if scored[i]:
            confusion[str(targets[i])][str(row_pred[i])] += 1

    return CvResult(
        group_key=group_key,
        target=target,
        classes=(negative, positive),
        per_group_accuracy=per_group,
        mean_repetition_accuracy=mean_acc,
        subject_majority_accuracy=majority,
        fold_models=fold_models,
        confusion=confusion,
        skipped_folds=skipped,
        row_group=groups.copy(),
        row_true=targets.copy(),
        row_pred=row_pred,
        row_score=row_score,
        dropped_features=dropped,
    )


# ---------------------------------------------------------------------------
# 2-D principal components


@dataclass
class Pca2Result:
    """Eigen-decomposition of a 2x2 covariance.

    v1 is sign-fixed so its first coordinate is >= 0 (and its second
    >= 0 when the first is 0); degenerate marks a near-isotropic
    covariance whose principal direction, and hence any angle built
    from it, is undefined.
    """

    mean: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    explained: np.ndarray
    degenerate: bool


def _fix_sign(v: np.ndarray) -> np.ndarray:
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return -v
    return v


def pca2(points: np.ndarray) -> Pca2Result:
    """Principal axes of 2-D points.

    Degenerate when the eigenvalue gap is below 1e-9 relative to the
    leading eigenvalue.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ParameterError(f"pca2 expects (n, 2) points, got {pts.shape}")
    if pts.shape[0] < 3:
        raise ParameterError(f"pca2 needs >= 3 samples, got {pts.shape[0]}")
    mean = pts.mean(axis=0)
    cov = np.cov(pts.T, ddof=1)
    total = float(np.trace(cov))
    if total <= 0:
        raise ParameterError("pca2 needs nonzero total variance")
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    v1 = _fix_sign(eigvecs[:, 0])
    v2 = _fix_sign(eigvecs[:, 1])
    gap = (eigvals[0] - eigvals[1]) / max(eigvals[0], 1e-300)
    return Pca2Result(
        mean=mean,
        v1=v1,
        v2=v2,
        explained=eigvals / eigvals.sum(),
        degenerate=bool(gap < 1e-9),
    )


def principal_angle_degrees(u: np.ndarray, v: np.ndarray) -> float:
    """Angle between two principal axes, reduced to [0, 90] degrees.

    Principal axes are sign-ambiguous, so the angle uses |cos|.
    """
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ParameterError("cannot measure the angle of a zero vector")
    c = abs(float(np.dot(u, v)) / (nu * nv))
    return float(np.degrees(np.arccos(min(1.0, c))))
