"""Linear classification, leave-one-subject-out validation, and 2-D PCA.

The classifier is an L2-regularized logistic regression on per-fold
standardized features.  Minimization uses damped Newton steps with an
Armijo backtracking line search; the regularized logistic loss is
strictly convex, so this reaches the same unique optimum a plain
gradient descent would, in two orders of magnitude fewer iterations
(the audit battery refits thousands of folds per run).  Convergence is
declared when the gradient max-norm drops below tol.

One leave-one-group-out core gives a problem's fold designs, scores
its held-out rows and reduces them to an accuracy: ``loso_cv`` adds the
fold-level report, ``loso_accuracies`` keeps only the accuracy of many
problems (Monte-Carlo draws).  Folds of one shape go through one batched
Newton kernel, and ``fit_linear`` is that kernel on a stack of one, so a
fit's bits never depend on what else shares its stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from ._parallel import pmap  # noqa: F401  unused here; perfbench/spans.py patches learn.pmap
from .dataset import FeatureTable
from .errors import ParameterError

DEFAULT_L2 = 1e-3
DEFAULT_MAX_ITER = 5000
DEFAULT_TOL = 1e-8
# a score above this predicts the positive class; a tie predicts the negative
DECISION_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# model


@dataclass
class LinearModel:
    """Affine classifier on standardized features.

    classes = (negative, positive) in sorted order; the score is
    p(positive | x).  Features with zero variance in the training fold
    are dropped and listed in dropped_features.  Predictions threshold
    the score at DECISION_THRESHOLD.
    """

    feature_names: list[str]
    weights: dict[str, float]
    bias: float
    standardization: dict[str, tuple[float, float]]
    classes: tuple[str, str]
    dropped_features: list[str] = field(default_factory=list)
    converged: bool = True
    n_iter: int = 0

    def weight_vector(self) -> np.ndarray:
        return np.array([self.weights[n] for n in self.feature_names])


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-z) for z >= 0 and e^z / (1 + e^z) below, never overflowing
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
    # each live fit's scores and loss at th, carried from its accepted step
    z = _matvec(A, th)
    loss = _loss(z, Y, th[:, :d], l2)
    for it in range(1, max_iter + 1):
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
            z, loss, prob, grad = z[go], loss[go], prob[go], grad[go]
        r = prob * (1.0 - prob)
        hess = np.swapaxes(A * r[:, :, None], 1, 2) @ A / n + ridge
        step = _newton_steps(hess, grad)
        # Armijo backtracking on the regularized loss, one step size per fit
        slope = _rowdot(grad, step)
        t = np.ones(live.size)
        trying = np.arange(live.size)
        for _ in range(60):
            sub = slice(None) if trying.size == live.size else trying
            cand = th[sub] - t[sub, None] * step[sub]
            z_cand = _matvec(A[sub], cand)
            loss_cand = _loss(z_cand, Y[sub], cand[:, :d], l2)
            ok = loss_cand <= loss[sub] - 1e-4 * t[sub] * slope[sub]
            z[trying[ok]] = z_cand[ok]
            loss[trying[ok]] = loss_cand[ok]
            trying = trying[~ok]
            if trying.size == 0:
                break
            t[trying] *= 0.5
        th = th - t[:, None] * step
        if trying.size:  # 60 halvings, none accepted: score the last one
            z[trying] = _matvec(A[trying], th[trying])
            loss[trying] = _loss(z[trying], Y[trying], th[trying, :d], l2)
    theta[live] = th
    return theta, converged, n_iter


@dataclass
class _Prepared:
    """One fit's standardized design, ready for the Newton kernel."""

    Xa: np.ndarray
    y: np.ndarray
    keep: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    classes: tuple[str, str]


def _prepare(features, labels) -> _Prepared:
    X = np.asarray(features, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    labels = np.asarray(labels, dtype=object)
    if X.shape[0] != len(labels):
        raise ParameterError(f"{X.shape[0]} rows but {len(labels)} labels")
    negative, positive = _two_classes(labels, "labels")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    keep = std > 0
    Xs = (X[:, keep] - mean[keep]) / std[keep]
    Xa = np.hstack([Xs, np.ones((Xs.shape[0], 1))])
    y = (labels == positive).astype(np.float64)
    return _Prepared(Xa, y, keep, mean, std, (str(negative), str(positive)))


def _two_classes(labels: np.ndarray, what: str) -> list:
    values = sorted(set(labels.tolist()))
    if len(values) != 2:
        raise ParameterError(f"{what}: need exactly 2 classes, got {values}")
    return values


def _fit_prepared(fits: list[_Prepared], l2: float, max_iter: int, tol: float) -> list:
    """(theta: kept-feature weights then bias, converged, n_iter) of every
    prepared design, fitted in one Newton stack per (rows, columns) shape."""
    if l2 < 0:
        raise ParameterError("l2 must be >= 0")
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, f in enumerate(fits):
        by_shape.setdefault(f.Xa.shape, []).append(i)
    solved: list = [None] * len(fits)
    for members in by_shape.values():
        theta, converged, n_iter = _newton_stack(
            np.stack([fits[i].Xa for i in members]),
            np.stack([fits[i].y for i in members]),
            l2, max_iter, tol,
        )
        for k, i in enumerate(members):
            solved[i] = theta[k], bool(converged[k]), int(n_iter[k])
    return solved


def _linear_model(f: _Prepared, names: list[str], theta, converged, n_iter) -> LinearModel:
    kept = [n for n, k in zip(names, f.keep) if k]
    return LinearModel(
        feature_names=kept,
        weights={n: float(w) for n, w in zip(kept, theta[:-1])},
        bias=float(theta[-1]),
        standardization={n: (float(m), float(s)) for n, m, s, k in zip(names, f.mean, f.std, f.keep) if k},
        classes=f.classes,
        dropped_features=[n for n, k in zip(names, f.keep) if not k],
        converged=converged,
        n_iter=n_iter,
    )


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
    fit = _prepare(features, labels)
    names = [f"f{j:02d}" for j in range(len(fit.keep))] if feature_names is None else list(feature_names)
    if len(names) != len(fit.keep):
        raise ParameterError("feature_names length does not match feature count")
    return _linear_model(fit, names, *_fit_prepared([fit], l2, max_iter, tol)[0])


def _scores(X: np.ndarray, mean: np.ndarray, std: np.ndarray, w: np.ndarray, bias) -> np.ndarray:
    """p(positive) of raw feature rows under a model's standardization and weights."""
    return _sigmoid(((X - mean) / std) @ w + bias)


def _predict_labels(scores: np.ndarray, classes) -> np.ndarray:
    """The prediction rule: positive above DECISION_THRESHOLD, else negative."""
    return np.where(scores > DECISION_THRESHOLD, classes[1], classes[0]).astype(object)


def predict(model: LinearModel, values: Mapping[str, float]) -> tuple[str, float]:
    """Score one sample, a mapping of feature name to value:
    (predicted label, p(positive))."""
    names = model.feature_names
    for name in names:
        if name not in values:
            raise ParameterError(f"missing feature {name!r} required by the model")
    mean, std = np.array([model.standardization[n] for n in names]).reshape(-1, 2).T
    scores = _scores(np.array([[float(values[n]) for n in names]]), mean, std,
                     model.weight_vector(), model.bias)
    return _predict_labels(scores, model.classes)[0], float(scores[0])


# ---------------------------------------------------------------------------
# leave-one-group-out cross-validation


def _loso_folds(matrix: np.ndarray, groups: np.ndarray, targets: np.ndarray, group_key: str):
    """(group, held-out rows, training design) of each fold in sorted group
    order, and why each skipped fold (training set single-class) was skipped."""
    folds, skipped = [], {}
    for g in sorted(set(groups.tolist())):
        held = groups == g
        present = set(targets[~held].tolist())
        if len(present) < 2:
            skipped[str(g)] = f"training set single-class ({present.pop()}) without {group_key}={g}"
        else:
            folds.append((g, held, _prepare(matrix[~held], targets[~held])))
    return folds, skipped


def _held_out(matrix: np.ndarray, folds, thetas, classes) -> tuple[np.ndarray, np.ndarray]:
    """(score, predicted class) of each row under the model of the fold
    that held it out; NaN and "" in skipped folds."""
    scores = np.full(len(matrix), np.nan)
    pred = np.full(len(matrix), "", dtype=object)
    for (_, held, f), theta in zip(folds, thetas):
        k = f.keep
        scores[held] = _scores(matrix[held][:, k], f.mean[k], f.std[k], theta[:-1], theta[-1])
        pred[held] = _predict_labels(scores[held], classes)
    return scores, pred


def _accuracy(pred: np.ndarray, targets: np.ndarray) -> float:
    """Micro-averaged accuracy: correct over scored ("" marks unscored) repetitions."""
    scored = pred != ""
    return float(np.mean(pred[scored] == targets[scored])) if scored.any() else float("nan")


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
    groups, targets = table.label(group_key), table.label(target)
    if len(set(groups.tolist())) < 2:
        raise ParameterError(f"leave-one-{group_key}-out needs >= 2 distinct {group_key} values")
    classes = tuple(str(c) for c in _two_classes(targets, f"target {target!r}"))
    negative, positive = classes
    folds, skipped = _loso_folds(table.matrix, groups, targets, group_key)
    solved = _fit_prepared([f for _, _, f in folds], l2, max_iter, tol)
    row_score, row_pred = _held_out(table.matrix, folds, [s[0] for s in solved], classes)
    names = table.feature_names
    fold_models = {str(g): _linear_model(f, names, *s) for (g, _, f), s in zip(folds, solved)}

    per_group: dict[str, float] = {}
    votes_correct = []
    for g, held, _ in folds:
        per_group[str(g)] = float(np.mean(row_pred[held] == targets[held]))
        # subject-level majority vote (reported, not used for acceptance)
        vote = positive if 2 * np.sum(row_pred[held] == positive) > held.sum() else negative
        votes_correct.append(1.0 if vote == targets[held][0] else 0.0)
    scored = row_pred != ""
    confusion = {t: {p: 0 for p in classes} for t in classes}
    for t, p in zip(targets[scored], row_pred[scored]):
        confusion[str(t)][str(p)] += 1

    return CvResult(
        group_key=group_key,
        target=target,
        classes=classes,
        per_group_accuracy=per_group,
        mean_repetition_accuracy=_accuracy(row_pred, targets),
        subject_majority_accuracy=float(np.mean(votes_correct)) if votes_correct else np.nan,
        fold_models=fold_models,
        confusion=confusion,
        skipped_folds=skipped,
        row_group=groups.copy(),
        row_true=targets.copy(),
        row_pred=row_pred,
        row_score=row_score,
        dropped_features={g: m.dropped_features for g, m in fold_models.items()
                          if m.dropped_features},
    )


# bytes of training designs per fitted block of loso_accuracies
_BLOCK_BYTES = 2 << 20


def loso_accuracies(
    problems: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    l2: float = DEFAULT_L2,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> np.ndarray:
    """``loso_cv(...).mean_repetition_accuracy`` of each (matrix, groups,
    targets) problem, bit for bit; NaN where fewer than 2 groups or 2
    classes leave the cross validation undefined.

    Problems are read lazily, and the folds of each block of about
    ``_BLOCK_BYTES`` of training designs go through one ``_fit_prepared``.
    """
    accs: list[float] = []
    block: list = []  # (design bytes, index, matrix, targets, classes, folds)

    def fit_block() -> None:
        solved = iter(_fit_prepared([f for *_, fs in block for _, _, f in fs], l2, max_iter, tol))
        for _, i, matrix, targets, classes, folds in block:
            pred = _held_out(matrix, folds, [next(solved)[0] for _ in folds], classes)[1]
            accs[i] = _accuracy(pred, targets)
        block.clear()

    for matrix, groups, targets in problems:
        accs.append(float("nan"))
        if min(len(set(groups.tolist())), len(set(targets.tolist()))) < 2:
            continue
        classes = _two_classes(targets, "target")
        folds, _ = _loso_folds(matrix, groups, targets, "group")
        size = sum(f.Xa.nbytes for _, _, f in folds)
        if block and sum(b[0] for b in block) + size > _BLOCK_BYTES:
            fit_block()
        block.append((size, len(accs) - 1, matrix, targets, classes, folds))
    fit_block()
    return np.array(accs, dtype=np.float64)


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

