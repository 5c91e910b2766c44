"""Tests for the classifier, cross-validation, and 2-D PCA."""

import numpy as np
import pytest

from vibroaudit import _parallel, learn
from vibroaudit.dataset import FeatureTable
from vibroaudit.errors import ParameterError
from vibroaudit.learn import (
    LinearModel,
    Pca2Result,
    _fit_prepared,
    _newton_steps,
    _prepare,
    fit_linear,
    loso_accuracies,
    loso_cv,
    pca2,
    predict,
)


def make_table(matrix, subjects, health, names=None, extra_labels=None):
    matrix = np.asarray(matrix, dtype=np.float64)
    if names is None:
        names = [f"f{j:02d}" for j in range(matrix.shape[1])]
    n = matrix.shape[0]
    labels = {
        "session_id": np.array([f"sess{i}" for i in range(n)], dtype=object),
        "subject": np.array(subjects, dtype=object),
        "health": np.array(health, dtype=object),
        "side": np.array(["left"] * n, dtype=object),
        "device": np.array(["D0"] * n, dtype=object),
    }
    if extra_labels:
        labels.update({k: np.array(v, dtype=object) for k, v in extra_labels.items()})
    return FeatureTable(
        feature_names=list(names),
        matrix=matrix,
        labels=labels,
        repetition_index=np.arange(n, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# fit_linear


class TestFitLinear:
    def test_separable_clusters_perfect_training_accuracy(self):
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(-3, 0.3, 20), rng.normal(3, 0.3, 20)])
        y = ["Healthy"] * 20 + ["Unhealthy"] * 20
        model = fit_linear(x[:, None], y, ["f00"])
        preds = [predict(model, {"f00": v})[0] for v in x]
        assert preds == y
        assert model.converged

    def test_xor_not_linearly_separable(self):
        x = np.array([[0, 0], [1, 1], [0, 1], [1, 0]], dtype=float)
        y = ["Healthy", "Healthy", "Unhealthy", "Unhealthy"]
        model = fit_linear(x, y)
        preds = [predict(model, {"f00": a, "f01": b})[0] for a, b in x]
        acc = np.mean([p == t for p, t in zip(preds, y)])
        assert acc <= 0.75

    def test_huge_l2_predicts_majority(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 2))
        y = ["Unhealthy"] * 20 + ["Healthy"] * 10
        model = fit_linear(x, y, l2=1e9)
        assert np.max(np.abs(model.weight_vector())) < 1e-3
        preds = [predict(model, {"f00": a, "f01": b})[0] for a, b in x]
        assert all(p == "Unhealthy" for p in preds)

    def test_single_class_error(self):
        with pytest.raises(ParameterError, match="2 classes"):
            fit_linear(np.zeros((5, 1)), ["Healthy"] * 5)

    def test_zero_variance_feature_dropped_and_recorded(self):
        rng = np.random.default_rng(2)
        x = np.column_stack([rng.normal(size=20), np.full(20, 7.0)])
        y = ["Healthy"] * 10 + ["Unhealthy"] * 10
        model = fit_linear(x, y, ["live", "flat"])
        assert model.dropped_features == ["flat"]
        assert "flat" not in model.weights
        # prediction does not require the dropped feature's value
        label, score = predict(model, {"live": 0.1, "flat": 7.0})
        assert 0.0 <= score <= 1.0

    def test_l2_must_be_nonnegative(self):
        with pytest.raises(ParameterError):
            fit_linear(np.zeros((4, 1)), ["a", "a", "b", "b"], l2=-1.0)


class TestPredict:
    def zero_model(self):
        return LinearModel(
            feature_names=["f00"],
            weights={"f00": 0.0},
            bias=0.0,
            standardization={"f00": (0.0, 1.0)},
            classes=("Healthy", "Unhealthy"),
        )

    def test_tie_break_is_negative_class(self):
        label, score = predict(self.zero_model(), {"f00": 1.23})
        assert score == 0.5
        assert label == "Healthy"
        assert predict(self.zero_model(), {"f00": 1.23}) == (label, score)

    def test_deep_positive_half_space(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([rng.normal(-2, 0.5, 25), rng.normal(2, 0.5, 25)])
        y = ["Healthy"] * 25 + ["Unhealthy"] * 25
        model = fit_linear(x[:, None], y, ["f00"])
        _, score = predict(model, {"f00": 6.0})
        assert score > 0.9

    def test_monotone_in_positive_weight_feature(self):
        model = LinearModel(
            feature_names=["f00"],
            weights={"f00": 2.0},
            bias=0.1,
            standardization={"f00": (0.5, 2.0)},
            classes=("Healthy", "Unhealthy"),
        )
        scores = [predict(model, {"f00": v})[1] for v in np.linspace(-5, 5, 21)]
        assert np.all(np.diff(scores) >= 0)

    def test_missing_feature_named(self):
        with pytest.raises(ParameterError, match="f00"):
            predict(self.zero_model(), {"other": 1.0})


# ---------------------------------------------------------------------------
# loso_cv


def learnable_table(n_subjects=4, reps=3, sep=3.0, seed=0, noise=0.5):
    rng = np.random.default_rng(seed)
    rows, subjects, health = [], [], []
    for s in range(n_subjects):
        label = "Healthy" if s < n_subjects // 2 else "Unhealthy"
        center = -sep / 2 if label == "Healthy" else sep / 2
        for _ in range(reps):
            rows.append([center + noise * rng.normal(), rng.normal()])
            subjects.append(f"subj{s}")
            health.append(label)
    return make_table(rows, subjects, health)


class TestLosoCv:
    def test_fold_count(self):
        table = learnable_table(n_subjects=5, reps=2)
        cv = loso_cv(table)
        assert cv.n_folds == 5
        assert len(cv.fold_models) == 5

    def test_perfect_feature_gives_full_accuracy(self):
        table = learnable_table(n_subjects=6, reps=4, sep=8.0, noise=0.2)
        cv = loso_cv(table)
        assert cv.mean_repetition_accuracy == 1.0
        assert all(a == 1.0 for a in cv.per_group_accuracy.values())

    def test_shuffled_label_null_is_chance(self):
        # labels shuffled at the row level, independent of features
        accs = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            x = rng.normal(size=(48, 3))
            subjects = np.repeat([f"subj{i}" for i in range(8)], 6)
            health = np.array(["Healthy"] * 24 + ["Unhealthy"] * 24, dtype=object)
            rng.shuffle(health)
            table = make_table(x, subjects, health)
            accs.append(loso_cv(table).mean_repetition_accuracy)
        assert abs(float(np.mean(accs)) - 0.5) < 0.05

    def test_matches_independent_per_fold_oracle(self):
        table = learnable_table(n_subjects=4, reps=3, sep=2.0, noise=1.0, seed=7)
        cv = loso_cv(table)
        subjects = table.labels["subject"]
        names = table.feature_names
        for g in sorted(set(subjects.tolist())):
            train = subjects != g
            model = fit_linear(table.matrix[train], table.labels["health"][train], list(names))
            test_idx = np.where(~train)[0]
            for i in test_idx:
                row = {n: table.matrix[i, j] for j, n in enumerate(names)}
                label, score = predict(model, row)
                assert cv.row_pred[i] == label
                assert cv.row_score[i] == pytest.approx(score, abs=1e-12)
        # micro average recomputed independently
        scored = cv.row_pred != ""
        manual = float(np.mean(cv.row_pred[scored] == table.labels["health"][scored]))
        assert cv.mean_repetition_accuracy == manual

    def test_no_leakage_from_test_rows(self):
        table = learnable_table(n_subjects=4, reps=3, seed=11)
        cv_a = loso_cv(table)
        perturbed = FeatureTable(
            feature_names=list(table.feature_names),
            matrix=table.matrix.copy(),
            labels={k: v.copy() for k, v in table.labels.items()},
            repetition_index=table.repetition_index.copy(),
        )
        mask = perturbed.labels["subject"] == "subj0"
        perturbed.matrix[mask] += 100.0
        cv_b = loso_cv(perturbed)
        ma, mb = cv_a.fold_models["subj0"], cv_b.fold_models["subj0"]
        assert ma.standardization == mb.standardization
        assert ma.weights == mb.weights
        assert ma.bias == mb.bias

    def test_affine_rescaling_invariance_bit_exact(self):
        # power-of-two scaling commutes with IEEE rounding, so the
        # standardized matrix and everything downstream is bit-identical
        table = learnable_table(n_subjects=6, reps=4, seed=13)
        cv_a = loso_cv(table)
        scaled = FeatureTable(
            feature_names=list(table.feature_names),
            matrix=table.matrix.copy(),
            labels=table.labels,
            repetition_index=table.repetition_index,
        )
        scaled.matrix[:, 0] *= 4.0
        cv_b = loso_cv(scaled)
        np.testing.assert_array_equal(cv_a.row_pred, cv_b.row_pred)
        np.testing.assert_array_equal(cv_a.row_score, cv_b.row_score)
        assert cv_a.mean_repetition_accuracy == cv_b.mean_repetition_accuracy

    def test_affine_rescaling_invariance_general_scale(self):
        table = learnable_table(n_subjects=6, reps=4, seed=17)
        cv_a = loso_cv(table)
        scaled = FeatureTable(
            feature_names=list(table.feature_names),
            matrix=table.matrix * 3.0,
            labels=table.labels,
            repetition_index=table.repetition_index,
        )
        cv_b = loso_cv(scaled)
        np.testing.assert_array_equal(cv_a.row_pred, cv_b.row_pred)
        np.testing.assert_allclose(cv_a.row_score, cv_b.row_score, atol=1e-9)

    def test_single_class_fold_skipped_and_reported(self):
        rows = [[0.0, 1.0]] * 2 + [[1.0, 0.0]] * 2 + [[0.5, 0.5]] * 2
        subjects = ["a", "a", "b", "b", "c", "c"]
        health = ["Healthy", "Healthy", "Unhealthy", "Unhealthy", "Healthy", "Healthy"]
        cv = loso_cv(make_table(rows, subjects, health))
        assert "b" in cv.skipped_folds
        assert "single-class" in cv.skipped_folds["b"]
        assert "b" not in cv.per_group_accuracy
        assert set(cv.per_group_accuracy) == {"a", "c"}

    def test_two_group_minimum(self):
        rows = [[0.0], [1.0]]
        with pytest.raises(ParameterError, match=">= 2"):
            loso_cv(make_table(rows, ["a", "a"], ["Healthy", "Unhealthy"]))

    def test_covariate_target(self):
        # the same machinery classifies any binary label column
        rng = np.random.default_rng(5)
        x = np.concatenate([rng.normal(-2, 0.3, 12), rng.normal(2, 0.3, 12)])[:, None]
        subjects = [f"s{i // 3}" for i in range(24)]
        health = ["Healthy"] * 24
        devices = ["D0"] * 12 + ["D1"] * 12
        table = make_table(x, subjects, ["Healthy", "Unhealthy"] * 12, extra_labels={"device": devices})
        cv = loso_cv(table, target="device")
        assert cv.classes == ("D0", "D1")
        assert cv.mean_repetition_accuracy > 0.9


# ---------------------------------------------------------------------------
# stacked Newton kernel: every fold of a cross-validation in one stack


def ragged_table(seed=0):
    """Unequal subject sizes, and f00 constant outside subject s01."""
    rng = np.random.default_rng(seed)
    sizes = [4, 4, 6, 3, 4, 5, 4, 6]
    subjects = [f"s{i:02d}" for i, k in enumerate(sizes) for _ in range(k)]
    health = ["Healthy" if i % 2 else "Unhealthy" for i, k in enumerate(sizes) for _ in range(k)]
    x = rng.normal(size=(len(subjects), 5))
    x[:, 1] += 1.5 * (np.array(health) == "Unhealthy")
    x[np.array(subjects) != "s01", 0] = 3.0
    return make_table(x, subjects, health)


def assert_folds_match_single_fits(table, **kw):
    cv = loso_cv(table, **kw)
    subjects = table.labels["subject"]
    for g, model in cv.fold_models.items():
        train = subjects != g
        alone = fit_linear(
            table.matrix[train], table.labels["health"][train],
            list(table.feature_names), **kw,
        )
        assert model.weights == alone.weights
        assert model.bias == alone.bias
        assert model.n_iter == alone.n_iter
        assert model.converged == alone.converged
        assert model.dropped_features == alone.dropped_features
    return cv


def reference_fit(X, labels, l2=1e-3, max_iter=5000, tol=1e-8):
    """One fit at a time, scalar step size: the kernel's arithmetic unbatched."""
    y = (labels == max(set(labels.tolist()))).astype(np.float64)
    mean, std = X.mean(axis=0), X.std(axis=0)
    keep = std > 0
    Xa = np.hstack([(X[:, keep] - mean[keep]) / std[keep], np.ones((len(X), 1))])
    n, d = Xa.shape[0], Xa.shape[1] - 1
    reg = np.concatenate([np.full(d, l2), [0.0]])

    def loss(theta):
        z = Xa @ theta
        return np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * np.dot(theta[:d], theta[:d])

    theta = np.zeros(d + 1)
    it = 0
    for it in range(1, max_iter + 1):
        z = Xa @ theta
        e = np.exp(-np.abs(z))
        p = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        grad = Xa.T @ (p - y) / n + reg * theta
        if np.max(np.abs(grad)) < tol:
            return theta, True, it
        hess = (Xa * (p * (1.0 - p))[:, None]).T @ Xa / n + np.diag(reg + 1e-12)
        step = np.linalg.solve(hess, grad)
        base, slope, t = loss(theta), float(grad @ step), 1.0
        for _ in range(60):
            if loss(theta - t * step) <= base - 1e-4 * t * slope:
                break
            t *= 0.5
        theta = theta - t * step
    return theta, False, it


def recomputing_stack(Xa, y, l2, max_iter, tol):
    """The stacked kernel as it was before it carried the accepted line-search
    state: scores and loss recomputed at the top of every iteration, and a
    sigmoid by boolean gathers.  Also returns how many candidate steps were
    halved and how many line searches ran out of halvings."""
    def sigmoid(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    G, n, p = Xa.shape
    d = p - 1
    reg = np.concatenate([np.full(d, l2), [0.0]])
    ridge = np.diag(reg + 1e-12)
    theta = np.zeros((G, p))
    converged = np.zeros(G, dtype=bool)
    n_iter = np.full(G, max(max_iter, 0))
    halved = exhausted = 0
    live = np.arange(G)
    A, Y, th = Xa, y, theta.copy()
    for it in range(1, max_iter + 1):
        z = learn._matvec(A, th)
        prob = sigmoid(z)
        grad = learn._matvec(np.swapaxes(A, 1, 2), prob - Y) / n + reg * th
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
        step = learn._newton_steps(hess, grad)
        base = learn._loss(z, Y, th[:, :d], l2)
        slope = learn._rowdot(grad, step)
        t = np.ones(live.size)
        trying = np.arange(live.size)
        for _ in range(60):
            sub = slice(None) if trying.size == live.size else trying
            cand = th[sub] - t[sub, None] * step[sub]
            ok = learn._loss(learn._matvec(A[sub], cand), Y[sub], cand[:, :d], l2) <= (
                base[sub] - 1e-4 * t[sub] * slope[sub]
            )
            trying = trying[~ok]
            if trying.size == 0:
                break
            halved += trying.size
            t[trying] *= 0.5
        exhausted += trying.size
        th = th - t[:, None] * step
    theta[live] = th
    return theta, converged, n_iter, halved, exhausted


class TestStackedKernel:
    @pytest.mark.parametrize("l2, max_iter, tol", [
        (1e-3, 50, 1e-8),     # staggered convergence
        (0.0, 100, 1e-8),     # the first design backtracks
        (1e-3, 8, 1e-8),      # max_iter stops the slower fits
        (1e-3, 40, 0.0),      # no fit converges
    ])
    def test_carried_line_search_state_matches_recomputing_it(self, l2, max_iter, tol):
        labels = np.array(list("ababbbbaba"), dtype=object)
        # the design of test_each_fit_in_a_stack_backtracks_on_its_own
        hard = np.array([
            [-103.4, 111.8], [-2.5, 1.3], [0.4, 0.5], [0.3, 0.2], [0.7, 0.2],
            [-0.7, 0.8], [-6.1, -6.8], [0.6, 4.0], [0.3, 0.2], [0.3, 0.5],
        ])
        rng = np.random.default_rng(3)
        designs = [hard]
        for g in range(11):
            # from overlapping classes to separable ones
            X = rng.normal(size=hard.shape)
            X[:, 0] += (g / 3.0) * (labels == "b")
            designs.append(X)
        Xa = np.stack([_prepare(X, labels).Xa for X in designs])
        y = np.stack([_prepare(X, labels).y for X in designs])
        # a non-finite design never passes the Armijo test: every line
        # search of its fit runs out of halvings
        Xa[5, 3, 0] = np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            theta, converged, n_iter = learn._newton_stack(Xa, y, l2, max_iter, tol)
            want, want_converged, want_iter, halved, exhausted = recomputing_stack(
                Xa, y, l2, max_iter, tol)
        np.testing.assert_array_equal(theta, want)
        np.testing.assert_array_equal(converged, want_converged)
        np.testing.assert_array_equal(n_iter, want_iter)
        assert exhausted == max_iter and not converged[5]
        if max_iter == 50:
            assert converged.sum() == 11 and len(set(n_iter[converged].tolist())) > 3
        if l2 == 0.0:
            assert halved > 60 * exhausted  # halvings besides the exhausted ones
        if max_iter == 8:
            assert 1 < (~converged).sum() < len(converged)
        if tol == 0.0:
            assert not converged.any()

    def test_fit_linear_matches_the_unbatched_loop(self):
        table = ragged_table()
        subjects = table.labels["subject"]
        for g in ("s00", "s01", "s03"):
            for max_iter in (3, 5000):
                train = subjects != g
                X, labels = table.matrix[train], table.labels["health"][train]
                theta, converged, n_iter = reference_fit(X, labels, max_iter=max_iter)
                model = fit_linear(X, labels, list(table.feature_names), max_iter=max_iter)
                np.testing.assert_array_equal(
                    np.append(model.weight_vector(), model.bias), theta)
                assert (model.converged, model.n_iter) == (converged, n_iter)

    def test_ragged_folds_match_their_single_fits_bit_for_bit(self):
        table = ragged_table()
        cv = assert_folds_match_single_fits(table)
        # the constant column splits the folds into several shapes
        assert cv.dropped_features == {"s01": ["f00"]}
        assert all(m.converged for m in cv.fold_models.values())

    def test_folds_stopped_by_max_iter_keep_their_own_state(self):
        table = ragged_table()
        full = loso_cv(table)
        iters = sorted(m.n_iter for m in full.fold_models.values())
        cap = iters[-1] - 1
        cv = assert_folds_match_single_fits(table, max_iter=cap)
        stopped = [m for m in cv.fold_models.values() if not m.converged]
        assert stopped and len(stopped) < len(cv.fold_models)
        assert all(m.n_iter == cap for m in stopped)
        for g, m in cv.fold_models.items():
            if m.converged:
                assert m.n_iter == full.fold_models[g].n_iter

    def test_each_fit_in_a_stack_backtracks_on_its_own(self):
        # at l2=0 the first design halves its step once, at iteration 8
        hard = np.array([
            [-103.4, 111.8], [-2.5, 1.3], [0.4, 0.5], [0.3, 0.2], [0.7, 0.2],
            [-0.7, 0.8], [-6.1, -6.8], [0.6, 4.0], [0.3, 0.2], [0.3, 0.5],
        ])
        labels = np.array(list("ababbbbaba"), dtype=object)
        # the second takes full steps and is still iterating then
        easy = np.random.default_rng(1).normal(size=hard.shape)
        easy[:, 0] += 2.0 * (labels == "b")
        stacked = _fit_prepared(
            [_prepare(hard, labels), _prepare(easy, labels)], 0.0, 100, 1e-8
        )
        for X, (stacked_theta, _, stacked_iter) in zip((hard, easy), stacked):
            alone = fit_linear(X, labels, l2=0.0, max_iter=100)
            np.testing.assert_array_equal(
                stacked_theta, np.append(alone.weight_vector(), alone.bias))
            assert stacked_iter == alone.n_iter
            theta, _, n_iter = reference_fit(X, labels, l2=0.0, max_iter=100)
            np.testing.assert_array_equal(stacked_theta, theta)
            assert n_iter == stacked_iter

    def test_singular_system_steps_along_the_gradient(self):
        hess = np.stack([np.eye(2) * 2.0, np.zeros((2, 2)), np.eye(2) * 4.0])
        grad = np.array([[1.0, 2.0], [3.0, 4.0], [4.0, 8.0]])
        steps = _newton_steps(hess, grad)
        np.testing.assert_array_equal(steps, [[0.5, 1.0], [3.0, 4.0], [1.0, 2.0]])

    def test_loso_inside_a_pmap_worker_starts_no_pool(self, monkeypatch):
        started = []

        class CountingPool(_parallel.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(_parallel, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setenv("VIBROAUDIT_THREADS", "2")
        table = ragged_table()
        accs = _parallel.pmap(lambda t: loso_cv(t).mean_repetition_accuracy, [table, table])
        assert len(started) == 1
        assert accs[0] == accs[1] == loso_cv(table).mean_repetition_accuracy


# ---------------------------------------------------------------------------
# loso_accuracies: the LOSO core on many problems


def random_problem(rng, i):
    """Ragged groups; every third problem leaves one fold single-class,
    every fourth has a column constant outside one group, and a few are
    undefined (one group, or one class)."""
    n_groups = int(rng.integers(3, 7))
    sizes = rng.integers(1, 6, size=n_groups)
    groups = np.repeat([f"g{j}" for j in range(n_groups)], sizes).astype(object)
    targets = np.where(rng.random(len(groups)) < 0.5, "Healthy", "Unhealthy").astype(object)
    targets[groups == "g0"] = "Healthy"
    targets[groups == "g1"] = "Unhealthy"
    if i % 3 == 0:
        # g1 alone is Unhealthy: holding it out leaves a single-class training set
        targets[groups != "g1"] = "Healthy"
    if i % 11 == 5:
        targets[:] = "Healthy"
    if i % 13 == 7:
        groups[:] = "g0"
    X = rng.normal(size=(len(groups), 4))
    X[:, 0] += 1.2 * (targets == "Unhealthy")
    if i % 4 == 1:
        X[groups != "g2", 3] = 0.5
    return X, groups, targets


def loso_or_nan(problem, **kw):
    X, groups, targets = problem
    if len(set(groups.tolist())) < 2 or len(set(targets.tolist())) < 2:
        return np.nan, None
    cv = loso_cv(make_table(X, groups, targets), **kw)
    return cv.mean_repetition_accuracy, cv


class TestLosoAccuracies:
    @pytest.mark.parametrize("kw", [{}, {"max_iter": 3}, {"l2": 0.0}])
    def test_each_accuracy_equals_loso_cv_across_blocks(self, monkeypatch, kw):
        rng = np.random.default_rng(11)
        problems = [random_problem(rng, i) for i in range(40)]
        expected = [loso_or_nan(p, **kw) for p in problems]
        cvs = [cv for _, cv in expected if cv is not None]
        # the cases the core must carry through every block
        assert any(cv.skipped_folds for cv in cvs)
        assert any(cv.dropped_features for cv in cvs)
        assert any(np.isnan(a) for a, _ in expected)
        if kw.get("max_iter") == 3:
            assert any(not m.converged for cv in cvs for m in cv.fold_models.values())

        fit_calls = []
        real_fit = learn._fit_prepared

        def counting_fit(*args):
            fit_calls.append(1)
            return real_fit(*args)

        monkeypatch.setattr(learn, "_fit_prepared", counting_fit)
        monkeypatch.setattr(learn, "_BLOCK_BYTES", 8_000)
        got = loso_accuracies(iter(problems), **kw)
        assert len(fit_calls) > 5
        want = np.array([a for a, _ in expected], dtype=np.float64)
        assert got.tobytes() == want.tobytes()

    def test_problems_are_read_as_the_blocks_need_them(self, monkeypatch):
        rng = np.random.default_rng(3)
        problems = [random_problem(rng, i) for i in range(1, 30, 2)]
        read = []

        def lazily():
            for p in problems:
                read.append(1)
                yield p

        seen_at_fit = []
        real_fit = learn._fit_prepared
        monkeypatch.setattr(learn, "_fit_prepared",
                            lambda *args: seen_at_fit.append(len(read)) or real_fit(*args))
        monkeypatch.setattr(learn, "_BLOCK_BYTES", 8_000)
        loso_accuracies(lazily())
        assert seen_at_fit[0] < len(problems)

    def test_more_than_two_classes_raise(self):
        X = np.random.default_rng(0).normal(size=(6, 2))
        groups = np.array(["a", "a", "b", "b", "c", "c"], dtype=object)
        targets = np.array(["x", "x", "y", "y", "z", "z"], dtype=object)
        with pytest.raises(ParameterError, match="exactly 2 classes"):
            loso_accuracies([(X, groups, targets)])


# ---------------------------------------------------------------------------
# pca2


class TestPca2:
    def test_collinear_points(self):
        pts = np.array([[-2.0, -2.0], [0.0, 0.0], [1.0, 1.0], [3.0, 3.0]])
        res = pca2(pts)
        np.testing.assert_allclose(res.v1, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
        np.testing.assert_allclose(res.explained, [1.0, 0.0], atol=1e-12)

    def test_anisotropic_gaussian_recovers_eigenvector(self):
        rng = np.random.default_rng(0)
        theta = np.radians(30.0)
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        base = rng.normal(size=(100_000, 2)) * [2.0, 1.0]
        pts = base @ rot.T
        res = pca2(pts)
        analytic = np.array([np.cos(theta), np.sin(theta)])
        assert principal_angle_degrees(res.v1, analytic) < 1.0

    def test_isotropic_is_degenerate(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        res = pca2(pts)
        assert res.degenerate

    def test_rotation_equivariance(self):
        pts = np.array([[x, 0.05 * x**2] for x in np.linspace(-3, 3, 40)])
        base = pca2(pts)
        for deg in (10.0, 37.0, 121.0):
            th = np.radians(deg)
            rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
            rotated = pca2(pts @ rot.T)
            expected = rot @ base.v1
            assert principal_angle_degrees(rotated.v1, expected) < 1e-6

    def test_orthogonal_components_unit_norm(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(500, 2)) * [3.0, 1.0]
        res = pca2(pts)
        assert np.linalg.norm(res.v1) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.dot(res.v1, res.v2)) < 1e-10

    def test_sign_convention(self):
        pts = np.array([[-x, x * 0.5] for x in np.linspace(-2, 2, 30)])
        res = pca2(pts)
        assert res.v1[0] >= 0

    def test_errors(self):
        with pytest.raises(ParameterError):
            pca2(np.zeros((2, 2)))
        with pytest.raises(ParameterError):
            pca2(np.ones((10, 2)))  # zero variance
        with pytest.raises(ParameterError):
            pca2(np.zeros((5, 3)))


def principal_angle_degrees(u, v):
    """Angle between two principal axes, reduced to [0, 90] degrees: the
    axes are sign-ambiguous, so the angle uses |cos|."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0 or nv == 0:
        raise ParameterError("cannot measure the angle of a zero vector")
    c = abs(float(np.dot(u, v)) / (nu * nv))
    return float(np.degrees(np.arccos(min(1.0, c))))


class TestPrincipalAngle:
    def test_known_angles(self):
        assert principal_angle_degrees([1, 0], [0, 1]) == pytest.approx(90.0)
        assert principal_angle_degrees([1, 0], [1, 1]) == pytest.approx(45.0)

    def test_sign_symmetry_reduction(self):
        v = np.array([0.6, 0.8])
        assert principal_angle_degrees(v, -v) == pytest.approx(0.0, abs=1e-9)

    def test_zero_vector_error(self):
        with pytest.raises(ParameterError):
            principal_angle_degrees([0, 0], [1, 0])
