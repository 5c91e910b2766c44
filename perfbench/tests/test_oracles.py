"""The benchmark's own oracles and span recorder, at toy sizes."""

import threading
import time

import numpy as np
import pytest

import oracles
import spans
from vibroaudit import _parallel, learn
from vibroaudit._rng import stream, substream_id
from vibroaudit.learn import fit_linear, predict


def _toy_problem(seed, n=300, d=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0, size=d) + rng.normal(size=d)
    w = rng.normal(size=d)
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-(X - X.mean(0)) @ w))
    return X, np.where(y, "Unhealthy", "Healthy").astype(object)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_independent_fitter_agrees_with_fit_linear(seed):
    X, labels = _toy_problem(seed)
    train, test = slice(0, 200), slice(200, None)
    model = fit_linear(X[train], labels[train])
    score = oracles.fit_logistic(X[train], (labels[train] == "Unhealthy").astype(float))
    ref = score(X[test])
    got = np.array([predict(model, dict(zip(model.feature_names, row)))[1] for row in X[test]])
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-7)


def test_independent_loso_drops_constant_columns_like_the_program():
    X, labels = _toy_problem(3, n=120)
    X[:, 2] = 4.0
    groups = np.array([f"s{i % 6}" for i in range(len(X))], dtype=object)
    ref = oracles.loso(X, groups, labels)
    for g in sorted(set(groups)):
        train = groups != g
        model = fit_linear(X[train], labels[train])
        assert model.dropped_features == ["f02"]
        for i in np.flatnonzero(~train):
            label, _ = predict(model, dict(zip([f"f{j:02d}" for j in range(5)], X[i])))
            assert ref["ambiguous"][i] or label == ref["pred"][i]


@pytest.mark.parametrize("kind", sorted(oracles.KIND_OFFSETS))
def test_philox_follows_the_stream_convention(kind):
    for seed, index in [(0, 0), (7, 3), (123, 999)]:
        mine = oracles.philox(seed, kind, index)
        theirs = stream(seed, substream_id(kind, index))
        assert np.array_equal(mine.choice(16, size=8, replace=False),
                              theirs.choice(16, size=8, replace=False))
        assert np.array_equal(mine.random(5), theirs.random(5))


class _Clock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    rec = spans.Recorder(clock=_Clock([0.0, 2.0, 5.0, 6.0, 7.0, 10.0]))
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    assert rec.self_seconds()["outer"] == pytest.approx(6.0)
    assert rec.self_seconds()["inner"] == pytest.approx(4.0)
    assert rec.calls("inner") == 2
    outer = next(s for s in rec.spans if s.name == "outer")
    assert all(s.parent == outer.span_id for s in rec.spans if s.name == "inner")


def test_spans_on_pmap_workers_attach_to_the_caller(monkeypatch):
    monkeypatch.setenv("VIBROAUDIT_THREADS", "2")
    rec = spans.Recorder()
    pmap = spans._wrap_pmap(rec, _parallel.pmap)
    barrier = threading.Barrier(2, timeout=10)

    def item(x):
        barrier.wait()  # both items run at once, on two workers
        with rec.span("child"):
            time.sleep(0.2)
        pmap(lambda y: y, [1, 2])
        return x

    with rec.span("parent"):
        assert pmap(item, [0, 1]) == [0, 1]
    parent = next(s for s in rec.spans if s.name == "parent")
    children = [s for s in rec.spans if s.name == "child"]
    assert [c.parent for c in children] == [parent.span_id] * 2
    assert threading.get_ident() not in {c.thread for c in children}
    # concurrent children cover their union once, not their sum
    union = spans._union_length([(c.start, c.end) for c in children])
    assert union < 0.35
    assert rec.self_seconds()["parent"] == pytest.approx(parent.end - parent.start - union)
    assert rec.self_seconds()["parent"] >= 0.0
    assert rec.counts["parallel.pmap.calls"] == 3
    assert rec.counts["parallel.pmap.nested_calls"] == 2


def test_install_wraps_call_sites_and_undo_restores_them():
    original = learn.fit_linear
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert learn.fit_linear is not original
        X, labels = _toy_problem(4, n=60)
        learn.fit_linear(X, labels)
    finally:
        undo()
    assert learn.fit_linear is original
    assert rec.calls("learn.fit_linear") == 1
    assert len(rec.values["learn.newton_iters"]) == 1
