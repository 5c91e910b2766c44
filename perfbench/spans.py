"""Span recorder and call-site wrappers for the traced benchmark run.

The package is not modified: :func:`install` replaces the names through
which one layer calls another (``vibroaudit.learn.fit_linear`` as
``loso_cv`` sees it, ``vibroaudit.audit.loso_cv`` as the analyses see it,
and so on) with wrappers that record a span per call.  A span holds its
name, start, end, parent span and thread.  ``pmap`` is counted, not
spanned: a span opened inside a pmap work item takes as parent the span
that was open on the thread that called pmap, so layer self times stay
attached to the layer that did the work.

Self time of a span is its duration minus the part of its interval
covered by the union of its children's intervals; children running
concurrently on pmap workers are therefore not double-subtracted.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Recorder:
    """Thread-safe in-memory store of spans, counters and value series."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, list] = defaultdict(list)
        self.distinct: dict[str, set] = defaultdict(set)
        self.max_threads = threading.active_count()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- context of the calling thread

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int | None:
        stack = self._stack()
        if stack:
            return stack[-1]
        return getattr(self._local, "inherited", None)

    def in_worker(self) -> bool:
        return getattr(self._local, "worker_depth", 0) > 0

    # -- recording

    def span(self, name: str):
        return _SpanContext(self, name)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def add(self, name: str, value) -> None:
        with self._lock:
            self.values[name].append(value)

    def see(self, name: str, key) -> None:
        with self._lock:
            self.distinct[name].add(key)

    def sample_threads(self) -> None:
        n = threading.active_count()
        with self._lock:
            self.max_threads = max(self.max_threads, n)

    def run_as_worker(self, fn, parent: int | None):
        """Wrap a pmap item function so its spans attach to ``parent``."""

        def item(x):
            local = self._local
            saved = getattr(local, "inherited", None), getattr(local, "worker_depth", 0)
            local.inherited = parent
            local.worker_depth = saved[1] + 1
            self.sample_threads()
            try:
                return fn(x)
            finally:
                local.inherited, local.worker_depth = saved

        return item

    # -- analysis

    def self_times(self) -> dict[int, float]:
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered = _union_length(
                [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.span_id]]
            )
            out[s.span_id] = (s.end - s.start) - covered
        return out

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per span name."""
        selfs = self.self_times()
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.name] += selfs[s.span_id]
        return out

    def busy_seconds(self, name: str) -> float:
        """Wall seconds during which at least one ``name`` span was open."""
        return _union_length([(s.start, s.end) for s in self.spans if s.name == name])

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def descendants_of(self, name: str) -> set[int]:
        """Ids of all spans below any span called ``name``."""
        kids: dict[int, list[int]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                kids[s.parent].append(s.span_id)
        todo = [s.span_id for s in self.spans if s.name == name]
        seen: set[int] = set()
        while todo:
            for k in kids[todo.pop()]:
                if k not in seen:
                    seen.add(k)
                    todo.append(k)
        return seen


class _SpanContext:
    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        rec = self.rec
        self.parent = rec.current()
        self.span_id = next(rec._ids)
        rec._stack().append(self.span_id)
        self.start = rec.clock()
        return self

    def __exit__(self, *exc):
        rec = self.rec
        end = rec.clock()
        rec._stack().pop()
        with rec._lock:
            rec.spans.append(
                Span(self.span_id, self.name, self.start, end, self.parent,
                     threading.get_ident())
            )
        return False


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# ---------------------------------------------------------------------------
# call-site wrappers


def _wrap(rec: Recorder, name: str, fn, after=None, before=None):
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        with rec.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(rec, args, kwargs, out)
        return out

    return wrapper


def _wrap_pmap(rec: Recorder, fn):
    def pmap(item_fn, items):
        rec.count("parallel.pmap.calls")
        if rec.in_worker():
            rec.count("parallel.pmap.nested_calls")
        return fn(rec.run_as_worker(item_fn, rec.current()), items)

    return pmap


def _file_size(path) -> int:
    return os.stat(path).st_size


def _after_ingest(rec, args, kwargs, out):
    path = str(args[0] if args else kwargs["path"])
    rec.count("dataset.ingest_wav.bytes", _file_size(path))
    rec.see("dataset.ingest_wav.paths", path)


def _after_extract(rec, args, kwargs, out):
    rec.count("dataset.rows", out.n_rows)


def _before_select(rec, args, kwargs):
    # the row set a Monte-Carlo draw selects, to count distinct subsets
    mask = np.asarray(args[1] if len(args) > 1 else kwargs["mask"], dtype=bool)
    rec.add("dataset.select.masks", (rec.current(), mask.tobytes()))


def _before_bandpass(rec, args, kwargs):
    sig = args[0] if args else kwargs["signal"]
    rec.count("dsp.bandpass.samples", int(sig.samples.size))


def _before_mel(rec, args, kwargs):
    rec.see("dsp.mel_filterbank.configs", (tuple(args), tuple(sorted(kwargs.items()))))


def _after_fit(rec, args, kwargs, model):
    rec.add("learn.newton_iters", int(model.n_iter))
    if not model.converged:
        rec.count("learn.fit_linear.nonconverged")


def _after_loso(rec, args, kwargs, cv):
    rec.count("learn.skipped_folds", len(cv.skipped_folds))
    # class assignment this cross validation scored, for the
    # counterfactual's distinct-assignment ratio
    rec.add("learn.loso_cv.targets", (rec.current(), tuple(cv.row_true.tolist())))


def _after_condition(rec, args, kwargs, res):
    rec.count("audit.control_draws", int(res.n_control_repeats))
    rec.count("audit.control_nan_draws", int(res.n_control_invalid))


def _after_mixing(rec, args, kwargs, res):
    rec.count("audit.mixing.draws", sum(len(s) for s in res.stratified + res.reference))


def _after_counterfactual(rec, args, kwargs, res):
    rec.count("audit.counterfactual.permutations", len(res.null_accuracies))


def _after_write_csv(rec, args, kwargs, out):
    rec.count("report.bytes_written", _file_size(args[0] if args else kwargs["path"]))


def _after_write_report(rec, args, kwargs, out):
    rec.count("report.bytes_written", _file_size(args[1] if len(args) > 1 else kwargs["path"]))


def _after_write_dataset(rec, args, kwargs, manifest_path):
    wavs = Path(manifest_path).parent.glob("*.wav")
    rec.count("sigsynth.wav_bytes", sum(p.stat().st_size for p in wavs))


AUDIT_ANALYSES = (
    "band_scan",
    "detect_persistent_tones",
    "covariate_predictability",
    "condition_on_covariate",
    "incremental_mixing_curve",
    "rotation_analysis",
    "counterfactual_relabel",
)

_AUDIT_AFTER = {
    "condition_on_covariate": _after_condition,
    "incremental_mixing_curve": _after_mixing,
    "counterfactual_relabel": _after_counterfactual,
}


def install(rec: Recorder):
    """Wrap every layer entry point at its call sites; returns an undo."""
    from vibroaudit import audit, cli, dataset, learn, report
    from vibroaudit.dataset import FeatureTable
    from vibroaudit.report import AuditReport
    from vibroaudit.sigsynth import render

    patched = []

    def patch(owner, attr, new):
        patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap(owners, attr, name, after=None, before=None):
        for owner in owners:
            patch(owner, attr, _wrap(rec, name, getattr(owner, attr), after, before))

    wrap([cli], "sample_cohort", "sigsynth.sample_cohort")
    wrap([cli], "write_dataset", "sigsynth.write_dataset", after=_after_write_dataset)
    wrap([cli, audit, dataset], "ingest_wav", "dataset.ingest_wav", after=_after_ingest)
    wrap([cli, audit], "extract_table", "dataset.extract_table", after=_after_extract)
    wrap([FeatureTable], "select", "dataset.select", before=_before_select)
    patch(FeatureTable, "from_csv",
          staticmethod(_wrap(rec, "dataset.from_csv", FeatureTable.from_csv)))
    wrap([dataset], "bandpass", "dsp.bandpass", before=_before_bandpass)
    wrap([dataset], "power_frames", "dsp.power_frames")
    wrap([dataset], "mfcc_from_power", "dsp.mfcc_from_power")
    wrap([cli], "stft", "dsp.stft")
    wrap([dataset, audit], "mel_filterbank", "dsp.mel_filterbank", before=_before_mel)
    wrap([audit], "loso_cv", "learn.loso_cv", after=_after_loso)
    wrap([learn], "fit_linear", "learn.fit_linear", after=_after_fit)
    for fn in AUDIT_ANALYSES:
        wrap([cli], fn, f"audit.{fn}", after=_AUDIT_AFTER.get(fn))
    wrap([report, cli], "write_series_csv", "report.write", after=_after_write_csv)
    wrap([AuditReport], "write", "report.write", after=_after_write_report)
    for owner in (cli, audit, dataset, learn, render):
        patch(owner, "pmap", _wrap_pmap(rec, owner.pmap))

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(useful: int, attempts: int) -> float:
    # no attempts wastes nothing
    return useful / attempts if attempts else 1.0


def _distinct_under(rec: Recorder, series: str, ancestor: str) -> int:
    """Distinct values of ``series`` recorded inside an ``ancestor`` span."""
    inside = rec.descendants_of(ancestor) | {
        s.span_id for s in rec.spans if s.name == ancestor
    }
    return len({key for parent, key in rec.values[series] if parent in inside})


SPAN_SELF = (
    "cli.main",
    "dataset.ingest_wav",
    "dataset.extract_table",
    "dataset.select",
    "dataset.from_csv",
    "dsp.bandpass",
    "dsp.power_frames",
    "dsp.mfcc_from_power",
    "dsp.stft",
    "learn.loso_cv",
    "learn.fit_linear",
    "report.write",
) + tuple(f"audit.{fn}" for fn in AUDIT_ANALYSES)

SPAN_CALLS = (
    "dataset.ingest_wav",
    "dataset.extract_table",
    "dataset.select",
    "dsp.bandpass",
    "dsp.power_frames",
    "dsp.stft",
    "dsp.mel_filterbank",
    "learn.loso_cv",
    "learn.fit_linear",
)

COUNTS = (
    "dataset.ingest_wav.bytes",
    "dataset.rows",
    "dsp.bandpass.samples",
    "learn.fit_linear.nonconverged",
    "learn.skipped_folds",
    "audit.control_draws",
    "audit.control_nan_draws",
    "report.bytes_written",
    "parallel.pmap.calls",
    "parallel.pmap.nested_calls",
)


def pass_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer numbers of one traced pass (layers = package modules)."""
    m: dict[str, float] = {}
    selfs = rec.self_seconds()
    for name in SPAN_SELF:
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = rec.calls(name)
    for name in COUNTS:
        m[name] = rec.counts.get(name, 0)
    m["learn.fit_linear.busy_s"] = rec.busy_seconds("learn.fit_linear")
    iters = rec.values.get("learn.newton_iters", [])
    m["learn.newton_iters.total"] = sum(iters)
    m["learn.newton_iters.median"] = statistics.median(iters) if iters else 0
    m["learn.newton_iters.max"] = max(iters, default=0)
    m["dataset.ingest_wav.useful_ratio"] = _ratio(
        len(rec.distinct["dataset.ingest_wav.paths"]), rec.calls("dataset.ingest_wav"))
    m["dsp.mel_filterbank.useful_ratio"] = _ratio(
        len(rec.distinct["dsp.mel_filterbank.configs"]), rec.calls("dsp.mel_filterbank"))
    m["audit.mixing.useful_ratio"] = _ratio(
        _distinct_under(rec, "dataset.select.masks", "audit.incremental_mixing_curve"),
        rec.counts.get("audit.mixing.draws", 0))
    m["audit.counterfactual.useful_ratio"] = _ratio(
        _distinct_under(rec, "learn.loso_cv.targets", "audit.counterfactual_relabel"),
        rec.counts.get("audit.counterfactual.permutations", 0))
    m["parallel.max_threads"] = rec.max_threads
    return m


def setup_metrics(rec: Recorder) -> dict[str, float]:
    selfs = rec.self_seconds()
    return {
        "sigsynth.sample_cohort.self_s": selfs.get("sigsynth.sample_cohort", 0.0),
        "sigsynth.write_dataset.self_s": selfs.get("sigsynth.write_dataset", 0.0),
        "sigsynth.wav_bytes": rec.counts.get("sigsynth.wav_bytes", 0),
    }
