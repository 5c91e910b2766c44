"""Run loop of the benchmark: set-up, timed passes, checks, metrics.

Imported by run.py once the checkout's ``src`` is on the path and the
thread policy is fixed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from vibroaudit import cli
from vibroaudit.report import strip_timing

import spans
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


class Context:
    """Counts operations: one CLI call (exit 0 or 2 succeeds) or one check."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.recorder: spans.Recorder | None = None

    def cli(self, argv: list[str]) -> int:
        self.attempted += 1
        # the CLI's progress lines would break the one-JSON-line contract
        with contextlib.redirect_stdout(io.StringIO()):
            if self.recorder is None:
                rc = cli.main(argv)
            else:
                with self.recorder.span("cli.main"):
                    rc = cli.main(argv)
        if rc not in (cli.EXIT_OK, cli.EXIT_FLAGS):
            self.failed += 1
            print(f"FAILED (exit {rc}): vibroaudit {' '.join(argv)}", file=sys.stderr)
        return rc

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {name}: {detail}", file=sys.stderr)


def same_outputs(a: Path, b: Path) -> bool:
    """Equal file sets; reports equal once timing_s is stripped, the rest byte-equal."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False
    for rel in files_a:
        if rel.name == "report.json":
            docs = [strip_timing(json.loads((d / rel).read_text())) for d in (a, b)]
            if docs[0] != docs[1]:
                return False
        elif (a / rel).read_bytes() != (b / rel).read_bytes():
            return False
    return True


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


@contextlib.contextmanager
def traced(ctx: Context, enabled: bool):
    """Install a fresh recorder for the block; yields it (or None)."""
    if not enabled:
        yield None
        return
    rec = spans.Recorder()
    undo = spans.install(rec)
    ctx.recorder = rec
    try:
        yield rec
    finally:
        ctx.recorder = None
        undo()


# Per-layer numbers that need not repeat exactly: thread high-water marks
# depend on scheduling, and report.json carries timing_s values whose
# printed width varies.  Every other number that is not a time is a count
# of work and must be equal in every pass.
VARYING = ("parallel.max_threads", "report.bytes_written")


def _is_exact(name: str) -> bool:
    return not name.endswith("_s") and name not in VARYING


def _combine(rows: list[dict]) -> dict:
    """One value per metric over passes: exact counts as they are, the rest by median."""
    return {k: rows[0][k] if _is_exact(k) else statistics.median(r[k] for r in rows)
            for k in rows[0]}


def run(name: str, seed: int, seconds: float, trace: bool, setups: tuple[int, float],
        work_root: Path, rotate: bool = False) -> dict:
    """One benchmark run; ``setups`` is (least count, least seconds) of set-ups.

    With ``rotate``, successive timed passes run on each allowed CPU in turn
    (for a single-threaded program only: threads inherit the pin).
    """
    workload = WORKLOADS[name]()
    work = work_root / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(seed)
    allowed = sorted(os.sched_getaffinity(0))
    rotate = allowed if rotate and len(allowed) > 1 else None
    try:
        setup_s, setup_layers = [], []
        least, least_s = setups
        i = 0
        while i < least or sum(setup_s) < least_s:
            data = work / f"data{i}"
            with traced(ctx, trace) as rec:
                t0 = time.perf_counter()
                workload.setup(ctx, data)
                setup_s.append(time.perf_counter() - t0)
            if rec is not None:
                setup_layers.append(spans.setup_metrics(rec))
            if i:
                shutil.rmtree(work / f"data{i - 1}")
            i += 1
        workload.prepare(ctx, data)

        # pass 0 warms up and is the reference for the checks; it is not timed
        walls, cpus, layers = [], [], []
        first = work / "pass0"
        start = time.perf_counter()
        workload.run_pass(ctx, data, first)
        k = 1
        while True:
            out = work / f"pass{k}"
            if rotate:
                # a shared host slows each vCPU on its own for seconds at a time,
                # and the OS keeps one busy thread on one vCPU for a whole run;
                # taking the vCPUs in turn gives every run the same mix of them
                os.sched_setaffinity(0, {rotate[k % len(rotate)]})
            with traced(ctx, trace) as rec:
                t0, c0 = time.perf_counter(), cpu_seconds()
                workload.run_pass(ctx, data, out)
                walls.append(time.perf_counter() - t0)
                cpus.append(cpu_seconds() - c0)
            if rec is not None:
                layers.append(spans.pass_metrics(rec))
            ctx.check("pass outputs equal the first pass's", same_outputs(first, out), str(out))
            shutil.rmtree(out)
            k += 1
            # stop before a pass that would end past the measuring time
            if time.perf_counter() - start + statistics.median(walls) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        try:
            workload.check(ctx, data, first)
        except Exception:  # a crash in a check is a failed check, reported
            ctx.check("output checks ran", False, traceback.format_exc())
    finally:
        if rotate:
            os.sched_setaffinity(0, allowed)
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        differ = sorted({k for r in layers for k in r if _is_exact(k) and r[k] != layers[0][k]})
        ctx.check("traced counts repeat from pass to pass", not differ,
                  f"{differ} differ over {len(layers)} passes")
        values = {**_combine(setup_layers), **_combine(layers),
                  "trace.pass_wall_s": statistics.median(walls)}
        wanted = SPEC["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_s),
        }
        wanted = SPEC["end_to_end"]
    return {
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
        "pass_walls": walls,
    }


def result_line(result: dict) -> str:
    return json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")})
