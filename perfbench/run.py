#!/usr/bin/env python3
"""Benchmark vibroaudit's documented CLI on three audit workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is imported from
``src/`` of the checkout and driven in-process through
``vibroaudit.cli.main``.  Before numpy loads, the benchmark pins the
program (``VIBROAUDIT_THREADS``) and BLAS to one thread, so that a pass
times the program's work rather than the scheduling of Python threads on
a shared machine; ``--threads default`` clears those variables instead,
for the default-policy reference figures in README.md.

A run renders the workload's cohort at least ``SETUPS[0]`` times and for
at least ``SETUPS[1]`` seconds (median = setup_s), then runs one warm-up
pass and repeats whole timed passes of the workload's CLI calls while
another pass fits in ``--seconds`` (at one thread, on each allowed CPU in
turn), checks that every pass wrote the same
outputs, and checks the warm-up pass's outputs against independent
computations.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 1`` every
layer entry point is wrapped (see spans.py) and the metrics are the
per-layer numbers of the timed passes instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# set-ups per run: at least this many, and for at least this many seconds,
# so that the sub-second cohorts still give a steady median
SETUPS = (3, 2.0)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", choices=("1", "default"), default="1",
                   help="1 pins the program and BLAS to one thread; default leaves "
                        "the program's own thread policy (reference runs only)")
    return p.parse_args(argv)


def set_thread_policy(threads: str) -> None:
    # must run before numpy is imported: OpenBLAS reads these at load time
    for var in ("VIBROAUDIT_THREADS",) + BLAS_THREAD_VARS:
        if threads == "default":
            os.environ.pop(var, None)
        else:
            os.environ[var] = threads


def import_program():
    """Put the checkout's ``src`` first on the path, or fail."""
    src = ROOT / "src"
    if not (src / "vibroaudit" / "cli.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'vibroaudit'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))


def main(argv=None) -> int:
    args = parse_args(argv)
    set_thread_policy(args.threads)
    import_program()
    import bench  # noqa: E402  (needs the paths set above)

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 1
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace),
                       SETUPS, BENCH_DIR / "work", rotate=args.threads == "1")
    walls = " ".join(f"{w:.3f}" for w in result["pass_walls"])
    print(f"{args.workload} seed {args.seed}: {result['attempted']} operations, "
          f"{result['failed']} failed; pass wall s: {walls}", file=sys.stderr)
    print(bench.result_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
