"""Bounded parallel mapping for independent work items.

Work items in this package are pure functions of explicit inputs plus
a derived random stream, so executing them concurrently cannot change
any result, only the wall time.  ``pmap`` runs them through a thread
pool and gathers results in input order.  The work items are sessions
(feature extraction, tone detection, cohort rendering); the draws of a
Monte-Carlo analysis are fitted as stacked blocks on the calling thread
(``learn.loso_accuracies``).  A work item never calls ``pmap`` itself,
so pools are never nested.

The ``VIBROAUDIT_THREADS`` environment variable caps the worker count.
Unset or invalid values fall back to the machine CPU count; a cap of 1
short-circuits to a plain serial loop.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

_ENV_VAR = "VIBROAUDIT_THREADS"


def worker_count() -> int:
    """Resolve the effective parallelism cap (always >= 1)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is not None:
        try:
            cap = int(raw)
        except ValueError:
            cap = 0
        if cap >= 1:
            return cap
    return max(1, os.cpu_count() or 1)


def pmap(fn: Callable[[_T], _R], items: Iterable[_T]) -> list[_R]:
    """Apply ``fn`` to every item, returning results in input order."""
    seq: Sequence[_T] = list(items)
    n = worker_count()
    if n == 1 or len(seq) <= 1:
        return [fn(x) for x in seq]
    with ThreadPoolExecutor(max_workers=min(n, len(seq))) as pool:
        return list(pool.map(fn, seq))
