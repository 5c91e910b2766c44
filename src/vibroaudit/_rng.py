"""Deterministic random-stream derivation.

All stochastic code in this package draws from numpy Generators built on
the Philox counter-based bit generator.  Philox is keyed, not seeded by
state-jumping, so a (master_seed, stream_id) pair always yields the same
stream regardless of how many other streams were created before it or on
which thread it is consumed.  That property is what makes results
byte-reproducible under any execution order.

Stream ids are non-negative integers.  Composite consumers (one stream
per session, per repeat, per fold, ...) should derive ids through
:func:`substream_id` so that distinct (kind, index) pairs never collide.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

# Disjoint id spaces for the major stochastic consumers.  Offsets are
# spaced far wider than any realistic index so derived ids cannot collide.
_KIND_OFFSETS = {
    "cohort": 0,
    "session": 1_000_000,
    "control": 2_000_000,
    "mixing": 3_000_000,
    "permutation": 4_000_000,
    "misc": 7_000_000,
}
# indices per kind: one offset apart, so kinds never share an id
STREAM_INDICES = 1_000_000


def check_seed(master_seed: int) -> None:
    """A master seed is one unsigned 64-bit half of a Philox key."""
    if not 0 <= master_seed < 2**64:
        raise ParameterError(f"master_seed must be in [0, 2**64), got {master_seed}")


def stream(master_seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the Generator for (master_seed, stream_id).

    The pair fully determines the stream: equal pairs give bitwise-equal
    draws, distinct pairs give statistically independent streams.
    """
    check_seed(master_seed)
    if not 0 <= stream_id < 2**64:
        raise ParameterError(f"stream_id must be in [0, 2**64), got {stream_id}")
    # an explicit uint64 key: a plain list would go through int64 and
    # fold seeds of 2**63 and above together
    key = np.array([master_seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def substream_id(kind: str, index: int = 0) -> int:
    """Map a (kind, index) pair to a collision-free stream id."""
    if kind not in _KIND_OFFSETS:
        raise ParameterError(
            f"unknown stream kind {kind!r}; expected one of {sorted(_KIND_OFFSETS)}"
        )
    if index < 0:
        raise ParameterError(f"stream index must be >= 0, got {index}")
    if index >= STREAM_INDICES:
        raise ParameterError(f"stream index too large: {index}")
    return _KIND_OFFSETS[kind] + index
