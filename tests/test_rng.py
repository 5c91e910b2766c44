"""Tests for the keyed random-stream derivation."""

import numpy as np
import pytest

from vibroaudit._rng import stream
from vibroaudit.errors import ParameterError


def test_streams_below_two_to_the_63_keep_their_list_keyed_values():
    for seed, sid in [(0, 0), (7, 2_000_123), (2**32 + 5, 7_999_999), (2**63 - 1, 5)]:
        ref = np.random.Generator(np.random.Philox(key=[seed, sid]))
        assert np.array_equal(stream(seed, sid).random(16), ref.random(16))


@pytest.mark.filterwarnings("error")
def test_seeds_at_and_above_two_to_the_63_stay_distinct():
    a = stream(2**63).random(8)
    b = stream(2**63 + 1).random(8)
    c = stream(2**64 - 1).random(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(b, c)


@pytest.mark.parametrize("seed, sid", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_out_of_range_keys_are_rejected(seed, sid):
    with pytest.raises(ParameterError):
        stream(seed, sid)
