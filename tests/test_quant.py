import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quantplan import ValidationError, dequantize_tensor, fake_quantize_tensor, quantize_tensor

weights = arrays(
    np.float32,
    st.tuples(st.integers(1, 6), st.integers(1, 8)),
    elements=st.floats(-100, 100, width=32),
)


def test_worked_example_exact():
    q = quantize_tensor(np.array([[1.0, -2.0, 0.5]]), 4)
    assert q.scales[0] == 2 / 7
    assert q.codes.tolist() == [[4, -7, 2]]
    assert 2 ** (4 - 1) - 1 == 7  # clip bound at b=4


def test_dequantize_worked_example():
    q = quantize_tensor(np.array([[1.0, -2.0, 0.5]]), 4)
    w = dequantize_tensor(q)
    expected = np.float64(2 / 7) * np.array([[4, -7, 2]])
    np.testing.assert_array_equal(w, expected.astype(np.float32))


def test_zero_row():
    q = quantize_tensor(np.array([[0.0, 0.0], [1.0, 2.0]]), 5)
    assert q.scales[0] == 0.0
    assert np.all(q.codes[0] == 0)
    assert np.all(dequantize_tensor(q)[0] == 0.0)


def test_validation_errors():
    with pytest.raises(ValidationError):
        quantize_tensor(np.ones((2, 2)), 9)
    with pytest.raises(ValidationError):
        quantize_tensor(np.ones((2, 2)), 1)
    with pytest.raises(ValidationError):
        quantize_tensor(np.array([[np.nan, 1.0]]), 4)
    with pytest.raises(ValidationError):
        quantize_tensor(np.ones(4), 4)


@settings(max_examples=200, deadline=None)
@given(weights, st.integers(2, 8))
def test_reconstruction_error_bound(W, b):
    q = quantize_tensor(W, b)
    clip = 2 ** (b - 1) - 1
    assert q.scales.shape == (W.shape[0],)
    assert q.codes.shape == W.shape
    assert np.all(np.abs(q.codes) <= clip)
    assert np.all(q.codes[q.scales == 0.0] == 0)
    # the codes are within half a step of W; the float32 output then rounds s * q once
    # more, which at a rounding tie alone can exceed s / 2 (W = [[1, 0.5]], b = 3)
    exact = q.scales[:, None] * q.codes
    assert np.all(np.abs(W.astype(np.float64) - exact) <= q.scales[:, None] / 2 + 1e-9)
    assert dequantize_tensor(q).tobytes() == exact.astype(np.float32).tobytes()


@settings(max_examples=200, deadline=None)
@given(weights, st.integers(2, 8))
def test_idempotent_bit_exact(W, b):
    w1 = fake_quantize_tensor(W, b)
    w2 = fake_quantize_tensor(w1, b)
    assert w1.tobytes() == w2.tobytes()


@settings(max_examples=100, deadline=None)
@given(weights, st.integers(2, 8))
def test_dequant_quant_fixed_point(W, b):
    w1 = fake_quantize_tensor(W, b)
    w2 = fake_quantize_tensor(fake_quantize_tensor(w1, b), b)
    assert np.array_equal(w1, w2)


def test_scale_equivariance(rng):
    W = rng.uniform(-3, 3, (5, 7))
    base = quantize_tensor(W, 4)
    for c in (0.5, 2.0, 128.0):
        scaled = quantize_tensor((c * W.astype(np.float32).astype(np.float64)), 4)
        np.testing.assert_array_equal(scaled.codes, base.codes)
        np.testing.assert_allclose(scaled.scales, c * base.scales, rtol=1e-6)


def test_monotone_fidelity(rng):
    W = rng.uniform(-1, 1, (8, 16)).astype(np.float32)
    errs = []
    for b in range(2, 9):
        errs.append(np.max(np.abs(W - fake_quantize_tensor(W, b))))
    assert all(e1 >= e2 for e1, e2 in zip(errs, errs[1:]))


def test_high_bitwidth_small_relative_error(rng):
    W = rng.uniform(-1, 1, (16, 32)).astype(np.float32)
    w8 = fake_quantize_tensor(W, 8)
    rowmax = np.abs(W).max(axis=1, keepdims=True)
    rel = np.abs(W - w8) / rowmax
    assert np.max(rel) <= 0.5 / (2**7 - 1) + 1e-9
    q = quantize_tensor(W, 8)
    assert np.all(np.abs(W.astype(np.float64) - w8) <= q.scales[:, None] / 2 + 1e-12)


def test_grid_fixed_point():
    s = np.float64(0.125)
    W = (s * np.array([[1, -3, 7], [0, 2, -7]])).astype(np.float32)
    np.testing.assert_array_equal(fake_quantize_tensor(W, 4), W)


def test_half_away_from_zero_ties():
    # 1.5/... picks the larger magnitude on exact .5 ratios
    q = quantize_tensor(np.array([[3.0, 1.5, -1.5]]), 2)  # clip=1, s=3
    assert q.codes.tolist() == [[1, 1, -1]]
    q = quantize_tensor(np.array([[7.0, 3.5, -3.5]]), 4)  # clip=7, ratios 3.5
    assert q.codes.tolist() == [[7, 4, -4]]
