"""Symmetric per-output-channel weight quantization.

For a weight matrix W (out_channels x in_channels) and bitwidth b, each
output row j gets a scale s_j = max|W_j| / (2^(b-1)-1) and integer codes
q_j = clip(round(W_j / s_j), -(2^(b-1)-1), 2^(b-1)-1), with ties rounded
away from zero.  Dequantization is s_j * q_j.  Rows that are entirely zero
get s_j = 0 and zero codes.

Codes are computed as round(W_j * clip / max|W_j|), which is algebraically
W_j / s_j but avoids the extra rounding step through s_j; with float32
weight storage this makes fake quantization exactly idempotent (the row
max of a dequantized row rounds back to the same float32 value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MIN_BITS = 2
MAX_BITS = 8


@dataclass
class QuantizedTensor:
    bitwidth: int
    scales: np.ndarray  # float64, one per output channel
    codes: np.ndarray  # int32, the source matrix's shape


def _round_half_away(x: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _check_input(W: np.ndarray, b: int) -> np.ndarray:
    if not (MIN_BITS <= int(b) <= MAX_BITS):
        raise ValidationError(f"bitwidth {b} outside [{MIN_BITS}, {MAX_BITS}]")
    W = np.asarray(W)
    if W.ndim != 2:
        raise ValidationError(f"expected a 2-D weight matrix, got ndim={W.ndim}")
    if not np.all(np.isfinite(W)):
        raise ValidationError("weight matrix contains non-finite values")
    # weights live in float32 storage; snapping here makes quantize(dequantize(.))
    # an exact fixed point for any input dtype
    return W.astype(np.float32).astype(np.float64)


def quantize_tensor(W: np.ndarray, b: int) -> QuantizedTensor:
    W64 = _check_input(W, b)
    clip = 2 ** (b - 1) - 1
    rowmax = np.max(np.abs(W64), axis=1, keepdims=True)
    safe = np.where(rowmax > 0, rowmax, 1.0)
    codes = np.clip(_round_half_away(W64 * clip / safe), -clip, clip)
    codes = np.where(rowmax > 0, codes, 0.0).astype(np.int32)
    scales = (rowmax[:, 0] / clip).astype(np.float64)
    return QuantizedTensor(int(b), scales, codes)


def dequantize_tensor(Q: QuantizedTensor) -> np.ndarray:
    return (Q.scales[:, None] * Q.codes).astype(np.float32)


def fake_quantize_tensor(W: np.ndarray, b: int) -> np.ndarray:
    """Quantize-then-dequantize; the weights actually used at inference."""
    return dequantize_tensor(quantize_tensor(W, b))
