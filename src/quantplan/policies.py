"""Bit-allocation policies: map study variant names to per-tensor bitwidths.

A policy decision is either an int bitwidth or None, meaning the tensor
stays at baseline precision.  Only linear weights are ever quantized.
Policies act on a `WorldModel` in memory: `apply_policy` fake-quantizes a
deep copy through its `named_params()` views.
"""

from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass

from .errors import ValidationError
from .nn import WorldModel
from .quant import MAX_BITS, MIN_BITS, fake_quantize_tensor

RETENTION_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)
# storage bits per value of every tensor a policy leaves unquantized
BASELINE_BITS = 16

CORE_VARIANT_NAMES = (
    "fp16",
    "uniform_int8",
    "uniform_int6",
    "uniform_int4",
    "uniform_int3",
    "mixed_int8",
    "mixed_int6",
    "mixed_int4",
    "mixed_int3",
    "enc8_pred4",
    "enc6_pred4",
    "enc4_pred8",
    "enc4_pred6",
)

# the 0% and 100% points of the layerwise sweep alias uniform_int4 and
# mixed_int4 and are reported under those names
ALL_VARIANT_NAMES = CORE_VARIANT_NAMES + tuple(f"layerwise_int4_{p}" for p in (25, 50, 75))


@dataclass(frozen=True)
class AllocationPolicy:
    """Bits per network part; None keeps that part at baseline precision.

    Every predictor and probe weight takes `predictor_bits`.  The first
    ceil(retained_fraction * n) of the n encoder layers stay at baseline, and
    every other encoder weight takes `encoder_bits`.
    """

    encoder_bits: int | None
    predictor_bits: int | None
    retained_fraction: float = 0.0

    def __post_init__(self):
        for b in (self.encoder_bits, self.predictor_bits):
            if b is not None and not (MIN_BITS <= b <= MAX_BITS):
                raise ValidationError(f"bitwidth {b} outside [{MIN_BITS}, {MAX_BITS}]")
        if self.retained_fraction not in RETENTION_SWEEP:
            raise ValidationError(f"retained_fraction must be one of {RETENTION_SWEEP}")


@dataclass
class VariantModel:
    """A fake-quantized world model under its variant name, with its storage size."""

    variant_name: str
    wm: WorldModel
    size_bytes: int


def bits_for_tensor(
    policy: AllocationPolicy, role: str, layer_index: int, kind: str, n_encoder_layers: int
) -> int | None:
    """Bitwidth decision for one tensor; None means keep at baseline.

    `role` is the tensor's stack name: "encoder", "predictor" or "probe"."""
    if kind != "linear_weight":
        return None
    if role != "encoder":
        return policy.predictor_bits
    if layer_index < math.ceil(policy.retained_fraction * n_encoder_layers):
        return None
    return policy.encoder_bits


def _decisions(wm: WorldModel, policy: AllocationPolicy):
    """(bitwidth or None, parameter view) per tensor of wm, in theta order."""
    n_enc = len(wm.dims["encoder"])
    for _, role, i, kind, p in wm.named_params():
        yield bits_for_tensor(policy, role, i, kind, n_enc), p


def model_size_bytes(wm: WorldModel, policy: AllocationPolicy) -> int:
    """Storage size under a bit-allocation policy.

    Quantized linear weights cost ceil(size*b/8) plus 4 bytes of scale per
    output channel; everything else is accounted at BASELINE_BITS.
    """
    total = 0
    for b, p in _decisions(wm, policy):
        if b is None:
            total += p.size * BASELINE_BITS // 8
        else:
            total += math.ceil(p.size * b / 8) + 4 * p.shape[0]
    return total


def apply_policy(wm: WorldModel, policy: AllocationPolicy, name: str) -> VariantModel:
    """Fake-quantize a deep copy of wm under policy; the input model is untouched."""
    out = copy.deepcopy(wm)
    for b, p in _decisions(out, policy):
        if b is not None:
            p[...] = fake_quantize_tensor(p, b)
    return VariantModel(name, out, model_size_bytes(wm, policy))


# variant name pattern -> the policy built from its matched numbers
NAME_PATTERNS = {
    "fp16": lambda: AllocationPolicy(None, None),
    "uniform_int([0-9]+)": lambda b: AllocationPolicy(int(b), int(b)),
    "mixed_int([0-9]+)": lambda b: AllocationPolicy(None, int(b)),
    "enc([0-9]+)_pred([0-9]+)": lambda e, p: AllocationPolicy(int(e), int(p)),
    "layerwise_int4_([0-9]+)": lambda pct: AllocationPolicy(4, 4, int(pct) / 100),
}


def policy_for_name(name: str) -> AllocationPolicy:
    for pattern, build in NAME_PATTERNS.items():
        match = re.fullmatch(pattern, name)
        if match:
            try:
                return build(*match.groups())
            except ValidationError as e:
                raise ValidationError(f"variant {name!r}: {e}") from e
    raise ValidationError(f"unknown variant name {name!r}")
