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
from .quant import fake_quantize_tensor

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

LAYERWISE_VARIANT_NAMES = ("layerwise_int4_25", "layerwise_int4_50", "layerwise_int4_75")

ALL_VARIANT_NAMES = CORE_VARIANT_NAMES + LAYERWISE_VARIANT_NAMES


@dataclass(frozen=True)
class AllocationPolicy:
    """One of: full_precision, uniform, mixed, asymmetric, layerwise.

    uniform/mixed use `bits`; asymmetric uses encoder_bits/predictor_bits;
    layerwise uses retained_fraction with predictor_bits (default 4).
    """

    kind: str
    bits: int | None = None
    encoder_bits: int | None = None
    predictor_bits: int | None = None
    retained_fraction: float | None = None

    def __post_init__(self):
        if self.kind not in ("full_precision", "uniform", "mixed", "asymmetric", "layerwise"):
            raise ValidationError(f"unknown policy kind {self.kind!r}")
        for b in (self.bits, self.encoder_bits, self.predictor_bits):
            if b is not None and not (2 <= b <= 8):
                raise ValidationError(f"bitwidth {b} outside [2, 8]")
        if self.kind in ("uniform", "mixed") and self.bits is None:
            raise ValidationError(f"{self.kind} policy requires bits")
        if self.kind == "asymmetric" and (
            self.encoder_bits is None or self.predictor_bits is None
        ):
            raise ValidationError("asymmetric policy requires encoder_bits and predictor_bits")
        if self.kind == "layerwise":
            if self.retained_fraction not in RETENTION_SWEEP:
                raise ValidationError(
                    f"retained_fraction must be one of {RETENTION_SWEEP}"
                )
            if self.predictor_bits is None:
                object.__setattr__(self, "predictor_bits", 4)


@dataclass
class VariantModel:
    """A fake-quantized world model under its variant name, with its storage size."""

    variant_name: str
    wm: WorldModel
    size_bytes: int


def bits_for_tensor(
    policy: AllocationPolicy, role: str, layer_index: int, kind: str, n_encoder_layers: int
) -> int | None:
    """Bitwidth decision for one tensor; None means keep at baseline."""
    if kind != "linear_weight":
        return None
    if policy.kind == "full_precision":
        return None
    if policy.kind == "uniform":
        return policy.bits
    if policy.kind == "mixed":
        return None if role == "encoder" else policy.bits
    if policy.kind == "asymmetric":
        return policy.encoder_bits if role == "encoder" else policy.predictor_bits
    # layerwise: protect the first ceil(f * n_layers) encoder layers by
    # ascending layer_index; everything else follows the predictor bits
    if role != "encoder":
        return policy.predictor_bits
    n_retained = math.ceil(policy.retained_fraction * n_encoder_layers)
    return None if layer_index < n_retained else policy.predictor_bits


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
    "fp16": lambda: AllocationPolicy("full_precision"),
    "uniform_int([0-9]+)": lambda b: AllocationPolicy("uniform", bits=int(b)),
    "mixed_int([0-9]+)": lambda b: AllocationPolicy("mixed", bits=int(b)),
    "enc([0-9]+)_pred([0-9]+)": lambda e, p: AllocationPolicy(
        "asymmetric", encoder_bits=int(e), predictor_bits=int(p)
    ),
    "layerwise_int4_([0-9]+)": lambda pct: AllocationPolicy(
        "layerwise", retained_fraction=int(pct) / 100, predictor_bits=4
    ),
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


def enumerate_canonical_variants() -> list[tuple[str, AllocationPolicy]]:
    """All 16 named study policies in canonical order.

    The 0% and 100% retention endpoints of the layerwise sweep alias
    uniform_int4 and mixed_int4 and are reported under those names.
    """
    return [(name, policy_for_name(name)) for name in ALL_VARIANT_NAMES]
