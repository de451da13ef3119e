"""Bit-allocation policies: map study variant names to per-tensor bitwidths.

A policy decision is either an int bitwidth or None, meaning the tensor
stays at baseline precision.  Only linear weights are ever quantized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import ValidationError
from .nn import WorldModel
from .quant import fake_quantize_tensor
from .store import Model, TensorRecord

RETENTION_SWEEP = (0.0, 0.25, 0.5, 0.75, 1.0)

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
    variant_name: str
    model: Model
    size_bytes: int
    policy: AllocationPolicy

    @cached_property
    def wm(self) -> WorldModel:
        """The variant's weights as a WorldModel, built once on first use."""
        return WorldModel.from_model(self.model)


def bits_for_tensor(
    policy: AllocationPolicy, record: TensorRecord, n_encoder_layers: int | None = None
) -> int | None:
    """Bitwidth decision for one tensor; None means keep at baseline."""
    if record.kind != "linear_weight":
        return None
    if policy.kind == "full_precision":
        return None
    if policy.kind == "uniform":
        return policy.bits
    if policy.kind == "mixed":
        return None if record.role == "encoder" else policy.bits
    if policy.kind == "asymmetric":
        return policy.encoder_bits if record.role == "encoder" else policy.predictor_bits
    # layerwise: protect the first ceil(f * n_layers) encoder layers by
    # ascending layer_index; everything else follows the predictor bits
    if record.role != "encoder":
        return policy.predictor_bits
    if n_encoder_layers is None:
        raise ValidationError("layerwise policy needs n_encoder_layers")
    n_retained = math.ceil(policy.retained_fraction * n_encoder_layers)
    return None if record.layer_index < n_retained else 4


def model_size_bytes(model: Model, policy: AllocationPolicy) -> int:
    """Storage size under a bit-allocation policy.

    Quantized linear weights cost ceil(numel*b/8) plus 4 bytes of scale per
    output channel; everything else is accounted at baseline_bits.
    """
    n_enc = model.n_layers("encoder")
    total = 0
    for t in model.tensors:
        b = bits_for_tensor(policy, t, n_encoder_layers=n_enc)
        if b is None:
            total += t.numel * model.baseline_bits // 8
        else:
            total += math.ceil(t.numel * b / 8) + 4 * t.shape[0]
    return total


def apply_policy(model: Model, policy: AllocationPolicy, variant_name: str = "") -> VariantModel:
    """Materialize the fake-quantized variant; the input model is untouched."""
    model.validate()
    n_enc = model.n_layers("encoder")
    out = model.copy()
    for t in out.tensors:
        b = bits_for_tensor(policy, t, n_encoder_layers=n_enc)
        if b is not None:
            t.data = fake_quantize_tensor(t.data, b)
    return VariantModel(
        variant_name=variant_name,
        model=out,
        size_bytes=model_size_bytes(model, policy),
        policy=policy,
    )


def policy_for_name(name: str) -> AllocationPolicy:
    if name == "fp16":
        return AllocationPolicy("full_precision")
    if name.startswith("uniform_int"):
        return AllocationPolicy("uniform", bits=int(name.removeprefix("uniform_int")))
    if name.startswith("mixed_int"):
        return AllocationPolicy("mixed", bits=int(name.removeprefix("mixed_int")))
    if name.startswith("enc") and "_pred" in name:
        enc, pred = name.removeprefix("enc").split("_pred")
        return AllocationPolicy("asymmetric", encoder_bits=int(enc), predictor_bits=int(pred))
    if name.startswith("layerwise_int4_"):
        pct = int(name.removeprefix("layerwise_int4_"))
        return AllocationPolicy("layerwise", retained_fraction=pct / 100, predictor_bits=4)
    raise ValidationError(f"unknown variant name {name!r}")


def enumerate_canonical_variants() -> list[tuple[str, AllocationPolicy]]:
    """All 16 named study policies in canonical order.

    The 0% and 100% retention endpoints of the layerwise sweep alias
    uniform_int4 and mixed_int4 and are reported under those names.
    """
    return [(name, policy_for_name(name)) for name in ALL_VARIANT_NAMES]
