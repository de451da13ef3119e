"""Bit-allocation policies: a policy maps weight-tensor names to bitwidths.

Every tensor that a policy leaves out, biases included, stays at BASELINE_BITS.
Study variant names stand for policies through `policy_for_name`.
"""

from __future__ import annotations

import copy
import math
import re

from .errors import ValidationError
from .nn import WorldModel
from .quant import MAX_BITS, MIN_BITS, fake_quantize_tensor

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

# percent of encoder layers, from the input, that a layerwise variant keeps at baseline ->
# the name that sweep point is reported under (0% and 100% alias uniform/mixed_int4)
RETENTION_VARIANTS = {0: "uniform_int4", 25: "layerwise_int4_25", 50: "layerwise_int4_50",
                      75: "layerwise_int4_75", 100: "mixed_int4"}
ALL_VARIANT_NAMES = CORE_VARIANT_NAMES + tuple(RETENTION_VARIANTS.values())[1:-1]


def _check(wm: WorldModel, policy: dict[str, int]) -> None:
    """ValidationError on a key that is not a weight of wm, or bits outside range."""
    weights = {name for name, _ in wm.named_params() if name.endswith(".weight")}
    for name, bits in policy.items():
        if name not in weights:
            raise ValidationError(f"policy key {name!r} is not a weight tensor of the model")
        if type(bits) is not int or not MIN_BITS <= bits <= MAX_BITS:
            raise ValidationError(f"{name!r}: bitwidth {bits!r} not in {MIN_BITS}..{MAX_BITS}")


def model_size_bytes(wm: WorldModel, policy: dict[str, int]) -> int:
    """Storage size under a bit-allocation policy.

    Quantized linear weights cost ceil(size*b/8) plus 4 bytes of scale per
    output channel; everything else is accounted at BASELINE_BITS.
    """
    _check(wm, policy)
    total = 0
    for name, p in wm.named_params():
        if name in policy:
            total += math.ceil(p.size * policy[name] / 8) + 4 * p.shape[0]
        else:
            total += p.size * BASELINE_BITS // 8
    return total


def apply_policy(wm: WorldModel, policy: dict[str, int]) -> WorldModel:
    """Fake-quantize a deep copy of wm under policy; the input model is untouched."""
    _check(wm, policy)
    out = copy.deepcopy(wm)
    for tensor, p in out.named_params():
        if tensor in policy:
            p[...] = fake_quantize_tensor(p, policy[tensor])
    return out


# variant name pattern -> (encoder bits, predictor and probe bits, retained
# encoder percent) from its matched numbers; None bits keep a part at baseline
NAME_PATTERNS = {
    "fp16": lambda: (None, None, 0),
    "uniform_int([0-9]+)": lambda b: (int(b), int(b), 0),
    "mixed_int([0-9]+)": lambda b: (None, int(b), 0),
    "enc([0-9]+)_pred([0-9]+)": lambda e, p: (int(e), int(p), 0),
    "layerwise_int4_([0-9]+)": lambda pct: (4, 4, int(pct)),
}


def policy_for_name(name: str, wm: WorldModel) -> dict[str, int]:
    """The policy a variant name stands for, over wm's weights.

    Every predictor and probe weight takes the predictor bits.  The first
    ceil(pct * n / 100) of the n encoder layers stay at baseline, and every
    other encoder weight takes the encoder bits.
    """
    for pattern, build in NAME_PATTERNS.items():
        match = re.fullmatch(pattern, name)
        if match:
            enc_bits, pred_bits, pct = build(*match.groups())
            break
    else:
        raise ValidationError(f"unknown variant name {name!r}")
    if pct not in RETENTION_VARIANTS:
        raise ValidationError(f"variant {name!r}: {pct}% is not a point of the retention sweep")
    n_enc = len(wm.dims["encoder"])
    bits = {f"encoder.{i}.weight": enc_bits for i in range(math.ceil(pct * n_enc / 100), n_enc)}
    for stack in ("predictor", "probe"):
        bits |= {f"{stack}.{i}.weight": pred_bits for i in range(len(wm.dims[stack]))}
    policy = {tensor: b for tensor, b in bits.items() if b is not None}
    try:
        _check(wm, policy)
    except ValidationError as e:
        raise ValidationError(f"variant {name!r}: {e}") from e
    return policy
