import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantplan import (
    ALL_VARIANT_NAMES,
    CORE_VARIANT_NAMES,
    AllocationPolicy,
    ValidationError,
    WorldModel,
    apply_policy,
    bits_for_tensor,
    fake_quantize_tensor,
    model_size_bytes,
    persist_model,
    policy_for_name,
)
from quantplan.policies import RETENTION_SWEEP
from quantplan.quant import MAX_BITS, MIN_BITS


def build_model(rng):
    wm = WorldModel({"encoder": [(6, 8)] * 4, "predictor": [(6, 8)] * 2, "probe": [(2, 6)]})
    wm.theta[...] = rng.uniform(-1, 1, wm.theta.size).astype(np.float32)
    return wm


def params(wm):
    """(role, kind, view) per parameter tensor of wm."""
    return [(role, kind, p) for _, role, _, kind, p in wm.named_params()]


def test_bits_for_tensor_rules():
    mixed4 = AllocationPolicy(None, 4)
    assert bits_for_tensor(mixed4, "encoder", 0, "linear_weight", 4) is None
    assert bits_for_tensor(mixed4, "predictor", 0, "linear_weight", 4) == 4
    assert bits_for_tensor(mixed4, "probe", 0, "linear_weight", 4) == 4
    assert bits_for_tensor(mixed4, "predictor", 0, "linear_bias", 4) is None

    asym = AllocationPolicy(6, 4)
    assert bits_for_tensor(asym, "encoder", 0, "linear_weight", 4) == 6
    assert bits_for_tensor(asym, "predictor", 0, "linear_weight", 4) == 4
    assert bits_for_tensor(asym, "probe", 0, "linear_weight", 4) == 4

    # retained encoder layers stay at baseline, the others take encoder_bits
    lw8 = AllocationPolicy(8, 8, 0.5)
    decisions = [bits_for_tensor(lw8, "encoder", i, "linear_weight", 4) for i in range(4)]
    assert decisions == [None, None, 8, 8]
    assert bits_for_tensor(lw8, "predictor", 0, "linear_weight", 4) == 8
    # ceil, not floor: a quarter of 3 encoder layers retains one
    lw4 = AllocationPolicy(4, 4, 0.25)
    decisions = [bits_for_tensor(lw4, "encoder", i, "linear_weight", 3) for i in range(3)]
    assert decisions == [None, 4, 4]

    full = AllocationPolicy(None, None)
    assert bits_for_tensor(full, "encoder", 0, "linear_weight", 4) is None
    assert bits_for_tensor(AllocationPolicy(3, 3), "probe", 0, "linear_weight", 4) == 3


def test_layerwise_retention_order():
    lw = AllocationPolicy(4, 4, 0.5)
    decisions = [bits_for_tensor(lw, "encoder", i, "linear_weight", 4) for i in range(4)]
    assert decisions == [None, None, 4, 4]
    assert bits_for_tensor(lw, "predictor", 0, "linear_weight", 4) == 4


def test_policy_validation():
    with pytest.raises(ValidationError):
        AllocationPolicy(1, 4)
    with pytest.raises(ValidationError):
        AllocationPolicy(4, 9)
    with pytest.raises(ValidationError):
        AllocationPolicy(4, 4, 0.3)
    for name in ("uniform_int9", "uniform_int99", "uniform_intx", "mixed_int", "enc_pred4",
                 "enc8_pred4_x", "layerwise_int4_", "layerwise_int4_33"):
        with pytest.raises(ValidationError, match=re.escape(repr(name))):
            policy_for_name(name)


def test_full_precision_identity(rng):
    m = build_model(rng)
    policy = AllocationPolicy(None, None)
    v = apply_policy(m, policy, "fp16")
    assert v.wm.theta.tobytes() == m.theta.tobytes()
    assert v.size_bytes == model_size_bytes(m, policy)


def test_input_model_unchanged(rng):
    m = build_model(rng)
    before = m.theta.copy()
    v = apply_policy(m, AllocationPolicy(3, 3), "uniform_int3")
    assert m.theta.tobytes() == before.tobytes()
    assert not np.shares_memory(v.wm.theta, m.theta)


def test_biases_never_quantized(rng):
    m = build_model(rng)
    for name in ALL_VARIANT_NAMES:
        v = apply_policy(m, policy_for_name(name), name)
        for (_, kind, a), (_, _, b) in zip(params(m), params(v.wm)):
            if kind != "linear_weight":
                assert a.tobytes() == b.tobytes()


def test_mixed_keeps_encoder_bit_identical(rng):
    m = build_model(rng)
    v = apply_policy(m, policy_for_name("mixed_int4"), "mixed_int4")
    for (role, kind, a), (_, _, b) in zip(params(m), params(v.wm)):
        if role == "encoder":
            assert a.tobytes() == b.tobytes()
        elif kind == "linear_weight":
            assert a.tobytes() != b.tobytes()


def test_uniform_fidelity_ordering(rng):
    m = build_model(rng)
    v3 = apply_policy(m, policy_for_name("uniform_int3"), "u3")
    v8 = apply_policy(m, policy_for_name("uniform_int8"), "u8")
    for (_, kind, a), (_, _, b3), (_, _, b8) in zip(params(m), params(v3.wm), params(v8.wm)):
        if kind != "linear_weight":
            continue
        e3 = np.max(np.abs(a - b3), axis=1)
        e8 = np.max(np.abs(a - b8), axis=1)
        assert np.all(e8 <= e3)


def test_layerwise_endpoints_alias(rng):
    m = build_model(rng)
    lw0 = apply_policy(m, AllocationPolicy(4, 4, 0.0), "lw0")
    u4 = apply_policy(m, policy_for_name("uniform_int4"), "u4")
    lw1 = apply_policy(m, AllocationPolicy(4, 4, 1.0), "lw1")
    m4 = apply_policy(m, policy_for_name("mixed_int4"), "m4")
    assert lw0.wm.theta.tobytes() == u4.wm.theta.tobytes()
    assert lw1.wm.theta.tobytes() == m4.wm.theta.tobytes()


def test_enumerate_canonical_variants():
    names = list(ALL_VARIANT_NAMES)
    assert len(names) == 16
    assert len(set(names)) == 16
    assert list(CORE_VARIANT_NAMES) == names[:13]
    assert len(CORE_VARIANT_NAMES) == 13  # 13 x (3 + 2) seeds x 10 episodes = 650
    assert {"layerwise_int4_25", "layerwise_int4_50", "layerwise_int4_75"} <= set(names)
    # every name is a distinct policy
    assert len({policy_for_name(name) for name in names}) == 16


def test_size_orderings(rng):
    m = build_model(rng)
    size = lambda n: model_size_bytes(m, policy_for_name(n))
    assert size("uniform_int3") < size("uniform_int4") < size("uniform_int6")
    assert size("uniform_int6") < size("fp16")
    for b in (3, 4, 6, 8):
        assert size(f"uniform_int{b}") < size(f"mixed_int{b}")
    assert size("uniform_int4") < size("enc6_pred4") < size("mixed_int4")
    assert size("uniform_int4") < size("enc8_pred4") < size("mixed_int4")


bitwidths = st.one_of(st.none(), st.integers(MIN_BITS, MAX_BITS))


@settings(max_examples=100, deadline=None)
@given(bitwidths, bitwidths, st.sampled_from(RETENTION_SWEEP))
def test_one_rule_matches_tensor_oracle(encoder_bits, predictor_bits, retained_fraction):
    """apply_policy and model_size_bytes against the rule applied tensor by tensor."""
    m = build_model(np.random.default_rng(1234))
    n_retained = {0.0: 0, 0.25: 1, 0.5: 2, 0.75: 3, 1.0: 4}[retained_fraction]
    expected, size = [], 0
    for stack in ("encoder", "predictor", "probe"):
        for i, (W, b) in enumerate(getattr(m, stack).layers):
            if stack != "encoder":
                bits = predictor_bits
            else:
                bits = None if i < n_retained else encoder_bits
            if bits is None:
                expected.append(W)
                size += 2 * W.size
            else:
                expected.append(fake_quantize_tensor(W, bits))
                size += math.ceil(W.size * bits / 8) + 4 * W.shape[0]
            expected.append(b)  # biases are never quantized
            size += 2 * b.size
    policy = AllocationPolicy(encoder_bits, predictor_bits, retained_fraction)
    v = apply_policy(m, policy, "v")
    assert v.wm.theta.tobytes() == np.concatenate([t.ravel() for t in expected]).tobytes()
    assert v.size_bytes == model_size_bytes(m, policy) == size


# Bits per variant, written out by hand: (encoder layers 0-3, predictor and probe).
ORACLE_BITS = {
    "fp16": ((None,) * 4, None),
    **{f"uniform_int{b}": ((b,) * 4, b) for b in (8, 6, 4, 3)},
    **{f"mixed_int{b}": ((None,) * 4, b) for b in (8, 6, 4, 3)},
    "enc8_pred4": ((8,) * 4, 4),
    "enc6_pred4": ((6,) * 4, 4),
    "enc4_pred8": ((4,) * 4, 8),
    "enc4_pred6": ((4,) * 4, 6),
    "layerwise_int4_25": ((None, 4, 4, 4), 4),
    "layerwise_int4_50": ((None, None, 4, 4), 4),
    "layerwise_int4_75": ((None, None, None, 4), 4),
}


def test_apply_policy_matches_checkpoint_oracle(trained_model, tmp_path):
    """Each variant's checkpoint equals one quantized tensor by tensor on the manifest form."""
    assert set(ORACLE_BITS) == set(ALL_VARIANT_NAMES)
    theta = trained_model.theta.copy()
    for name in ALL_VARIANT_NAMES:
        enc_bits, other_bits = ORACLE_BITS[name]
        oracle = trained_model.to_model()
        for t in oracle.tensors:
            stack, layer, kind = t.name.split(".")
            if kind == "weight":
                b = enc_bits[int(layer)] if stack == "encoder" else other_bits
                if b is not None:
                    t.data = fake_quantize_tensor(t.data, b)
        persist_model(oracle, tmp_path / "oracle" / name)

        v = apply_policy(trained_model, policy_for_name(name), name)
        persist_model(v.wm.to_model(), tmp_path / "variant" / name)
        for file in ("weights.bin", "manifest.json"):
            expected = (tmp_path / "oracle" / name / file).read_bytes()
            assert (tmp_path / "variant" / name / file).read_bytes() == expected, (name, file)
        assert not np.shares_memory(v.wm.theta, trained_model.theta)
        assert v.wm.metadata is not trained_model.metadata
    assert trained_model.theta.tobytes() == theta.tobytes()
