import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantplan import (
    ALL_VARIANT_NAMES,
    CORE_VARIANT_NAMES,
    ValidationError,
    WorldModel,
    apply_policy,
    fake_quantize_tensor,
    model_size_bytes,
    persist_model,
    policy_for_name,
)
from quantplan.quant import MAX_BITS, MIN_BITS

# the weight tensors of build_model, written out by hand
WEIGHT_NAMES = [
    f"{stack}.{i}.weight" for stack, n in (("encoder", 4), ("predictor", 2), ("probe", 1))
    for i in range(n)
]


def build_model(rng):
    wm = WorldModel({"encoder": [(6, 8)] * 4, "predictor": [(6, 8)] * 2, "probe": [(2, 6)]})
    wm.theta[...] = rng.uniform(-1, 1, wm.theta.size).astype(np.float32)
    return wm


def test_bits_for_tensor_rules(rng):
    m = build_model(rng)
    enc = lambda *bits: {f"encoder.{i}.weight": b for i, b in enumerate(bits) if b is not None}
    rest = lambda b: {"predictor.0.weight": b, "predictor.1.weight": b, "probe.0.weight": b}
    assert policy_for_name("fp16", m) == {}
    assert policy_for_name("uniform_int3", m) == {**enc(3, 3, 3, 3), **rest(3)}
    assert policy_for_name("mixed_int4", m) == rest(4)
    assert policy_for_name("enc6_pred4", m) == {**enc(6, 6, 6, 6), **rest(4)}

    # retained encoder layers stay at baseline, the others take the encoder bits
    assert policy_for_name("layerwise_int4_50", m) == {**enc(None, None, 4, 4), **rest(4)}
    assert policy_for_name("layerwise_int4_0", m) == policy_for_name("uniform_int4", m)
    assert policy_for_name("layerwise_int4_100", m) == policy_for_name("mixed_int4", m)
    # ceil, not floor: a quarter of 3 encoder layers retains one
    m3 = WorldModel({"encoder": [(6, 8)] * 3, "predictor": [(6, 8)], "probe": [(2, 6)]})
    assert policy_for_name("layerwise_int4_25", m3) == {
        "encoder.1.weight": 4, "encoder.2.weight": 4, "predictor.0.weight": 4, "probe.0.weight": 4
    }


def test_policy_validation(rng):
    m = build_model(rng)
    for name in ("uniform_int9", "uniform_int99", "uniform_intx", "mixed_int", "enc_pred4",
                 "enc1_pred4", "enc8_pred4_x", "layerwise_int4_", "layerwise_int4_33"):
        with pytest.raises(ValidationError, match=re.escape(repr(name))):
            policy_for_name(name, m)
    # a map key must be a weight of the model, and its bits lie in [MIN_BITS, MAX_BITS]
    for key, bits in (("encoder.0.bias", 4), ("encoder.9.weight", 4),
                      ("probe.0.weight", 1), ("probe.0.weight", 9), ("probe.0.weight", 4.5)):
        policy = {"encoder.1.weight": 4, key: bits}
        with pytest.raises(ValidationError, match=re.escape(repr(key))):
            model_size_bytes(m, policy)
        with pytest.raises(ValidationError, match=re.escape(repr(key))):
            apply_policy(m, policy)


def test_full_precision_identity(rng):
    m = build_model(rng)
    policy = policy_for_name("fp16", m)
    assert apply_policy(m, policy).theta.tobytes() == m.theta.tobytes()
    assert model_size_bytes(m, policy) == 2 * m.theta.size


def test_input_model_unchanged(rng):
    m = build_model(rng)
    before = m.theta.copy()
    v = apply_policy(m, policy_for_name("uniform_int3", m))
    assert m.theta.tobytes() == before.tobytes()
    assert not np.shares_memory(v.theta, m.theta)


def test_biases_never_quantized(rng):
    m = build_model(rng)
    for name in ALL_VARIANT_NAMES:
        v = apply_policy(m, policy_for_name(name, m))
        for (tensor, a), (_, b) in zip(m.named_params(), v.named_params()):
            if tensor.endswith(".bias"):
                assert a.tobytes() == b.tobytes()


def test_mixed_keeps_encoder_bit_identical(rng):
    m = build_model(rng)
    v = apply_policy(m, policy_for_name("mixed_int4", m))
    for (tensor, a), (_, b) in zip(m.named_params(), v.named_params()):
        if tensor.startswith("encoder."):
            assert a.tobytes() == b.tobytes()
        elif tensor.endswith(".weight"):
            assert a.tobytes() != b.tobytes()


def test_uniform_fidelity_ordering(rng):
    m = build_model(rng)
    v3 = apply_policy(m, policy_for_name("uniform_int3", m))
    v8 = apply_policy(m, policy_for_name("uniform_int8", m))
    for (tensor, a), (_, b3), (_, b8) in zip(
        m.named_params(), v3.named_params(), v8.named_params()
    ):
        if not tensor.endswith(".weight"):
            continue
        e3 = np.max(np.abs(a - b3), axis=1)
        e8 = np.max(np.abs(a - b8), axis=1)
        assert np.all(e8 <= e3)


def test_layerwise_endpoints_alias(rng):
    m = build_model(rng)
    lw0 = apply_policy(m, policy_for_name("layerwise_int4_0", m))
    u4 = apply_policy(m, policy_for_name("uniform_int4", m))
    lw1 = apply_policy(m, policy_for_name("layerwise_int4_100", m))
    m4 = apply_policy(m, policy_for_name("mixed_int4", m))
    assert lw0.theta.tobytes() == u4.theta.tobytes()
    assert lw1.theta.tobytes() == m4.theta.tobytes()


def test_enumerate_canonical_variants(rng):
    names = list(ALL_VARIANT_NAMES)
    assert len(names) == 16
    assert len(set(names)) == 16
    assert list(CORE_VARIANT_NAMES) == names[:13]
    assert len(CORE_VARIANT_NAMES) == 13  # 13 x (3 + 2) seeds x 10 episodes = 650
    assert {"layerwise_int4_25", "layerwise_int4_50", "layerwise_int4_75"} <= set(names)
    # every name is a distinct policy
    m = build_model(rng)
    assert len({frozenset(policy_for_name(name, m).items()) for name in names}) == 16


def test_size_orderings(rng):
    m = build_model(rng)
    size = lambda n: model_size_bytes(m, policy_for_name(n, m))
    assert size("uniform_int3") < size("uniform_int4") < size("uniform_int6")
    assert size("uniform_int6") < size("fp16")
    for b in (3, 4, 6, 8):
        assert size(f"uniform_int{b}") < size(f"mixed_int{b}")
    assert size("uniform_int4") < size("enc6_pred4") < size("mixed_int4")
    assert size("uniform_int4") < size("enc8_pred4") < size("mixed_int4")


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(WEIGHT_NAMES), st.integers(MIN_BITS, MAX_BITS)))
def test_one_rule_matches_tensor_oracle(policy):
    """apply_policy and model_size_bytes against the map applied tensor by tensor."""
    m = build_model(np.random.default_rng(1234))
    expected, size = [], 0
    for stack in ("encoder", "predictor", "probe"):
        for i, (W, b) in enumerate(getattr(m, stack).layers):
            bits = policy.get(f"{stack}.{i}.weight")
            if bits is None:
                expected.append(W)
                size += 2 * W.size
            else:
                expected.append(fake_quantize_tensor(W, bits))
                size += math.ceil(W.size * bits / 8) + 4 * W.shape[0]
            expected.append(b)  # biases are never quantized
            size += 2 * b.size
    v = apply_policy(m, policy)
    params = [p for _, p in v.named_params()]
    assert sum(p.size for p in params) == v.theta.size
    for p, t in zip(params, expected, strict=True):  # logical (out, in) bytes, tensor by tensor
        assert p.dtype == t.dtype and p.tobytes() == t.tobytes()
    assert model_size_bytes(m, policy) == size


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

        v = apply_policy(trained_model, policy_for_name(name, trained_model))
        persist_model(v.to_model(), tmp_path / "variant" / name)
        for file in ("weights.bin", "manifest.json"):
            expected = (tmp_path / "oracle" / name / file).read_bytes()
            assert (tmp_path / "variant" / name / file).read_bytes() == expected, (name, file)
        assert not np.shares_memory(v.theta, trained_model.theta)
        assert v.metadata is not trained_model.metadata
    assert trained_model.theta.tobytes() == theta.tobytes()
