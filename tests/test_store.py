import json

import numpy as np
import pytest

from quantplan import (
    AllocationPolicy,
    Model,
    TensorRecord,
    ValidationError,
    load_model,
    model_size_bytes,
    persist_model,
)


def small_model():
    w = np.array([[1.0, -2.0, 0.5], [0.25, -0.0, 4.0], [0.0, 0.0, 0.0], [1e-30, 3.0, -7.5]])
    b = np.array([0.5, -0.5, 0.0, 1.0])
    return Model(
        tensors=[
            TensorRecord("enc.0.weight", "encoder", 0, "linear_weight", (4, 3), w),
            TensorRecord("enc.0.bias", "encoder", 0, "linear_bias", (4,), b),
        ]
    )


def test_round_trip_identity(tmp_path):
    m = small_model()
    persist_model(m, tmp_path)
    loaded = load_model(tmp_path)
    assert loaded.baseline_bits == m.baseline_bits
    for a, b in zip(m.tensors, loaded.tensors):
        assert a.name == b.name and a.role == b.role and a.kind == b.kind
        assert a.layer_index == b.layer_index and a.shape == b.shape
        assert a.data.tobytes() == b.data.tobytes()


def test_round_trip_negative_zero(tmp_path):
    m = small_model()
    assert np.signbit(m.tensors[0].data[1, 1])  # -0.0 survived construction
    persist_model(m, tmp_path)
    out = load_model(tmp_path).tensors[0].data
    assert np.signbit(out[1, 1])


def test_double_round_trip_bytes_identical(tmp_path):
    m = small_model()
    persist_model(m, tmp_path / "a")
    persist_model(load_model(tmp_path / "a"), tmp_path / "b")
    assert (tmp_path / "a" / "weights.bin").read_bytes() == (
        tmp_path / "b" / "weights.bin"
    ).read_bytes()
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_flipped_blob_byte_detected(tmp_path):
    persist_model(small_model(), tmp_path)
    blob = bytearray((tmp_path / "weights.bin").read_bytes())
    blob[5] ^= 0xFF
    (tmp_path / "weights.bin").write_bytes(bytes(blob))
    with pytest.raises(ValidationError, match="checksum"):
        load_model(tmp_path)


def test_truncated_blob_detected(tmp_path):
    persist_model(small_model(), tmp_path)
    blob = (tmp_path / "weights.bin").read_bytes()
    (tmp_path / "weights.bin").write_bytes(blob[:-4])
    with pytest.raises(ValidationError):
        load_model(tmp_path)


def test_overlapping_offsets_rejected(tmp_path):
    persist_model(small_model(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"][1]["offset"] = 0  # overlaps tensor 0
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="overlap|checksum"):
        load_model(tmp_path)


def test_unknown_format_version_rejected(tmp_path):
    persist_model(small_model(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 2
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="format_version"):
        load_model(tmp_path)


def test_unknown_role_rejected(tmp_path):
    persist_model(small_model(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["tensors"][0]["role"] = "decoder"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="role"):
        load_model(tmp_path)


def test_missing_files(tmp_path):
    with pytest.raises(ValidationError, match="manifest"):
        load_model(tmp_path)
    persist_model(small_model(), tmp_path)
    (tmp_path / "weights.bin").unlink()
    with pytest.raises(ValidationError, match="blob"):
        load_model(tmp_path)


def test_invalid_model_writes_nothing(tmp_path):
    m = small_model()
    m.tensors.append(m.tensors[0])  # duplicate name
    out = tmp_path / "m"
    with pytest.raises(ValidationError):
        persist_model(m, out)
    assert not out.exists()


def test_linear_weight_must_be_2d():
    with pytest.raises(ValidationError, match="2-D"):
        Model(
            tensors=[TensorRecord("w", "encoder", 0, "linear_weight", (8,), np.zeros(8))]
        ).validate()


def test_size_hand_example():
    w = TensorRecord("w", "predictor", 0, "linear_weight", (4, 3), np.ones((4, 3)))
    b = TensorRecord("b", "predictor", 0, "linear_bias", (4,), np.ones(4))
    m = Model(tensors=[w])
    assert model_size_bytes(m, AllocationPolicy("uniform", bits=4)) == 22
    m_with_bias = Model(tensors=[w, b])
    assert model_size_bytes(m_with_bias, AllocationPolicy("uniform", bits=4)) == 30
    # baseline accounting: 12 weights at 16 bits, no scales
    assert model_size_bytes(m, AllocationPolicy("full_precision")) == 24


def test_size_monotone_in_uniform_bitwidth():
    # wide enough that per-row scale overhead cannot flip the ordering
    w = TensorRecord("w", "encoder", 0, "linear_weight", (8, 64), np.ones((8, 64)))
    m = Model(tensors=[w])
    sizes = [model_size_bytes(m, AllocationPolicy("uniform", bits=b)) for b in (3, 4, 6)]
    sizes.append(model_size_bytes(m, AllocationPolicy("full_precision")))
    assert sizes == sorted(sizes) and len(set(sizes)) == 4


def test_mixed_larger_than_uniform():
    m = Model(
        tensors=[
            TensorRecord("e", "encoder", 0, "linear_weight", (8, 64), np.ones((8, 64))),
            TensorRecord("p", "predictor", 0, "linear_weight", (8, 64), np.ones((8, 64))),
        ]
    )
    for b in (3, 4, 6, 8):
        assert model_size_bytes(m, AllocationPolicy("mixed", bits=b)) > model_size_bytes(
            m, AllocationPolicy("uniform", bits=b)
        )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m["tensors"][0].update(shape=5), "'enc.0.weight': field 'shape'"),
        (lambda m: m.update(tensors=5), "field 'tensors' must be list"),
        (lambda m: m["tensors"][1].update(offset="0"), "'enc.0.bias': field 'offset'"),
        (lambda m: m["tensors"][0].update(layer_index="a"), "'enc.0.weight': field 'layer_index'"),
    ],
    ids=["shape", "tensors", "offset", "layer_index"],
)
def test_mistyped_manifest_field_rejected(tmp_path, edit, message):
    persist_model(small_model(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    edit(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match=message):
        load_model(tmp_path)
