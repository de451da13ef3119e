import errno
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from quantplan import (
    Model,
    TensorRecord,
    ValidationError,
    WorldModel,
    load_model,
    model_size_bytes,
    PersistenceError,
    persist_model,
)
from quantplan.nn import init_world_model


def small_model():
    w = np.array([[1.0, -2.0, 0.5], [0.25, -0.0, 4.0], [0.0, 0.0, 0.0], [1e-30, 3.0, -7.5]])
    b = np.array([0.5, -0.5, 0.0, 1.0])
    return Model(
        tensors=[
            TensorRecord("enc.0.weight", w),
            TensorRecord("enc.0.bias", b),
        ]
    )


def test_round_trip_identity(tmp_path):
    m = small_model()
    persist_model(m, tmp_path)
    loaded = load_model(tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert sorted(manifest) == ["blob_crc32", "extras", "format_version", "tensors"]
    assert manifest["format_version"] == 2
    assert manifest["tensors"] == [
        {"name": "enc.0.weight", "shape": [4, 3]},
        {"name": "enc.0.bias", "shape": [4]},
    ]
    for a, b in zip(m.tensors, loaded.tensors):
        assert a.name == b.name and a.data.shape == b.data.shape
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


def test_trailing_blob_bytes_rejected(tmp_path):
    persist_model(small_model(), tmp_path)
    blob = (tmp_path / "weights.bin").read_bytes() + bytes(64)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["blob_crc32"] = zlib.crc32(blob)
    (tmp_path / "weights.bin").write_bytes(blob)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="64 bytes follow the last tensor"):
        load_model(tmp_path)


def test_missing_blob_crc32_rejected(tmp_path):
    persist_model(small_model(), tmp_path)
    blob = bytearray((tmp_path / "weights.bin").read_bytes())
    blob[5] ^= 0xFF
    (tmp_path / "weights.bin").write_bytes(bytes(blob))
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    del manifest["blob_crc32"]
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="missing required field 'blob_crc32'"):
        load_model(tmp_path)


def test_unknown_format_version_rejected(tmp_path):
    persist_model(small_model(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["format_version"] = 1
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="format_version 1"):
        load_model(tmp_path)


def test_missing_files(tmp_path):
    with pytest.raises(ValidationError, match="manifest"):
        load_model(tmp_path)
    persist_model(small_model(), tmp_path)
    (tmp_path / "weights.bin").unlink()
    with pytest.raises(ValidationError, match="blob"):
        load_model(tmp_path)


@pytest.mark.parametrize(
    "text, message",
    [
        (b'{"format_version": 2, "extras": {"note": "caf\xe9"}}', "not UTF-8"),
        (b"{not json", "not valid JSON"),
        (b"[" * 100_000, "not valid JSON"),
        (b"[]", "not a JSON object"),
        (b'{"format_version": 2, "extras": {}, "extras": {"a": 1}}', "repeated key 'extras'"),
    ],
    ids=["latin1", "not_json", "too_deep", "not_object", "repeated_key"],
)
def test_unreadable_manifest_names_file(tmp_path, text, message):
    persist_model(small_model(), tmp_path)
    (tmp_path / "manifest.json").write_bytes(text)
    with pytest.raises(ValidationError, match=f"manifest.json.*{message}"):
        load_model(tmp_path)


def test_invalid_model_writes_nothing(tmp_path):
    m = small_model()
    m.tensors.append(m.tensors[0])  # duplicate name
    out = tmp_path / "m"
    with pytest.raises(ValidationError):
        persist_model(m, out)
    assert not out.exists()


def test_linear_weight_must_be_2d(tmp_path):
    m = init_world_model(obs_dim=8).to_model()
    m.tensor("encoder.0.weight").data = np.zeros(8, dtype=np.float32)
    persist_model(m, tmp_path)
    with pytest.raises(ValidationError, match="'encoder.0.weight' has shape \\(8,\\), expected 2-D"):
        WorldModel.from_model(load_model(tmp_path))


def test_failed_persist_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "m"
    persist_model(small_model(), path)
    write_bytes = Path.write_bytes

    def disk_full(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    other = small_model()
    other.tensors[0].data += 1.0
    monkeypatch.setattr(Path, "write_bytes", disk_full)
    with pytest.raises(PersistenceError):
        persist_model(other, path)
    monkeypatch.undo()
    loaded = load_model(path)
    assert loaded.tensors[0].data.tobytes() == small_model().tensors[0].data.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["m"]


def test_overwrite_leaves_only_the_new_checkpoint(tmp_path):
    path = tmp_path / "m"
    persist_model(small_model(), path)
    (path / "stale.txt").write_text("left by another writer")
    other = small_model()
    other.tensors[0].data += 1.0
    persist_model(other, path)
    assert sorted(p.name for p in path.iterdir()) == ["manifest.json", "weights.bin"]
    assert [p.name for p in tmp_path.iterdir()] == ["m"]
    assert load_model(path).tensors[0].data.tobytes() == other.tensors[0].data.tobytes()


def stacks_model(**dims):
    """WorldModel with the given stacks' (out, in) layer shapes; other stacks empty."""
    return WorldModel({"encoder": [], "predictor": [], "probe": [], **dims})


def test_size_hand_example():
    m = stacks_model(predictor=[(4, 3)])
    # 12 weights at 4 bits (6 B) + 4 row scales (16 B) + 4 biases at 16 bits (8 B)
    assert model_size_bytes(m, {"predictor.0.weight": 4}) == 30
    # baseline accounting: 16 parameters at 16 bits, no scales
    assert model_size_bytes(m, {}) == 32


def test_size_monotone_in_uniform_bitwidth():
    # wide enough that per-row scale overhead cannot flip the ordering
    m = stacks_model(encoder=[(8, 64)])
    sizes = [model_size_bytes(m, {"encoder.0.weight": b}) for b in (3, 4, 6)]
    sizes.append(model_size_bytes(m, {}))
    assert sizes == sorted(sizes) and len(set(sizes)) == 4


def test_mixed_larger_than_uniform():
    m = stacks_model(encoder=[(8, 64)], predictor=[(8, 64)])
    for b in (3, 4, 6, 8):
        mixed = {"predictor.0.weight": b}
        assert model_size_bytes(m, mixed) > model_size_bytes(m, {"encoder.0.weight": b, **mixed})


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: m["tensors"][0].update(shape=5), "'enc.0.weight': field 'shape'"),
        (lambda m: m.update(tensors=5), "field 'tensors' must be list"),
        (lambda m: m.update(extras=[]), "field 'extras' must be dict"),
    ],
    ids=["shape", "tensors", "extras"],
)
def test_mistyped_manifest_field_rejected(tmp_path, edit, message):
    persist_model(small_model(), tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    edit(manifest)
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match=message):
        load_model(tmp_path)
