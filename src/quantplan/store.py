"""Checkpoint codec: JSON manifest + raw little-endian float32 blob.

`Model`/`TensorRecord` are the on-disk form of a `WorldModel` (and of the
dataset blob); in memory, weights live in `WorldModel`s.

On-disk layout of a model directory:

    manifest.json   {format_version, baseline_bits, blob_crc32, extras,
                     tensors: [{name, role, layer_index, kind, shape,
                                offset, length}, ...]}
    weights.bin     tensors concatenated in manifest order, float32 LE

Tensor data is held in memory as float32 so a save/load cycle is
bit-exact, including negative zero.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PersistenceError, ValidationError

FORMAT_VERSION = 1
# storage bits of every tensor a policy leaves unquantized
BASELINE_BITS = 16
ROLES = ("encoder", "predictor", "other")
KINDS = ("linear_weight", "linear_bias", "non_linear_param")

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "weights.bin"

# JSON type of each required manifest and tensor descriptor field
MANIFEST_FIELDS = dict(format_version=int, baseline_bits=int, tensors=list)
DESCRIPTOR_FIELDS = dict(
    name=str, role=str, layer_index=int, kind=str, shape=list, offset=int, length=int
)


@dataclass
class TensorRecord:
    name: str
    role: str
    layer_index: int
    kind: str
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        data = np.ascontiguousarray(self.data, dtype=np.float32)
        if data.size != math.prod(self.shape):
            raise ValidationError(
                f"tensor {self.name!r}: {data.size} values do not fill shape {self.shape}"
            )
        self.data = data.reshape(self.shape)

    def validate(self) -> None:
        if self.role not in ROLES:
            raise ValidationError(f"tensor {self.name!r}: unknown role {self.role!r}")
        if self.kind not in KINDS:
            raise ValidationError(f"tensor {self.name!r}: unknown kind {self.kind!r}")
        if self.layer_index < 0:
            raise ValidationError(f"tensor {self.name!r}: negative layer_index")
        if not self.shape or any(s <= 0 for s in self.shape):
            raise ValidationError(f"tensor {self.name!r}: non-positive shape {self.shape}")
        if self.kind == "linear_weight" and len(self.shape) != 2:
            raise ValidationError(
                f"tensor {self.name!r}: linear_weight must be 2-D, got shape {self.shape}"
            )


@dataclass
class Model:
    """A manifest plus its tensor data, always kept consistent."""

    tensors: list[TensorRecord] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def validate(self) -> None:
        names = set()
        role_layers = set()
        for t in self.tensors:
            t.validate()
            if t.name in names:
                raise ValidationError(f"duplicate tensor name {t.name!r}")
            names.add(t.name)
            if t.kind == "linear_weight":
                key = (t.role, t.layer_index)
                if key in role_layers:
                    raise ValidationError(
                        f"duplicate (role, layer_index) {key} among linear weights"
                    )
                role_layers.add(key)

    def tensor(self, name: str) -> TensorRecord:
        for t in self.tensors:
            if t.name == name:
                return t
        raise KeyError(name)

    def n_layers(self, role: str) -> int:
        return sum(1 for t in self.tensors if t.role == role and t.kind == "linear_weight")


def persist_model(model: Model, path: str | Path) -> None:
    """Write manifest.json + weights.bin under `path` (created if needed).

    Validates everything before touching the filesystem.
    """
    model.validate()
    path = Path(path)
    descriptors = []
    chunks = []
    offset = 0
    for t in model.tensors:
        raw = t.data.astype("<f4", copy=False).tobytes()
        descriptors.append(
            {
                "name": t.name,
                "role": t.role,
                "layer_index": t.layer_index,
                "kind": t.kind,
                "shape": list(t.shape),
                "offset": offset,
                "length": len(raw),
            }
        )
        chunks.append(raw)
        offset += len(raw)
    blob = b"".join(chunks)
    manifest = {
        "format_version": FORMAT_VERSION,
        "baseline_bits": BASELINE_BITS,
        "blob_crc32": zlib.crc32(blob),
        "extras": model.extras,
        "tensors": descriptors,
    }
    try:
        path.mkdir(parents=True, exist_ok=True)
        (path / BLOB_NAME).write_bytes(blob)
        (path / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n"
        )
    except OSError as e:
        raise PersistenceError(f"failed to persist model to {path}: {e}") from e


def _check_fields(obj, types: dict[str, type], what: str) -> None:
    """ValidationError unless `obj` is a JSON object whose fields have the JSON `types`."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    for key, kind in types.items():
        if key not in obj:
            raise ValidationError(f"{what} is missing required field {key!r}")
        if type(obj[key]) is not kind:
            kind_name, value = kind.__name__, obj[key]
            raise ValidationError(f"{what}: field {key!r} must be {kind_name}, got {value!r}")


def load_model(path: str | Path) -> Model:
    """Inverse of persist_model, with full re-validation."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    blob_path = path / BLOB_NAME
    if not manifest_path.is_file():
        raise ValidationError(f"missing manifest file: {manifest_path}")
    if not blob_path.is_file():
        raise ValidationError(f"missing blob file: {blob_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"malformed manifest {manifest_path}: {e}") from e
    _check_fields(manifest, MANIFEST_FIELDS, f"manifest {manifest_path}")
    for key, supported in (("format_version", FORMAT_VERSION), ("baseline_bits", BASELINE_BITS)):
        if manifest[key] != supported:
            raise ValidationError(f"{manifest_path}: unsupported {key} {manifest[key]!r}")
    if not isinstance(manifest.get("extras", {}), dict):
        raise ValidationError(f"{manifest_path}: extras must be an object")
    blob = blob_path.read_bytes()
    expected_crc = manifest.get("blob_crc32")
    if expected_crc is not None and zlib.crc32(blob) != expected_crc:
        raise ValidationError(f"blob checksum mismatch in {blob_path}")

    tensors = []
    prev_end = 0
    for d in manifest["tensors"]:
        name = d.get("name") if isinstance(d, dict) else d
        _check_fields(d, DESCRIPTOR_FIELDS, f"tensor {name!r}")
        shape = tuple(d["shape"])
        if any(type(s) is not int or s < 1 for s in shape):
            raise ValidationError(f"tensor {name!r}: field 'shape' must list positive ints")
        numel = int(np.prod(shape))
        if d["length"] != 4 * numel:
            raise ValidationError(
                f"tensor {name!r}: length {d['length']} != 4 x shape product {4 * numel}"
            )
        if d["offset"] < prev_end:
            raise ValidationError(f"tensor {name!r}: overlapping or non-ascending offset")
        end = d["offset"] + d["length"]
        if end > len(blob):
            raise ValidationError(f"tensor {name!r}: blob too short ({len(blob)} bytes, need {end})")
        prev_end = end
        data = np.frombuffer(blob[d["offset"] : end], dtype="<f4").reshape(shape)
        tensors.append(TensorRecord(name, d["role"], d["layer_index"], d["kind"], shape, data))
    model = Model(tensors=tensors, extras=manifest.get("extras", {}))
    model.validate()
    return model
