"""Checkpoint codec; the one reader, JSON value rule and CSV writer of every file.

`Model`/`TensorRecord` are the on-disk form of a `WorldModel` (and of the
dataset blob); in memory, weights live in `WorldModel`s.  A tensor's name
alone says what it is: `WorldModel.named_params()` yields every name a
model has, and `WorldModel.from_model` rejects any other name.

On-disk layout of a checkpoint directory:

    manifest.json   {format_version: 2, blob_crc32, extras,
                     tensors: [{name, shape}, ...]}
    weights.bin     tensors back to back in manifest order, float32 LE

Each tensor's offset follows from the shapes before it, and the tensors must
fill the blob exactly.  Format-1 checkpoints (per-tensor role, layer_index,
kind, offset and length) are rejected; regenerate them with a fresh
`quantplan all`.

Tensor data is held in memory as float32 so a save/load cycle is
bit-exact, including negative zero.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PersistenceError, ValidationError

FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"
BLOB_NAME = "weights.bin"

# JSON type of each required manifest and tensor descriptor field
MANIFEST_FIELDS = dict(format_version=int, blob_crc32=int, extras=dict, tensors=list)
DESCRIPTOR_FIELDS = dict(name=str, shape=list)


@dataclass
class TensorRecord:
    name: str
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32, order="C")


@dataclass
class Model:
    """Named float32 tensors plus JSON-ready extras."""

    tensors: list[TensorRecord] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def validate(self) -> None:
        names = set()
        for t in self.tensors:
            if t.name in names:
                raise ValidationError(f"duplicate tensor name {t.name!r}")
            names.add(t.name)
            if not t.data.shape or 0 in t.data.shape:
                raise ValidationError(f"tensor {t.name!r}: empty shape {t.data.shape}")

    def tensor(self, name: str) -> TensorRecord:
        for t in self.tensors:
            if t.name == name:
                return t
        raise ValidationError(f"model has no tensor {name!r}")


def persist_model(model: Model, path: str | Path) -> None:
    """Write manifest.json + weights.bin as the directory `path`, replacing it.

    Validates everything before touching the filesystem.  The files are
    written into a temporary sibling directory that is then renamed into
    place, so `path` never holds a manifest next to another checkpoint's blob.
    """
    model.validate()
    path = Path(path)
    blob = b"".join(t.data.astype("<f4", copy=False).tobytes() for t in model.tensors)
    manifest = {
        "format_version": FORMAT_VERSION,
        "blob_crc32": zlib.crc32(blob),
        "extras": model.extras,
        "tensors": [{"name": t.name, "shape": list(t.data.shape)} for t in model.tensors],
    }
    text = json.dumps(manifest, indent=1, sort_keys=True) + "\n"
    stage = path.with_name(f".{path.name}.tmp")
    new, old = stage / "new", stage / "old"
    try:
        shutil.rmtree(stage, ignore_errors=True)  # left by an interrupted write
        new.mkdir(parents=True)
        (new / BLOB_NAME).write_bytes(blob)
        (new / MANIFEST_NAME).write_text(text, encoding="utf-8")
        # a directory cannot be renamed over a non-empty one: move the old one aside
        if path.exists():
            path.rename(old)
        try:
            new.rename(path)
        except OSError:
            if old.exists():
                old.rename(path)
            raise
    except OSError as e:
        raise PersistenceError(f"failed to persist model to {path}: {e}") from e
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def json_is(value, kind: type) -> bool:
    """Whether a decoded JSON value is of the JSON kind `kind`: a float takes a finite
    int or float, and every other kind must match exactly, so JSON true is not a number."""
    if kind is float:  # abs(), not math.isfinite(), which raises on an int beyond float range
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind  # type(), not isinstance(): bool is an int subclass


def json_fault(obj, fields: dict[str, type]) -> str | None:
    """What keeps `obj` from being a JSON object whose `fields` hold their JSON kinds, or None."""
    if type(obj) is not dict:
        return "not a JSON object"
    for key, kind in fields.items():
        if key not in obj:
            return f"missing required field {key!r}"
        if not json_is(obj[key], kind):
            return f"field {key!r} must be {kind.__name__}, got {obj[key]!r}"


def _csv_writer(f):
    # one LF-ended line per row: no field holds a line break
    return csv.writer(f, lineterminator="\n")


def csv_text(rows) -> str:
    """`rows` as CSV text, one LF-ended line per row."""
    buf = io.StringIO()
    _csv_writer(buf).writerows(rows)
    return buf.getvalue()


def write_csv(path: str | Path, rows) -> None:
    """`rows` written to `path` as UTF-8 `csv_text(rows)`, each row as it is formatted."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        _csv_writer(f).writerows(rows)


def read_text(path: str | Path) -> str:
    """The UTF-8 text of `path`, line breaks as stored; ValidationError naming it if unreadable."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"{path}: not found, unreadable or not UTF-8 ({e})") from e


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:  # json.loads' object_pairs_hook
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
    return dict(pairs)


def read_json(path: str | Path, fields: dict[str, type]) -> dict:
    """The JSON object in `path`, no key repeated, `fields` of their kinds; else ValidationError."""
    text = read_text(path)
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as e:  # ValueError: also an int of too many digits
        raise ValidationError(f"{path} is not valid JSON: {e}") from e
    if fault := json_fault(obj, fields):
        raise ValidationError(f"{path}: {fault}")
    return obj


def load_model(path: str | Path) -> Model:
    """Inverse of persist_model, with full re-validation."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    blob_path = path / BLOB_NAME
    manifest = read_json(manifest_path, MANIFEST_FIELDS)
    if not blob_path.is_file():
        raise ValidationError(f"missing blob file: {blob_path}")
    if manifest["format_version"] != FORMAT_VERSION:
        raise ValidationError(
            f"{manifest_path}: unsupported format_version {manifest['format_version']!r}"
            f" (this version reads {FORMAT_VERSION}); rerun 'quantplan all'"
        )
    blob = blob_path.read_bytes()
    if zlib.crc32(blob) != manifest["blob_crc32"]:
        raise ValidationError(f"blob checksum mismatch in {blob_path}")

    tensors = []
    offset = 0
    for d in manifest["tensors"]:
        name = d.get("name") if isinstance(d, dict) else d
        if fault := json_fault(d, DESCRIPTOR_FIELDS):
            raise ValidationError(f"tensor {name!r}: {fault}")
        shape = tuple(d["shape"])
        if any(type(s) is not int or s < 1 for s in shape):
            raise ValidationError(f"tensor {name!r}: field 'shape' must list positive ints")
        count = math.prod(shape)
        if offset + 4 * count > len(blob):
            raise ValidationError(
                f"tensor {name!r}: blob too short ({len(blob)} bytes, need {offset + 4 * count})"
            )
        data = np.frombuffer(blob, dtype="<f4", count=count, offset=offset)
        tensors.append(TensorRecord(name, data.reshape(shape)))
        offset += 4 * count
    if offset != len(blob):
        raise ValidationError(f"{blob_path}: {len(blob) - offset} bytes follow the last tensor")
    model = Model(tensors=tensors, extras=manifest["extras"])
    model.validate()
    return model
