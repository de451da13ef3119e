"""Hypothesis fuzzing of every reader of a file quantplan reads back.

Each reader gets arbitrary bytes and arbitrary JSON shaped like its real
input. Every input must either succeed or raise ValidationError/StageError;
the CLI must return 1 and never raise.
"""

import json
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantplan import Model, TensorRecord, ValidationError
from quantplan.cli import main
from quantplan.config import ExperimentConfig, config_from_dict
from quantplan.errors import StageError
from quantplan.pipeline import run_stage
from quantplan.planner import EPISODES_CSV_HEADER, read_episodes_csv
from quantplan.store import load_model, persist_model

FUZZ = settings(max_examples=50, deadline=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=4,
)


def as_json(values):
    return values.map(lambda v: json.dumps(v).encode())


def file_bytes(*structured):
    """Arbitrary bytes, or the JSON (or text) that `structured` draws."""
    return st.one_of(st.binary(max_size=300), *structured)


def mutated(real: dict):
    """`real` with each field kept or replaced by an arbitrary JSON value."""
    return st.fixed_dictionaries({key: st.just(value) | json_values for key, value in real.items()})


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def tiny_run(scratch):
    """A finished tiny run, and the frontier.json payload it wrote."""
    budget = {"goal_h": 3, "opt_steps": 1, "max_iter": 1, "seeds": [0]}
    cfg = config_from_dict({
        "dataset": {"n_traj": 20, "traj_len": 6}, "train": {"epochs": 2},
        "budgets": {"bA": budget, "bB": budget}, "cem": {"population": 8},
        "episodes_per_run": 2, "variants": ["uniform_int4", "mixed_int4"],
        "output_dir": str(scratch / "out"),
    })
    run_stage(cfg, "all")
    return cfg, json.loads((scratch / "out" / "frontier.json").read_text())


BUDGET_KEYS = ["goal_h", "opt_steps", "max_iter", "seeds"]
configs = st.dictionaries(
    st.sampled_from([f.name for f in fields(ExperimentConfig)]),
    json_values
    | st.dictionaries(st.text(max_size=4),
                      st.dictionaries(st.sampled_from(BUDGET_KEYS), json_values), max_size=2),
    max_size=4,
)


@FUZZ
@given(text=file_bytes(as_json(configs)))
def test_cli_config_fails_cleanly(scratch, text):
    (scratch / "config.json").write_bytes(text)
    # report on an empty directory fails even for a valid config, so every input returns 1
    argv = ["report", "--config", str(scratch / "config.json"), "--output", str(scratch / "none")]
    assert main(argv) == 1


BLOB = np.arange(6, dtype="<f4").tobytes()
DESCRIPTOR = {"name": "w", "shape": [2, 3]}
MANIFEST = {"format_version": 2, "blob_crc32": zlib.crc32(BLOB), "extras": {},
            "tensors": [DESCRIPTOR]}
manifests = st.builds(lambda m, tensors: {**m, "tensors": tensors},
                      mutated(MANIFEST), st.lists(mutated(DESCRIPTOR), max_size=3))


@FUZZ
@given(text=file_bytes(as_json(mutated(MANIFEST)), as_json(manifests)))
def test_manifest_fails_cleanly(scratch, text):
    path = scratch / "checkpoint"
    if not path.exists():
        persist_model(Model([TensorRecord("w", np.arange(6).reshape(2, 3))]), path)
        assert (path / "weights.bin").read_bytes() == BLOB
    (path / "manifest.json").write_bytes(text)
    try:
        load_model(path)
    except ValidationError:
        pass


cells = st.sampled_from(["0", "1", "-5", "2.5", "nan", "inf", "1e400", "1" * 5000,
                         "x" * 200_000, "fp16", "bA", "", '"', "\x00"]) | st.text(max_size=5)
rows = st.lists(cells, min_size=9, max_size=11).map(",".join)


@FUZZ
@given(text=file_bytes(
    st.lists(rows, max_size=4).map(lambda r: "\n".join([EPISODES_CSV_HEADER, *r]).encode()),
))
def test_episodes_csv_fails_cleanly(scratch, text):
    (scratch / "episodes.csv").write_bytes(text)
    try:
        read_episodes_csv(scratch / "episodes.csv")
    except ValidationError:
        pass


sizes = st.dictionaries(st.sampled_from(["uniform_int4", "mixed_int4"]),
                        mutated({"size_bytes": 1000, "size_mb": 0.001}) | json_values)


@FUZZ
@given(text=file_bytes(as_json(st.fixed_dictionaries({"sizes": sizes}))))
def test_sizes_json_fails_cleanly(tiny_run, text):
    cfg, _ = tiny_run
    (Path(cfg.output_dir) / "sizes.json").write_bytes(text)
    try:
        run_stage(cfg, "stats")
    except (ValidationError, StageError):
        pass


@FUZZ
@given(data=st.data())
def test_frontier_json_fails_cleanly(tiny_run, data):
    cfg, frontier = tiny_run
    entries = st.lists(st.sampled_from(frontier["frontier"]).flatmap(mutated), min_size=1,
                       max_size=4)
    text = data.draw(file_bytes(as_json(entries.map(lambda e: {**frontier, "frontier": e}))))
    (Path(cfg.output_dir) / "frontier.json").write_bytes(text)
    try:
        run_stage(cfg, "report")
    except StageError:
        pass
