"""Experiment configuration: JSON file -> validated dataclasses.

The dataclasses are the schema: their fields name the keys a config file may
give, their annotations the JSON types each key accepts, and their defaults
fill every key the file leaves out.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import rng
from .env import MAX_ARRAY_BYTES, WallEnvConfig
from .errors import ValidationError
from .nn import HIDDEN_DIM, LATENT_DIM, TrainConfig
from .planner import CEMConfig, PlannerBudget
from .policies import ALL_VARIANT_NAMES, CORE_VARIANT_NAMES
from .store import json_is, read_json

VARIANT_KEYWORDS = {"core": CORE_VARIANT_NAMES, "all": ALL_VARIANT_NAMES}
POOLED_SCOPE = "pooled"  # the matchups scope over all budgets; no budget may take the name


def _check_fits(what: str, shape: tuple[int, ...], dtype: str = "float64") -> None:
    """ValidationError unless an array of `shape` and `dtype` fits in `env.MAX_ARRAY_BYTES`."""
    if np.dtype(dtype).itemsize * math.prod(shape) > MAX_ARRAY_BYTES:
        raise ValidationError(f"{what} = {shape} takes more than "
                              f"{MAX_ARRAY_BYTES >> 30} GiB as {dtype}")


# the bytes of the eval's Python objects, by tracemalloc over 20,000 of each: an EpisodeSpec
# with its tuples and floats and its list slot, a Philox "plan" stream, an EpisodeRecord
# whose step counts pass the small-int cache, and an episodes.csv row: read_episodes_csv's
# peak per eval-wide row (783 B: the file's bytes, its text, the parser's copy and the
# records it parses) less RECORD_BYTES.  write_episodes_csv writes row by row, and its
# peak does not grow with the rows.
SPEC_BYTES, STREAM_BYTES, RECORD_BYTES, CSV_ROW_BYTES = 420, 609, 280, 503


def _check_objects_fit(what: str, count: int, unit_bytes: int) -> None:
    """ValidationError unless `count` objects of `unit_bytes` fit in `env.MAX_ARRAY_BYTES`."""
    if count * unit_bytes > MAX_ARRAY_BYTES:
        raise ValidationError(f"{what} = {count} takes more than {MAX_ARRAY_BYTES >> 30} GiB "
                              f"at {unit_bytes} B each")


@dataclass
class DatasetConfig:
    n_traj: int = 200
    traj_len: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_traj < 1 or self.traj_len < 1:
            raise ValidationError("dataset.n_traj and dataset.traj_len must be >= 1")


@dataclass
class ExperimentConfig:
    env: WallEnvConfig = field(default_factory=WallEnvConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    budgets: dict[str, PlannerBudget] = field(
        default_factory=lambda: {
            "bA": PlannerBudget(goal_h=9, opt_steps=2, max_iter=2, seeds=(0, 1, 2)),
            "bB": PlannerBudget(goal_h=12, opt_steps=3, max_iter=3, seeds=(0, 1)),
        }
    )
    cem: CEMConfig = field(default_factory=CEMConfig)
    episodes_per_run: int = 10
    variants: list[str] = field(default_factory=lambda: list(CORE_VARIANT_NAMES))
    output_dir: str = "out"
    master_seed: int = 0

    def __post_init__(self):
        if not self.budgets:
            raise ValidationError("budgets must name at least one budget")
        if POOLED_SCOPE in self.budgets:
            raise ValidationError(f"budgets: {POOLED_SCOPE!r} is reserved for the pooled scope")
        seeds = [("master_seed", self.master_seed), ("dataset.seed", self.dataset.seed),
                 ("train.seed", self.train.seed)]
        seeds += [(f"budgets.{n}.seeds", s) for n, b in self.budgets.items() for s in b.seeds]
        for where, seed in seeds:
            if seed not in rng.SEED_RANGE:
                raise ValidationError(f"{where}: {seed} does not fit the 128-bit signed stream key")
        if self.episodes_per_run < 1:
            raise ValidationError("episodes_per_run must be >= 1")
        # the largest array the train stage sizes per transition is the probe fit's design
        # matrix; gen_dataset's (n_traj, traj_len + 1, 2) float64 states are never larger
        n = self.dataset.n_traj * self.dataset.traj_len
        _check_fits("dataset: the probe fit's design matrix (n_traj x traj_len, "
                    f"{LATENT_DIM} + 1)", (n, LATENT_DIM + 1))
        # a training step's workspace, its widest arrays the encoder input and the hidden layers
        rows, width = min(n, self.train.batch_size), self.env.image_side**2 + 1
        _check_fits("train: the step workspace (2 x min(n_traj x traj_len, batch_size), "
                    f"max(image_side^2 + 1, {HIDDEN_DIM} + 1))",
                    (2 * rows, max(width, HIDDEN_DIM + 1)), "float32")
        # an epoch plan's column ranks; its bool mask of the same shape is half their size
        _check_fits("train: the epoch plan's column ranks (ceil(n_traj x traj_len / "
                    "batch_size), image_side^2 + 1)", (-(-n // self.train.batch_size), width),
                    "int16")
        if not self.output_dir:  # Path("") is the current directory
            raise ValidationError("output_dir must not be empty")
        # printable: no line break to split a CSV row, and every character XML 1.0 allows
        for what, text in [("output_dir:", self.output_dir),
                           *[("budgets: name", name) for name in self.budgets]]:
            if bad := next((c for c in text if not c.isprintable()), None):
                raise ValidationError(f"{what} {text!r} is not valid text: {bad!r} "
                                      "is not printable")
        n_records = 0
        for name, budget in self.budgets.items():
            n_specs = len(budget.seeds) * self.episodes_per_run
            # the statistics split each budget's paired units into at least two bins
            if n_specs < 2:
                raise ValidationError(
                    f"budgets.{name}: {len(budget.seeds)} seed x episodes_per_run "
                    f"{self.episodes_per_run} gives 1 paired unit; the statistics need 2"
                )
            _check_fits(f"budgets.{name}: the round noise block (seeds x episodes_per_run, "
                        "opt_steps, cem.population, goal_h, 2)",
                        (n_specs, budget.opt_steps, self.cem.population, budget.goal_h, 2))
            _check_fits(f"budgets.{name}: the step distances (2, variants, seeds x "
                        "episodes_per_run, max_iter x goal_h)",
                        (2, len(self.variants), n_specs, budget.max_iter * budget.goal_h))
            _check_objects_fit(f"budgets.{name}: the episode specs and their plan streams (seeds "
                               "x episodes_per_run)", n_specs, SPEC_BYTES + STREAM_BYTES)
            # plan_actions' rollout plans at most every spec of the round at once
            _check_fits(f"budgets.{name}: the rollout's hidden workspace (seeds x "
                        f"episodes_per_run, cem.population, {HIDDEN_DIM} + 1)",
                        (n_specs, self.cem.population, HIDDEN_DIM + 1), "float32")
            n_records += len(self.variants) * n_specs
        # run_paired_eval holds every budget's records, and stage_stats reads them back from
        # their episodes.csv text, which it holds beside them
        _check_objects_fit("the eval's records and their episodes.csv rows (variants x seeds x "
                           "episodes_per_run, summed over budgets)", n_records,
                           RECORD_BYTES + CSV_ROW_BYTES)
        if not self.variants:
            raise ValidationError("variants must name at least one variant")
        for name in self.variants:
            if name not in ALL_VARIANT_NAMES:
                raise ValidationError(f"variants: unknown variant {name!r}")
        if len(set(self.variants)) != len(self.variants):
            raise ValidationError(f"variants: duplicate names in {self.variants}")

    def config_hash(self) -> str:
        d = asdict(self)
        del d["output_dir"]  # a destination, not part of the experiment identity
        canon = json.dumps(d, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _value(value, hint, path: str):
    """value checked against the annotation hint of the field at path."""
    if is_dataclass(hint):
        return _build(hint, value, path)
    origin, args = get_origin(hint), get_args(hint)
    if origin is dict:
        if not isinstance(value, dict):
            raise ValidationError(f"config field {path}: expected an object, got {value!r}")
        return {k: _value(v, args[1], f"{path}.{k}") for k, v in value.items()}
    if origin in (list, tuple):
        if not isinstance(value, list):
            raise ValidationError(f"config field {path}: expected a list, got {value!r}")
        return origin(_value(v, args[0], f"{path}[{i}]") for i, v in enumerate(value))
    if not json_is(value, hint):
        raise ValidationError(f"config field {path}: expected {hint.__name__}, got {value!r}")
    return value


def _build(cls, data, path: str):
    """cls from the keys data gives; the fields of cls supply every other value."""
    if not isinstance(data, dict):
        raise ValidationError(f"config field {path or '<root>'}: expected an object, got {data!r}")
    hints = get_type_hints(cls)
    names = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else key
        if key not in names:
            raise ValidationError(f"config field {where}: unknown field")
        kwargs[key] = _value(value, hints[key], where)
    try:
        return cls(**kwargs)
    except (TypeError, ValidationError) as e:  # TypeError: a required field is missing
        raise ValidationError(f"config field {path or '<root>'}: {e}") from e


def config_from_dict(data: dict) -> ExperimentConfig:
    variants = data.get("variants") if isinstance(data, dict) else None
    if isinstance(variants, str):
        if variants not in VARIANT_KEYWORDS:
            raise ValidationError("config field variants: expected 'core', 'all' or a list")
        data = {**data, "variants": list(VARIANT_KEYWORDS[variants])}
    return _build(ExperimentConfig, data, "")


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(read_json(path, {}))
