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

from .env import WallEnvConfig
from .errors import ValidationError
from .nn import TrainConfig
from .planner import CEMConfig, PlannerBudget
from .policies import ALL_VARIANT_NAMES, CORE_VARIANT_NAMES

VARIANT_KEYWORDS = {"core": CORE_VARIANT_NAMES, "all": ALL_VARIANT_NAMES}


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
        if self.episodes_per_run < 1:
            raise ValidationError("episodes_per_run must be >= 1")
        for name, budget in self.budgets.items():
            # the statistics split each budget's paired units into at least two bins
            if len(budget.seeds) * self.episodes_per_run < 2:
                raise ValidationError(
                    f"budgets.{name}: {len(budget.seeds)} seed x episodes_per_run "
                    f"{self.episodes_per_run} gives 1 paired unit; the statistics need 2"
                )
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
    # type(), not isinstance(): bool is an int subclass, and JSON true is not a number
    if hint is float:
        ok = type(value) in (int, float) and math.isfinite(value)
    else:
        ok = type(value) is hint
    if not ok:
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
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValidationError(f"config file {path} is not valid JSON: {e}") from e
    return config_from_dict(data)
