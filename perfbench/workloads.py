"""Benchmark workloads: the config each one feeds quantplan and the stages it times.

Every workload goes through the public pipeline only (`config_from_dict` and
`run_stage`). The workload seed becomes the config's `master_seed`, so the
dataset, the trained model, the episode specs and the planner noise all follow
from it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Temporary run directories and results; listed in the root .gitignore.
WORK_DIR = ROOT / ".perfbench_run"

STAGES = ("gen-data", "train", "variants", "eval", "stats", "report")


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    config: dict
    setup: tuple[str, ...]  # run before timing, in separate processes
    timed: tuple[str, ...]  # run in every timed run, in a fresh copy of the setup output


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study", {}, (), STAGES),
        Workload("eval-wide", {"variants": "all", "episodes_per_run": 30},
                 ("gen-data", "train", "variants"), ("eval", "stats", "report")),
        Workload("train-long", {"dataset": {"n_traj": 400}}, ("gen-data",), ("train",)),
    )
}


def load_quantplan():
    """Import quantplan from this checkout's `src/`, never from an installed copy."""
    pkg = SRC / "quantplan"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quantplan sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import quantplan

    if Path(quantplan.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"perfbench: imported quantplan from {quantplan.__file__}, not {pkg}")
    return quantplan


def config_dict(workload: Workload, seed: int, out_dir: Path) -> dict:
    """The only input quantplan receives: the workload config, the seed and the output dir."""
    return {**workload.config, "master_seed": seed, "output_dir": str(out_dir)}


def make_config(workload: Workload, seed: int, out_dir: Path):
    from quantplan.config import config_from_dict

    return config_from_dict(config_dict(workload, seed, out_dir))


def adam_steps(cfg) -> int:
    """Minibatch steps of one train stage (the two full-dataset losses are not steps)."""
    n = cfg.dataset.n_traj * cfg.dataset.traj_len
    return cfg.train.epochs * math.ceil(n / cfg.train.batch_size)


def expected_records(cfg) -> int:
    seeds = sum(len(spec.seeds) for spec in cfg.budgets.values())
    return len(cfg.variants) * seeds * cfg.episodes_per_run
