"""Output checks run after every timed and traced run.

The files are parsed here with the standard library, not with quantplan's own
readers, so a defect in those readers cannot hide a bad artifact. A failed
check raises CheckError, and the run counts as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import expected_records

STATS_FILES = ("comparisons.json", "matchups.json", "bins.json", "frontier.json",
               "correlations.json")
REPORT_SVGS = ("frontier.svg", "forest.svg", "retention_curve.svg", "difficulty.svg",
               "divergence_scatter.svg")


class CheckError(Exception):
    pass


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: Path) -> dict:
    _need(path.is_file(), f"missing {path.name}")
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise CheckError(f"{path.name} does not parse: {e}") from e


def check_model(out: Path, config_hash: str) -> dict:
    """The trained model carries the config hash and a finite final loss."""
    extras = _load_json(out / "model" / "manifest.json").get("extras", {})
    _need(extras.get("config_hash") == config_hash, "model manifest has another config_hash")
    final_loss = extras.get("train", {}).get("final_loss")
    _need(isinstance(final_loss, float) and math.isfinite(final_loss),
          f"model final_loss is {final_loss!r}")
    return {"final_train_loss": final_loss}


def check_eval(out: Path, cfg, config_hash: str) -> dict:
    """Record count, identical paired units for every variant, run_meta hash."""
    with open(out / "episodes.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    n = expected_records(cfg)
    _need(len(rows) == n, f"episodes.csv has {len(rows)} records, expected {n}")
    units: dict[str, set] = {}
    for r in rows:
        units.setdefault(r["variant"], set()).add((r["budget"], r["seed"], r["episode_id"]))
    _need(sorted(units) == sorted(cfg.variants), f"episodes.csv variants {sorted(units)}")
    reference = units[cfg.variants[0]]
    for name, u in units.items():
        _need(u == reference, f"variant {name} has other paired units than {cfg.variants[0]}")
    _need(len(reference) * len(units) == n, "duplicate (budget, seed, episode_id) units")
    meta = _load_json(out / "run_meta.json")
    _need(meta.get("config_hash") == config_hash, "run_meta.json has another config_hash")
    successes = [int(r["success"]) for r in rows]
    _need(set(successes) <= {0, 1}, "success column is not 0/1")
    return {"n_records": n, "mean_success": sum(successes) / n}


def check_stats(out: Path, config_hash: str) -> None:
    for name in STATS_FILES:
        payload = _load_json(out / name)
        _need(payload.get("config_hash") == config_hash, f"{name} has another config_hash")


def check_report(out: Path, cfg, config_hash: str) -> None:
    """main_table.csv parses with one row per variant; every figure names the config.

    main_table.csv has no config_hash column, so the hash is checked in the SVG
    comments written by the same report stage.
    """
    with open(out / "main_table.csv", newline="") as f:
        table = list(csv.reader(f))
    budgets = sorted(cfg.budgets)
    _need(table[0] == ["variant"] + [f"success_{b}" for b in budgets] + ["size_mb"],
          f"main_table.csv header {table[0]}")
    _need([row[0] for row in table[1:]] == sorted(cfg.variants), "main_table.csv variant rows")
    for row in table[1:]:
        try:
            values = [float(v) for v in row[1:]]
        except ValueError as e:
            raise CheckError(f"main_table.csv row {row}: {e}") from e
        _need(all(0.0 <= v <= 1.0 for v in values[:-1]), f"main_table.csv row {row}")
    for name in REPORT_SVGS:
        path = out / name
        _need(path.is_file(), f"missing {name}")
        _need(f"config_hash: {config_hash}" in path.read_text(), f"{name} lacks the config_hash")


def check_run(out: Path, cfg, stages) -> tuple[dict, dict]:
    """Check the artifacts a run's stages wrote; returns (hashes, values)."""
    config_hash = cfg.config_hash()
    hashes, values = {}, {}
    if (out / "model").is_dir():
        values.update(check_model(out, config_hash))
        hashes["model/weights.bin"] = sha256(out / "model" / "weights.bin")
    if "eval" in stages:
        values.update(check_eval(out, cfg, config_hash))
        hashes["episodes.csv"] = sha256(out / "episodes.csv")
    if "stats" in stages:
        check_stats(out, config_hash)
    if "report" in stages:
        check_report(out, cfg, config_hash)
    return hashes, values
