"""Pipeline stages wiring the study end to end.

Artifacts land under config.output_dir:

    dataset/            training transitions: agent pixels, actions, states
    model/              trained full-precision world model
    sizes.json          per-variant size accounting, read by the stats stage
    episodes.csv        paired evaluation results, one row per episode
    comparisons.json, matchups.json, bins.json, frontier.json,
    correlations.json   statistics
    main_table.csv + *.svg   report
    run_meta.json       config hash covering the CSV/SVG artifacts

Each stage checks for the artifacts of its prerequisite stage and raises
StageError naming the stage to run first; eval builds each variant from model/.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from itertools import groupby
from pathlib import Path

import numpy as np

from . import rng
from .config import POOLED_SCOPE, ExperimentConfig
from .env import dataset_from_model, dataset_to_model, gen_dataset
from .errors import StageError, ValidationError
from .nn import WorldModel, train_world_model
from .planner import EpisodeRecord, read_episodes_csv, run_paired_eval, write_episodes_csv
from .policies import apply_policy, model_size_bytes, policy_for_name
from .report import RHO, STATS_FILES, emit_report
from .stats import (
    compare_records,
    difficulty_bins,
    matchup_counts,
    paired_cells,
    pareto_frontier,
    spearman,
)
from .store import json_fault, json_is, load_model, persist_model, read_json

COMPARISON_PLAN = [
    ("mixed_int8", "uniform_int8"),
    ("mixed_int6", "uniform_int6"),
    ("mixed_int4", "uniform_int4"),
    ("mixed_int3", "uniform_int3"),
    ("enc6_pred4", "uniform_int4"),
    ("enc8_pred4", "uniform_int4"),
    ("enc4_pred8", "mixed_int4"),
    ("enc4_pred6", "mixed_int4"),
]

# the per-run means in correlations.json, success first
RUN_POINT_FIELDS = ("success", "mean_state_distance", "visual_embedding_divergence")


def _out(cfg: ExperimentConfig) -> Path:
    # no mkdir: a stage that fails its prerequisite check leaves no directory,
    # and persist_model creates the parents of what it writes
    return Path(cfg.output_dir)


def _require(path: Path, stage: str):
    if not path.exists():
        raise StageError(f"missing artifact {path}; run the '{stage}' stage first")


def _read_json(path: Path, stage: str, key: str, kind: type) -> dict:
    """The JSON object `stage` wrote to `path`; StageError unless its `key` holds a `kind`."""
    _require(path, stage)
    try:
        return read_json(path, {key: kind})
    except ValidationError as e:
        raise StageError(f"{path} has no JSON {kind.__name__} {key!r}; "
                         f"rerun the '{stage}' stage") from e


def _write_json(path: Path, payload: dict, cfg: ExperimentConfig) -> None:
    payload = {"config_hash": cfg.config_hash(), **payload}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def stage_gen_data(cfg: ExperimentConfig) -> None:
    ds = gen_dataset(
        cfg.dataset.n_traj, cfg.dataset.traj_len, cfg.dataset.seed, cfg.env, cfg.master_seed
    )
    m = dataset_to_model(ds)
    m.extras["config_hash"] = cfg.config_hash()
    persist_model(m, _out(cfg) / "dataset")


def stage_train(cfg: ExperimentConfig) -> None:
    out = _out(cfg)
    _require(out / "dataset" / "manifest.json", "gen-data")
    ds = dataset_from_model(load_model(out / "dataset"), cfg.env)
    wm = train_world_model(ds, cfg.train, master_seed=cfg.master_seed)
    m = wm.to_model()
    m.extras["config_hash"] = cfg.config_hash()
    persist_model(m, out / "model")


def stage_variants(cfg: ExperimentConfig) -> None:
    out = _out(cfg)
    _require(out / "model" / "manifest.json", "train")
    base = WorldModel.from_model(load_model(out / "model"))
    sizes = {}
    for name in cfg.variants:
        size = model_size_bytes(base, policy_for_name(name, base))
        sizes[name] = {"size_bytes": size, "size_mb": size / 2**20}
    _write_json(out / "sizes.json", {"sizes": sizes}, cfg)


def stage_eval(cfg: ExperimentConfig) -> None:
    out = _out(cfg)
    _require(out / "model" / "manifest.json", "train")
    fp_wm = WorldModel.from_model(load_model(out / "model"))
    # one variant model at a time: run_paired_eval keeps only what its rounds read of each
    variants = ((name, apply_policy(fp_wm, policy_for_name(name, fp_wm))) for name in cfg.variants)
    records = run_paired_eval(
        variants,
        fp_wm,
        cfg.budgets,
        cfg.env,
        cfg.cem,
        episodes_per_run=cfg.episodes_per_run,
        master_seed=cfg.master_seed,
    )
    write_episodes_csv(records, out / "episodes.csv")
    protocol = {
        "episodes_per_run": cfg.episodes_per_run,
        "budgets": {name: asdict(b) for name, b in cfg.budgets.items()},
        "variants": cfg.variants,
        "master_seed": cfg.master_seed,
    }
    _write_json(out / "run_meta.json", {"protocol": protocol, "n_records": len(records)}, cfg)


def _mean(recs: list[EpisodeRecord], field: str) -> float:
    return float(np.mean([getattr(r, field) for r in recs]))


def compute_stats(records: list[EpisodeRecord], sizes: dict[str, int],
                  cfg: ExperimentConfig) -> dict:
    """All statistics artifacts as one dict of JSON-ready payloads, with each
    variant's size in bytes from `sizes`; ValidationError unless `records` pair
    up (`paired_cells`)."""
    cells = paired_cells(records)
    budgets = sorted({b for _, b in cells})
    variants = sorted({v for v, _ in cells})
    plan = [pair for pair in COMPARISON_PLAN if set(pair) <= set(variants)]

    comparisons = [
        asdict(compare_records(cells[a, budget], cells[b, budget],
                               rng.stream(cfg.master_seed, "bootstrap", a, b, budget)))
        for budget in budgets
        for a, b in plan
    ]

    matchups = []
    for a, b in (pair for pair in plan if pair in COMPARISON_PLAN[:4]):
        for scope in budgets + [POOLED_SCOPE]:
            # pooling concatenates each variant's cells budget by budget, so they stay paired
            in_scope = budgets if scope == POOLED_SCOPE else [scope]
            pooled = {v: [r for bud in in_scope for r in cells[v, bud]] for v in (a, b)}
            counts = matchup_counts(pooled[a], pooled[b])
            matchups.append({"name_a": a, "name_b": b, "scope": scope, **asdict(counts)})

    bins = [
        {"budget": budget, "variant": variant, "bin": label, "n": n, "mean_success": mean_s}
        for budget in budgets
        for variant in variants
        for label, n, mean_s in difficulty_bins(cells[variant, budget])
    ]

    frontier = []
    for budget in budgets:
        points = [(v, _mean(cells[v, budget], "success"), sizes[v]) for v in variants]
        frontier += [{"budget": budget, **asdict(p)} for p in pareto_frontier(points)]

    run_points = []
    for (variant, budget), cell in cells.items():
        for seed, run in groupby(cell, key=lambda r: r.seed):
            run = list(run)
            run_points.append(
                {"variant": variant, "budget": budget, "seed": seed,
                 **{f: _mean(run, f) for f in RUN_POINT_FIELDS}}
            )
    lists = (comparisons, matchups, bins, frontier, run_points)
    artifacts = {name: {key: entries}
                 for (name, (key, _)), entries in zip(STATS_FILES.items(), lists, strict=True)}
    correlations = artifacts["correlations.json"]
    correlations["n_run_points"] = len(run_points)
    succ = [p["success"] for p in run_points]
    for diag in RUN_POINT_FIELDS[1:]:
        try:
            rho = spearman(succ, [p[diag] for p in run_points])
        except ValidationError:
            rho = None
        correlations[f"spearman_success_vs_{diag}"] = rho
    return artifacts


def stage_stats(cfg: ExperimentConfig) -> None:
    out = _out(cfg)
    _require(out / "episodes.csv", "eval")
    records = read_episodes_csv(out / "episodes.csv")
    entries = _read_json(out / "sizes.json", "variants", "sizes", dict)["sizes"]
    sizes = {}
    for name in sorted({r.variant_name for r in records}):
        if json_fault(entries.get(name), {"size_bytes": int}):
            raise StageError(
                f"the integer size_bytes of variant {name!r} is missing from "
                f"{out / 'sizes.json'}; run the 'variants' stage first"
            )
        sizes[name] = entries[name]["size_bytes"]
    artifacts = compute_stats(records, sizes, cfg)
    for name, payload in artifacts.items():
        _write_json(out / name, payload, cfg)


def stage_report(cfg: ExperimentConfig) -> None:
    out = _out(cfg)
    artifacts = {name: _read_json(out / name, "stats", key, list)
                 for name, (key, _) in STATS_FILES.items()}

    def reject(name: str, fault: str):
        raise StageError(f"{out / name} has {fault}; rerun the 'stats' stage")

    for name, (key, entry_fields) in STATS_FILES.items():
        for entry in artifacts[name][key]:
            for field, kind in entry_fields.items():
                if json_fault(entry, {field: kind}):
                    reject(name, f"a {key!r} entry without the {field!r} the report reads")
    # frontier_svg scales its size axis over the frontier points
    if not artifacts["frontier.json"]["frontier"]:
        reject("frontier.json", "an empty 'frontier' list")
    rho = artifacts["correlations.json"].get(RHO)
    if rho is not None and not json_is(rho, float):
        reject("correlations.json", f"a {RHO!r} that is neither a number nor null")
    emit_report(artifacts, out, cfg.config_hash())


# each stage by name, in the order 'all' runs them
STAGES = {
    "gen-data": stage_gen_data,
    "train": stage_train,
    "variants": stage_variants,
    "eval": stage_eval,
    "stats": stage_stats,
    "report": stage_report,
}


def run_stage(cfg: ExperimentConfig, stage: str) -> None:
    if stage == "all":
        for fn in STAGES.values():
            fn(cfg)
        return
    if stage not in STAGES:
        raise StageError(f"unknown stage {stage!r}; choose from {('all', *STAGES)}")
    STAGES[stage](cfg)
