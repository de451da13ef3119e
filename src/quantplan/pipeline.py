"""Pipeline stages wiring the study end to end.

Artifacts land under config.output_dir:

    dataset/            training transitions (manifest + blob)
    model/              trained full-precision world model
    variants/<name>/    fake-quantized variant models
    sizes.json          per-variant size accounting
    episodes.csv        paired evaluation results
    comparisons.json, matchups.json, bins.json, frontier.json,
    correlations.json   statistics
    main_table.csv + *.svg   report
    run_meta.json       config hash covering the CSV/SVG artifacts

Each stage checks for the artifacts of its prerequisite stage and raises
StageError naming the stage to run first.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import rng
from .config import ExperimentConfig
from .env import dataset_from_model, dataset_to_model, gen_dataset
from .errors import StageError, ValidationError
from .nn import WorldModel, fit_state_probe, train_world_model
from .planner import (
    EpisodeRecord,
    RunSet,
    read_episodes_csv,
    run_paired_eval,
    write_episodes_csv,
)
from .policies import VariantModel, apply_policy, policy_for_name
from .stats import (
    compare_records,
    difficulty_bins,
    matchup_counts,
    pareto_frontier,
    spearman,
)
from .store import load_model, persist_model

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

# each statistics file and the list it must hold
STATS_FILES = {
    "comparisons.json": "comparisons",
    "matchups.json": "matchups",
    "bins.json": "bins",
    "frontier.json": "frontier",
    "correlations.json": "run_points",
}


def _out(cfg: ExperimentConfig) -> Path:
    p = Path(cfg.output_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _require(path: Path, stage: str):
    if not path.exists():
        raise StageError(f"missing artifact {path}; run the '{stage}' stage first")


def _read_json(path: Path, stage: str, key: str, kind: type) -> dict:
    """The JSON object `stage` wrote to `path`; StageError unless its `key` holds a `kind`."""
    _require(path, stage)
    try:
        payload = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError):
        payload = None
    if not isinstance(payload, dict) or not isinstance(payload.get(key), kind):
        raise StageError(f"{path} has no JSON {kind.__name__} {key!r}; rerun the '{stage}' stage")
    return payload


def _write_json(path: Path, payload: dict, cfg: ExperimentConfig) -> None:
    payload = {"config_hash": cfg.config_hash(), **payload}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


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
    fit_state_probe(wm, ds)
    m = wm.to_model()
    m.extras["config_hash"] = cfg.config_hash()
    persist_model(m, out / "model")


def stage_variants(cfg: ExperimentConfig) -> None:
    out = _out(cfg)
    _require(out / "model" / "manifest.json", "train")
    base = WorldModel.from_model(load_model(out / "model"))
    sizes = {}
    for name in cfg.variants:
        v = apply_policy(base, policy_for_name(name), name)
        persist_model(v.wm.to_model(), out / "variants" / name)
        sizes[name] = {"size_bytes": v.size_bytes, "size_mb": v.size_bytes / 2**20}
    _write_json(out / "sizes.json", {"sizes": sizes}, cfg)


def stage_eval(cfg: ExperimentConfig) -> RunSet:
    out = _out(cfg)
    _require(out / "model" / "manifest.json", "train")
    sizes = _read_json(out / "sizes.json", "variants", "sizes", dict)["sizes"]
    fp_wm = WorldModel.from_model(load_model(out / "model"))
    variants = []
    for name in cfg.variants:
        _require(out / "variants" / name / "manifest.json", "variants")
        entry = sizes.get(name)
        if not isinstance(entry, dict) or type(entry.get("size_bytes")) is not int:
            raise StageError(
                f"the integer size_bytes of variant {name!r} is missing from "
                f"{out / 'sizes.json'}; run the 'variants' stage first"
            )
        wm = WorldModel.from_model(load_model(out / "variants" / name))
        variants.append(VariantModel(name, wm, entry["size_bytes"]))
    run_set = run_paired_eval(
        variants,
        fp_wm,
        cfg.budgets,
        cfg.env,
        cfg.cem,
        episodes_per_run=cfg.episodes_per_run,
        master_seed=cfg.master_seed,
    )
    write_episodes_csv(run_set.records, out / "episodes.csv")
    _write_json(
        out / "run_meta.json",
        {"protocol": run_set.metadata, "n_records": len(run_set.records)},
        cfg,
    )
    return run_set


def _by_variant_budget(records: list[EpisodeRecord]):
    out: dict[tuple[str, str], list[EpisodeRecord]] = {}
    for r in records:
        out.setdefault((r.variant_name, r.budget_name), []).append(r)
    return out


def compute_stats(records: list[EpisodeRecord], cfg: ExperimentConfig) -> dict:
    """All statistics artifacts as one dict of JSON-ready payloads."""
    groups = _by_variant_budget(records)
    budgets = sorted({r.budget_name for r in records})
    variants = sorted({r.variant_name for r in records})

    comparisons = []
    for budget in budgets:
        for name_a, name_b in COMPARISON_PLAN:
            if (name_a, budget) in groups and (name_b, budget) in groups:
                gen = rng.stream(cfg.master_seed, "bootstrap", name_a, name_b, budget)
                comparisons.append(
                    asdict(
                        compare_records(
                            groups[(name_a, budget)],
                            groups[(name_b, budget)],
                            name_a,
                            name_b,
                            budget,
                            gen=gen,
                        )
                    )
                )

    matchups = []
    for name_a, name_b in COMPARISON_PLAN[:4]:
        per_budget = []
        for budget in budgets:
            if (name_a, budget) not in groups or (name_b, budget) not in groups:
                continue
            counts = matchup_counts(groups[(name_a, budget)], groups[(name_b, budget)])
            per_budget.append(
                {"name_a": name_a, "name_b": name_b, "scope": budget, **asdict(counts)}
            )
        matchups.extend(per_budget)
        if per_budget:
            matchups.append(
                {
                    "name_a": name_a,
                    "name_b": name_b,
                    "scope": "pooled",
                    **{
                        k: sum(m[k] for m in per_budget)
                        for k in ("a_only_wins", "b_only_wins", "both_win", "both_fail")
                    },
                }
            )

    bins = []
    for budget in budgets:
        n_units = len({(r.seed, r.episode_id) for r in records if r.budget_name == budget})
        n_bins = 3 if n_units >= 30 else 2
        for variant in variants:
            if (variant, budget) not in groups:
                continue
            for label, n, mean_s in difficulty_bins(records, budget, variant, n_bins):
                bins.append(
                    {"budget": budget, "variant": variant, "bin": label,
                     "n": n, "mean_success": mean_s}
                )

    frontier = []
    for budget in budgets:
        points = []
        for variant in variants:
            recs = groups.get((variant, budget))
            if recs:
                points.append(
                    (variant, float(np.mean([r.success for r in recs])),
                     recs[0].model_size_bytes)
                )
        for p in pareto_frontier(points):
            frontier.append({"budget": budget, **asdict(p)})

    run_points = []
    for (variant, budget), recs in sorted(groups.items()):
        for seed in sorted({r.seed for r in recs}):
            sr = [r for r in recs if r.seed == seed]
            run_points.append(
                {
                    "variant": variant,
                    "budget": budget,
                    "seed": seed,
                    "success": float(np.mean([r.success for r in sr])),
                    "mean_state_distance": float(np.mean([r.mean_state_distance for r in sr])),
                    "visual_embedding_divergence": float(
                        np.mean([r.visual_embedding_divergence for r in sr])
                    ),
                }
            )
    correlations = {"n_run_points": len(run_points), "run_points": run_points}
    succ = [p["success"] for p in run_points]
    for diag in ("mean_state_distance", "visual_embedding_divergence"):
        try:
            correlations[f"spearman_success_vs_{diag}"] = spearman(
                succ, [p[diag] for p in run_points]
            )
        except ValidationError:
            correlations[f"spearman_success_vs_{diag}"] = None

    return {
        "comparisons.json": {"comparisons": comparisons},
        "matchups.json": {"matchups": matchups},
        "bins.json": {"bins": bins},
        "frontier.json": {"frontier": frontier},
        "correlations.json": correlations,
    }


def stage_stats(cfg: ExperimentConfig) -> dict:
    out = _out(cfg)
    _require(out / "episodes.csv", "eval")
    records = read_episodes_csv(out / "episodes.csv")
    artifacts = compute_stats(records, cfg)
    for name, payload in artifacts.items():
        _write_json(out / name, payload, cfg)
    return artifacts


def stage_report(cfg: ExperimentConfig) -> None:
    from .report import emit_report

    out = _out(cfg)
    artifacts = {
        name: _read_json(out / name, "stats", key, list) for name, key in STATS_FILES.items()
    }
    emit_report(artifacts, out, cfg)


STAGES = ("gen-data", "train", "variants", "eval", "stats", "report")


def run_stage(cfg: ExperimentConfig, stage: str) -> None:
    fns = {
        "gen-data": stage_gen_data,
        "train": stage_train,
        "variants": stage_variants,
        "eval": stage_eval,
        "stats": stage_stats,
        "report": stage_report,
    }
    if stage == "all":
        for s in STAGES:
            fns[s](cfg)
        return
    if stage not in fns:
        raise StageError(f"unknown stage {stage!r}; choose from {('all',) + STAGES}")
    fns[stage](cfg)
