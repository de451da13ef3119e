"""Budgeted CEM planning over latent rollouts and the paired evaluation loop.

The planner is model-predictive: plan goal_h actions by cross-entropy
optimization of the final-latent distance to the goal latent, execute the
whole plan, replan, up to max_iter rounds.  Episode specs and planner
randomness are keyed only by (seed, episode_id), never by variant, so any
outcome difference between two variants on a paired unit is attributable
to weights alone.

runtime_seconds is a deterministic cost model (counted forward-pass flops
at a nominal 1 GFLOP/s), not wall clock, so output files are byte-stable.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import rng
from .env import EpisodeSpec, WallEnvConfig, render, sample_episode_specs, step
from .errors import PlanningError, ValidationError
from .nn import WorldModel
from .policies import VariantModel

# on-disk column names, one per EpisodeRecord field, in field order
EPISODES_CSV_HEADER = (
    "variant,budget,seed,episode_id,success,initial_goal_distance,steps_executed,"
    "runtime_seconds,mean_state_distance,visual_embedding_divergence,model_size_bytes"
)

NOMINAL_FLOPS_PER_SECOND = 1e9


@dataclass(frozen=True)
class PlannerBudget:
    """One planner budget and the seeds of the runs evaluated under it."""

    goal_h: int
    opt_steps: int
    max_iter: int
    seeds: tuple[int, ...]

    def __post_init__(self):
        if min(self.goal_h, self.opt_steps, self.max_iter) < 1:
            raise ValidationError("budget fields must all be >= 1")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValidationError(f"seeds must be non-empty and distinct, got {list(self.seeds)}")


@dataclass(frozen=True)
class CEMConfig:
    population: int = 64
    elite_fraction: float = 0.25
    init_std: float = 0.0625  # 0.5 * default max_step
    std_floor: float = 1e-3

    def __post_init__(self):
        if self.population < 4:
            raise ValidationError("population must be >= 4")
        if not 0.0 < self.elite_fraction <= 0.5:
            raise ValidationError("elite_fraction must be in (0, 0.5]")


@dataclass
class EpisodeRecord:
    variant_name: str
    budget_name: str
    seed: int
    episode_id: int
    success: int
    initial_goal_distance: float
    steps_executed: int
    runtime_seconds: float
    mean_state_distance: float
    visual_embedding_divergence: float
    model_size_bytes: int


@dataclass
class RunSet:
    records: list[EpisodeRecord]
    metadata: dict = field(default_factory=dict)


def plan_actions(
    wm: WorldModel,
    current_obs: np.ndarray,
    goal_obs: np.ndarray,
    budget: PlannerBudget,
    cem: CEMConfig,
    gen: np.random.Generator,
    max_step: float,
):
    """One CEM plan; returns (actions (goal_h, 2), info dict).

    The incumbent best sequence is re-injected into each population, so the
    best elite cost is non-increasing across iterations.
    """
    z0 = wm.encode(current_obs)
    zg = wm.encode(goal_obs)

    def costs_of(seqs: np.ndarray) -> np.ndarray:
        z = np.repeat(z0[None, :], seqs.shape[0], axis=0)
        for t in range(seqs.shape[1]):
            z = wm.predict_next(z, seqs[:, t, :])
        return np.linalg.norm(z - zg[None, :], axis=1)

    h, pop = budget.goal_h, cem.population
    mean = np.zeros((h, 2))
    std = np.full((h, 2), cem.init_std)
    initial_mean_cost = float(costs_of(mean[None])[0])
    n_predicts = h  # the initial-mean evaluation above
    n_elite = max(1, int(round(cem.elite_fraction * pop)))
    best_seq, best_cost = None, np.inf
    elite_costs = []

    for _ in range(budget.opt_steps):
        seqs = np.clip(gen.standard_normal((pop, h, 2)) * std + mean, -max_step, max_step)
        if best_seq is not None:
            seqs[0] = best_seq
        c = costs_of(seqs)
        n_predicts += pop * h
        if not np.all(np.isfinite(c)):
            raise PlanningError("non-finite plan cost")
        order = np.argsort(c, kind="stable")[:n_elite]
        elites = seqs[order]
        mean = elites.mean(axis=0)
        std = np.maximum(elites.std(axis=0), cem.std_floor)
        elite_costs.append(float(c[order[0]]))
        if c[order[0]] < best_cost:
            best_cost = float(c[order[0]])
            best_seq = seqs[order[0]].copy()

    plan = np.clip(mean, -max_step, max_step)
    final_mean_cost = float(costs_of(plan[None])[0])
    n_predicts += h
    info = {
        "elite_costs": elite_costs,
        "initial_mean_cost": initial_mean_cost,
        "final_mean_cost": final_mean_cost,
        "n_encodes": 2,
        "n_predicts": n_predicts,
    }
    return plan, info


def run_episode(
    variant: VariantModel,
    fp_wm: WorldModel,
    spec: EpisodeSpec,
    budget: PlannerBudget,
    budget_name: str,
    cem: CEMConfig,
    env_cfg: WallEnvConfig,
    master_seed: int = 0,
) -> EpisodeRecord:
    """Execute one goal-conditioned episode under the MPC loop."""
    wm = variant.wm
    gen = rng.stream(master_seed, "plan", spec.seed, spec.episode_id)
    state = np.array(spec.start, dtype=np.float64)
    goal = np.array(spec.goal, dtype=np.float64)
    goal_obs = render(goal, env_cfg)
    tau = env_cfg.success_radius

    success = 1 if np.linalg.norm(state - goal) <= tau else 0
    steps = 0
    state_dists: list[float] = []
    embed_divs: list[float] = []
    n_enc, n_pred = 0, 0
    failed = False

    if not success:
        for _ in range(budget.max_iter):
            obs = render(state, env_cfg)
            try:
                plan, info = plan_actions(wm, obs, goal_obs, budget, cem, gen, env_cfg.max_step)
            except PlanningError:
                failed = True
                break
            n_enc += info["n_encodes"]
            n_pred += info["n_predicts"]
            z_var = wm.encode(obs)
            n_enc += 1
            for a in plan:
                state = step(state, a, env_cfg)
                steps += 1
                z_var = wm.predict_next(z_var, a)
                n_pred += 1
                obs_t = render(state, env_cfg)
                pos_hat = fp_wm.probe_decode(z_var)
                state_dists.append(float(np.linalg.norm(pos_hat - state)))
                embed_divs.append(
                    float(np.linalg.norm(wm.encode(obs_t) - fp_wm.encode(obs_t)))
                )
                n_enc += 2
                if np.linalg.norm(state - goal) <= tau:
                    success = 1
                    break
            if success or failed:
                break

    flops = (
        n_enc * wm.flops_per_encode()
        + n_pred * wm.flops_per_predict()
        + len(state_dists) * fp_wm.probe.flops()
    )
    return EpisodeRecord(
        variant_name=variant.variant_name,
        budget_name=budget_name,
        seed=spec.seed,
        episode_id=spec.episode_id,
        success=success,
        initial_goal_distance=spec.initial_goal_distance,
        steps_executed=steps,
        runtime_seconds=flops / NOMINAL_FLOPS_PER_SECOND,
        mean_state_distance=float(np.mean(state_dists)) if state_dists else 0.0,
        visual_embedding_divergence=float(np.mean(embed_divs)) if embed_divs else 0.0,
        model_size_bytes=variant.size_bytes,
    )


def run_paired_eval(
    variants: list[VariantModel],
    fp_wm: WorldModel,
    budgets: dict[str, PlannerBudget],
    env_cfg: WallEnvConfig,
    cem: CEMConfig,
    episodes_per_run: int = 10,
    master_seed: int = 0,
) -> RunSet:
    """Evaluate every variant on the identical paired episode specs."""
    if not variants:
        raise ValidationError("no variants to evaluate")
    names = [v.variant_name for v in variants]
    if len(set(names)) != len(names):
        raise ValidationError(f"duplicate variant names in {names}")

    records = []
    for budget_name in sorted(budgets):
        budget = budgets[budget_name]
        for seed in budget.seeds:
            specs = sample_episode_specs(seed, episodes_per_run, env_cfg, master_seed)
            for v in variants:
                for spec in specs:
                    records.append(
                        run_episode(
                            v, fp_wm, spec, budget, budget_name, cem, env_cfg, master_seed
                        )
                    )
    records.sort(key=lambda r: (r.variant_name, r.budget_name, r.seed, r.episode_id))
    metadata = {
        "episodes_per_run": episodes_per_run,
        "budgets": {name: asdict(b) for name, b in budgets.items()},
        "variants": names,
        "master_seed": master_seed,
    }
    return RunSet(records=records, metadata=metadata)


def episodes_to_csv(records: list[EpisodeRecord]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(EPISODES_CSV_HEADER.split(","))
    # columns in EpisodeRecord field order; csv writes a float as its repr
    writer.writerows(vars(r).values() for r in records)
    return buf.getvalue()


def write_episodes_csv(records: list[EpisodeRecord], path: str | Path) -> None:
    Path(path).write_text(episodes_to_csv(records))


def read_episodes_csv(path: str | Path) -> list[EpisodeRecord]:
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines or lines[0] != EPISODES_CSV_HEADER:
        raise ValidationError(f"unexpected episodes.csv header in {path}")
    parsers = [{"str": str, "int": int, "float": float}[f.type] for f in fields(EpisodeRecord)]
    records = []
    for lineno, row in enumerate(csv.reader(lines[1:]), start=2):
        if len(row) != len(parsers):
            raise ValidationError(
                f"{path} line {lineno}: expected {len(parsers)} columns, got {len(row)}"
            )
        try:
            records.append(EpisodeRecord(*[parse(v) for parse, v in zip(parsers, row)]))
        except ValueError as e:
            raise ValidationError(f"{path} line {lineno}: {e}") from e
    return records
