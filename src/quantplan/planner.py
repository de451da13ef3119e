"""Budgeted CEM planning over latent rollouts and the paired evaluation loop.

The planner is model-predictive: plan goal_h actions by cross-entropy
optimization of the final-latent distance to the goal latent, execute the
whole plan, replan, up to max_iter rounds.  Episode specs and planner
randomness are keyed only by (seed, episode_id), never by variant, so any
outcome difference between two variants on a paired unit is attributable
to weights alone.

Each budget is played round-major.  `plan_noise` opens each episode spec's
"plan" stream once per budget and, for each planning round, fills one float64
buffer of shape (n_specs, opt_steps, pop, goal_h, 2) with that round's draws
(2.2 MB for the 60 specs of bB at 2 seeds x 30 episodes).  Every variant plays
the round from that same buffer before the next round is drawn, so pairing
holds by construction and the eval never holds more than one round of noise.
Row i of round r is draws r * opt_steps ... (r + 1) * opt_steps - 1 of
specs[i]'s stream, the same draws as if the episode's noise came at once.

Every variant plays all episodes of a budget, every seed's, in lockstep, and
keeps its state from round to round: every (variant, episode) pair is one row,
and it stops playing when it reaches the goal or its plan fails.  A round has
two phases.  Every variant plans apart, on its own rows with its own predictor;
then every variant's plans execute together, in one goal_h-step loop over all
the planned rows, so env.step runs at most goal_h times a round however many
variants there are.  Two rules keep each record bit-equal to playing that
episode alone, whatever other episodes or variants share a plan or a step:

1. Every per-episode matmul keeps one episode's operand as its last two dims,
   e.g. a single latent as an (n, 1, k) slice and a CEM population as
   (n, pop, 18).  numpy makes one BLAS call per slice, so a slice's result
   does not depend on n; one flat (n, k) product would.
2. Per-row vector norms go through one BLAS dot per row (`_norm`), as the
   1-D `np.linalg.norm` does; `norm(..., axis=-1)` rounds differently.

So adding or removing a variant never changes another's records: its plan
reads only its own rows (rule 1), and the shared step loop is per row, as
env.step and env.pixel are elementwise, its norms are rule 2's and the
positions it reads come from a per-variant probe decode under rule 1.
Rollouts are not stacked across variants: each variant has its own predictor.

A CEM rollout runs the predictor's `Stack.forward` on its layer blocks
[W.T; b], C-contiguous copies of the variant model's blocks in `theta` (the same
NN-gemm operands, so the same bits): each layer's input ends in a column of ones,
so the bias is folded into the matmul.  The rollout's
one (n, m, latent + 2 + 1) buffer holds [latent | actions | 1]: each step casts
its actions into the action columns, each hidden layer writes into an
(n, m, hidden + 1) workspace whose ones column is reset after its tanh, and the
last layer writes the next latent into the buffer's first columns.  So a step
of the 2-layer predictor is two matmuls and one tanh, bit-equal to the unfolded
fl(fl(x @ W.T) + b) per layer, NaN for NaN (see `nn`; a test pins it).
`plan_actions` also returns the per-step latents of the rollout that scores its
final plan: they are the same (n, 1, 18) slices of the same inputs as a
`predict_next` chain over the executed plan.  The fp model's state probe
decodes them once per plan, one (1, latent) slice per step as rule 1 asks, and
each executed step reads its row.

An observation is the fixed wall background plus the agent's pixel, so a
model's encoder has only image_side**2 distinct inputs.  The eval reads a
variant only as an `EvalVariant`, which `prepare_variants` makes once per eval,
before the first round, from each (name, WorldModel) pair: its latent table, one
2-D encode of the ones-augmented float32 observation table
`env.observations(cfg, ones=True)` as training's full-dataset loss and probe fit
encode it; its divergence table, row p the `_norm` of its latent row p minus the
fp model's; and its predictor on copies of the model's blocks.  It keeps no
reference to the model, so `run_paired_eval` can take the pairs from a generator
that builds one model at a time and no whole variant model is alive while the
rounds plan.  Every encode of the eval is then a row lookup by `env.pixel`.  The
tables belong to a model, not to an episode, so rule 1 does not apply to them:
every record reads the same rows whatever shares its round.  The divergence
tables are stacked into one (variants, pixels) array, so a step reads
divs[vi, pixel(s)].  The fp model is read as its probe: the step loop calls no
model.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import rng
# render is unused here, but perfbench/test_perfbench.py checks that the tracer
# rebinds this import site
from .env import (  # noqa: F401
    EpisodeSpec,
    WallEnvConfig,
    observations,
    pixel,
    render,
    sample_episode_specs,
    step,
)
from .errors import ValidationError
from .nn import Stack, WorldModel
from .store import csv_text, read_text, write_csv

# on-disk column names, one per EpisodeRecord field, in field order
EPISODES_CSV_HEADER = (
    "variant,budget,seed,episode_id,success,initial_goal_distance,steps_executed,"
    "plan_rounds,mean_state_distance,visual_embedding_divergence"
)


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
        if not self.init_std > 0.0:
            raise ValidationError(f"init_std must be > 0, got {self.init_std}")
        if not self.std_floor >= 0.0:
            raise ValidationError(f"std_floor must be >= 0, got {self.std_floor}")


@dataclass
class EpisodeRecord:
    variant_name: str
    budget_name: str
    seed: int
    episode_id: int
    success: int
    initial_goal_distance: float
    steps_executed: int
    plan_rounds: int  # ceil(steps_executed / goal_h): the plans it ran that did not fail
    mean_state_distance: float
    visual_embedding_divergence: float


def _norm(d: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of `d` (m, k), one BLAS dot per row.

    Bit-equal to `np.linalg.norm` of that row alone, which `norm(d, axis=-1)`
    is not.
    """
    return np.sqrt((d[:, None, :] @ d[:, :, None])[:, 0, 0])


def plan_noise(
    specs: list[EpisodeSpec], budget: PlannerBudget, cem: CEMConfig, master_seed: int = 0
) -> Iterator[np.ndarray]:
    """The CEM noise of the episodes `specs`, one planning round at a time.

    Opens each spec's "plan" stream once, then yields max_iter times one float64
    buffer of shape (n, opt_steps, pop, goal_h, 2), refilled in place: in round r,
    [i, k] holds the (r * opt_steps + k)-th standard normal (pop, goal_h, 2) draw
    of specs[i]'s stream."""
    streams = [rng.stream(master_seed, "plan", s.seed, s.episode_id) for s in specs]
    noise = np.empty((len(specs), budget.opt_steps, cem.population, budget.goal_h, 2))
    for _ in range(budget.max_iter):
        for g, row in zip(streams, noise):
            g.standard_normal(out=row)
        yield noise


def plan_actions(
    predictor: Stack,
    z0: np.ndarray,
    zg: np.ndarray,
    cem: CEMConfig,
    noise: np.ndarray,
    live: np.ndarray,
    max_step: float,
):
    """One CEM plan per row of the current and goal latents `z0`/`zg` (n, latent),
    rows of a variant's latent table in its `predictor`'s dtype, rolled out on
    the predictor's layer blocks.  Row j's opt step k draws noise[live[j], k] of
    the round's noise block `noise` (N, opt_steps, pop, goal_h, 2), whose shape
    gives the plan's opt steps, population and horizon.  Returns
    (plans (n, goal_h, 2), latents (n, goal_h, latent), info): latents[:, t] is
    the predicted latent after a plan's first t + 1 actions, the rollout that
    scored it, bit-equal to a `predict_next` chain from z0.

    info holds per-row arrays `elite_costs` (n, opt_steps),
    `initial_mean_cost`, `final_mean_cost` and `failed`.  A row whose
    population costs turn non-finite fails but stays in the batch, where no
    other row reads it; its plan, final cost and elite costs from that step on
    read NaN, and its latents are not to be read.  From opt step 1 on, the last
    step's top elite is re-injected into slot 0 of the population, recosted from
    the same inputs: it is the best sequence so far, as a step's top elite is
    never worse and the stable sort keeps slot 0 on a tie.  So a row's best
    elite cost is non-increasing across iterations.
    """
    n, dim = z0.shape

    def costs_of(seqs: np.ndarray, path: np.ndarray | None = None) -> np.ndarray:
        # seqs (n, m, h, 2) -> final-latent costs (n, m).  One (n, m, latent + 2 + 1)
        # buffer [latent | actions | 1] is the predictor's input at every step, and
        # its hidden workspaces live for this call.  path (n, h, latent) gets each
        # step's latent of m = 1.
        lead = seqs.shape[:2]
        buf = np.empty((*lead, dim + seqs.shape[-1] + 1), z0.dtype)
        buf[..., -1] = 1
        hidden = predictor.workspaces(lead)
        z, act = buf[..., :dim], buf[..., dim:-1]
        z[...] = z0[:, None]
        for t in range(seqs.shape[2]):
            act[...] = seqs[:, :, t]
            predictor.forward(buf, hidden, out=z)
            if path is not None:
                path[:, t] = z[:, 0]
        del hidden  # freed before the norm's temporaries: they set the eval's peak memory
        return np.linalg.norm(z - zg[:, None, :], axis=-1)

    _, opt_steps, pop, h, _ = noise.shape
    mean = np.zeros((n, h, 2))
    std = np.full((n, h, 2), cem.init_std)
    initial_mean_cost = costs_of(mean[:, None])[:, 0]
    n_elite = max(1, int(round(cem.elite_fraction * pop)))
    elite_costs = np.full((n, opt_steps), np.nan)
    failed = np.zeros(n, dtype=bool)
    rows = np.arange(n)[:, None]

    for k in range(opt_steps):
        seqs = noise[live, k]
        seqs *= std[:, None]
        seqs += mean[:, None]
        np.clip(seqs, -max_step, max_step, out=seqs)
        if k:
            seqs[:, 0] = elites[:, 0]
        c = costs_of(seqs)
        failed |= ~np.all(np.isfinite(c), axis=1)
        order = np.argsort(c, axis=1, kind="stable")[:, :n_elite]
        elites = seqs[rows, order]
        mean = elites.mean(axis=1)
        std = np.maximum(elites.std(axis=1), cem.std_floor)
        top = c[rows[:, 0], order[:, 0]]
        elite_costs[~failed, k] = top[~failed]

    plans = np.clip(mean, -max_step, max_step)
    latents = np.empty((n, h, dim), z0.dtype)
    final_mean_cost = costs_of(plans[:, None], latents)[:, 0]
    plans[failed] = np.nan
    final_mean_cost[failed] = np.nan
    info = {
        "elite_costs": elite_costs,
        "initial_mean_cost": initial_mean_cost,
        "final_mean_cost": final_mean_cost,
        "failed": failed,
    }
    return plans, latents, info


@dataclass(frozen=True)
class EvalVariant:
    """A variant as the eval's rounds read it: its name, its latent table (one 2-D
    encode of `env.observations(cfg, ones=True)`), its divergence table (row p is
    `_norm` of latent row p minus the fp model's) and its predictor, a `Stack` on
    C-contiguous copies of the model's layer blocks, so it holds none of `theta`."""

    name: str
    table: np.ndarray
    divergence: np.ndarray
    predictor: Stack


def prepare_variants(
    variants: Iterable[tuple[str, WorldModel]], fp_wm: WorldModel, env_cfg: WallEnvConfig
) -> list[EvalVariant]:
    """Each (name, model) pair of `variants`, read once and in order, as an `EvalVariant`
    whose divergence table is against `fp_wm`; no model is referenced once it returns.

    ValidationError, before any episode is played, if `variants` yields no pair, an
    item that is not a (str, WorldModel) pair (a dict passed as is yields bare names)
    or a name already given."""
    obs = observations(env_cfg, ones=True)
    fp_table = fp_wm.encode(obs)
    out, names = [], set()
    for item in variants:
        if not (type(item) is tuple and len(item) == 2 and isinstance(item[0], str)
                and isinstance(item[1], WorldModel)):
            raise ValidationError(f"a variant must be a (name, WorldModel) pair, got {item!r:.80}")
        name, wm = item
        if name in names:
            raise ValidationError(f"variant {name!r} is given twice")
        names.add(name)
        table = wm.encode(obs)
        out.append(EvalVariant(name, table, _norm(table - fp_table),
                               Stack([A.copy() for A in wm.predictor.blocks])))
    if not out:
        raise ValidationError("no variants to evaluate")
    return out


def run_episodes(
    variants: list[EvalVariant],
    fp_wm: WorldModel,
    specs: list[EpisodeSpec],
    budget: PlannerBudget,
    budget_name: str,
    cem: CEMConfig,
    env_cfg: WallEnvConfig,
    master_seed: int = 0,
) -> list[EpisodeRecord]:
    """Play the goal-conditioned episodes `specs` under the MPC loop with every
    variant of `variants` (see `prepare_variants`); one record per variant and
    spec, variant by variant in spec order.  The rounds read a variant only as its
    latent table, its divergence table and its predictor, and fp_wm as its probe.

    Row [v, i] of every array belongs to variant v's episode of specs[i], and
    playing[v, i] says whether it still plays: it stops on reaching the goal or
    on a planning failure and never starts again.  Rounds are the outer loop:
    round r's noise is drawn once by `plan_noise(specs, budget, cem,
    master_seed)`.  In round r every variant v plans its playing rows from that
    noise, then the plans that did not fail execute together, one step loop over
    the planned rows (vi, li) of every variant, each row leaving the loop when
    it reaches the goal.  No row's arithmetic reads another's, so a record does
    not depend on which other specs or variants share the call.
    """
    n, h = len(specs), budget.goal_h
    start = np.array([s.start for s in specs], dtype=np.float64)
    goal = np.array([s.goal for s in specs], dtype=np.float64)
    goal_px = pixel(goal, env_cfg)
    tau = env_cfg.success_radius

    shape = (len(variants), n)
    state = np.broadcast_to(start, (*shape, 2)).copy()
    playing = np.broadcast_to(_norm(start - goal) > tau, shape).copy()  # until goal or failure
    steps = np.zeros(shape, dtype=np.int64)
    # per variant and spec, each executed step's state distance [0] and embedding divergence [1]
    dists = np.zeros((2, *shape, budget.max_iter * h))
    state_dist, embed_div = dists
    divs = np.stack([v.divergence for v in variants])  # (variants, pixels)
    # each row's plan of the round and the fp probe's positions of its latents, written in
    # place: per-variant arrays kept for the step loop grow the heap under the next plan
    plans = np.empty((*shape, h, 2))
    pos = np.empty((*shape, h, 2), fp_wm.theta.dtype)

    for noise in plan_noise(specs, budget, cem, master_seed):
        # plan: each variant on its own rows, with its own predictor
        for v, variant in enumerate(variants):
            live = np.flatnonzero(playing[v])
            if not live.size:
                continue
            table = variant.table
            z_now = table[pixel(state[v, live], env_cfg)]
            plan, z_plan, info = plan_actions(variant.predictor, z_now, table[goal_px[live]], cem,
                                              noise, live, env_cfg.max_step)
            plans[v, live] = plan
            ok = ~info["failed"]
            playing[v, live[~ok]] = False
            pos[v, live[ok]] = fp_wm.probe_decode(z_plan[ok, :, None])[:, :, 0]
        # execute: every variant's planned rows (vi, li) step together
        vi, li = np.nonzero(playing)
        for t in range(h):
            if not vi.size:
                break
            s = step(state[vi, li], plans[vi, li, t], env_cfg)
            state[vi, li] = s
            k = steps[vi, li]
            steps[vi, li] += 1
            state_dist[vi, li, k] = _norm(pos[vi, li, t] - s)
            embed_div[vi, li, k] = divs[vi, pixel(s, env_cfg)]
            done = _norm(s - goal[li]) <= tau
            playing[vi[done], li[done]] = False
            vi, li = vi[~done], li[~done]
        if not playing.any():
            break

    # each record's two means, one mean(axis=-1) per step count k > 0: the gathered
    # (2, m, k) block holds each row contiguously, so a row sums pairwise as the 1-D
    # slice dists[j, v, i, :k] does.  A record with no step reads 0.  (Not np.unique:
    # its first call leaves about 0.5 MB on the heap, which lifts the eval's peak RSS.)
    means = np.zeros((2, *shape))
    for k in range(1, steps.max() + 1):
        vs, ids = np.nonzero(steps == k)
        means[:, vs, ids] = dists[:, vs, ids, :k].mean(axis=-1)
    # each row's success is the step loop's goal check on its final state, and it ran
    # whole plans but its last: ceil(steps / goal_h) of them
    success = (_norm((state - goal).reshape(-1, 2)) <= tau).reshape(shape)
    n_plans = -(-steps // h)

    records = []
    for v, variant in enumerate(variants):
        for i, spec in enumerate(specs):
            records.append(EpisodeRecord(
                variant_name=variant.name,
                budget_name=budget_name,
                seed=spec.seed,
                episode_id=spec.episode_id,
                success=int(success[v, i]),
                initial_goal_distance=spec.initial_goal_distance,
                steps_executed=int(steps[v, i]),
                plan_rounds=int(n_plans[v, i]),
                mean_state_distance=float(means[0, v, i]),
                visual_embedding_divergence=float(means[1, v, i]),
            ))
    return records


def run_episode(
    name: str,
    wm: WorldModel,
    fp_wm: WorldModel,
    spec: EpisodeSpec,
    budget: PlannerBudget,
    budget_name: str,
    cem: CEMConfig,
    env_cfg: WallEnvConfig,
    master_seed: int = 0,
) -> EpisodeRecord:
    """One episode: `run_episodes` on the single variant `name` and spec `spec`."""
    return run_episodes(prepare_variants([(name, wm)], fp_wm, env_cfg), fp_wm, [spec], budget,
                        budget_name, cem, env_cfg, master_seed)[0]


def run_paired_eval(
    variants: Iterable[tuple[str, WorldModel]],
    fp_wm: WorldModel,
    budgets: dict[str, PlannerBudget],
    env_cfg: WallEnvConfig,
    cem: CEMConfig,
    episodes_per_run: int = 10,
    master_seed: int = 0,
) -> list[EpisodeRecord]:
    """Evaluate every variant, a (name, model) pair of `variants` (e.g. `dict.items()`
    or a generator), on the identical paired episode specs and planner noise; the
    records sorted by (variant, budget, seed, episode_id).  The pairs are read once,
    into `prepare_variants`' form, before the first round, so a generator that
    builds one model at a time leaves none alive while the rounds plan.  Each budget
    is one `run_episodes` call over the specs of all its seeds."""
    variants = prepare_variants(variants, fp_wm, env_cfg)

    records = []
    for budget_name in sorted(budgets):
        budget = budgets[budget_name]
        specs = [spec for seed in budget.seeds
                 for spec in sample_episode_specs(seed, episodes_per_run, env_cfg, master_seed)]
        records += run_episodes(variants, fp_wm, specs, budget, budget_name, cem, env_cfg,
                                master_seed)
    records.sort(key=lambda r: (r.variant_name, r.budget_name, r.seed, r.episode_id))
    return records


def _csv_rows(records: list[EpisodeRecord]) -> Iterator:
    """episodes.csv's header row, then each record's columns in EpisodeRecord field
    order, made one at a time; csv writes a float as its repr.  (Not vars(r): it
    gives each record a __dict__ that outlives the write, 72 B a record.)"""
    yield EPISODES_CSV_HEADER.split(",")
    yield from map(attrgetter(*(f.name for f in fields(EpisodeRecord))), records)


def episodes_to_csv(records: list[EpisodeRecord]) -> str:
    return csv_text(_csv_rows(records))


def write_episodes_csv(records: list[EpisodeRecord], path: str | Path) -> None:
    """episodes.csv, the bytes of `episodes_to_csv`, written row by row: it holds no
    copy of the text."""
    write_csv(path, _csv_rows(records))


def read_episodes_csv(path: str | Path) -> list[EpisodeRecord]:
    header, _, body = read_text(path).partition("\n")
    if header != EPISODES_CSV_HEADER:
        raise ValidationError(f"unexpected episodes.csv header in {path}")
    parsers = [{"str": str, "int": int, "float": float}[f.type] for f in fields(EpisodeRecord)]
    floats = [f.name for f in fields(EpisodeRecord) if f.type == "float"]
    records = []
    # a budget name holds no line break, but it may hold the commas and quotes csv escapes
    rows = csv.reader(io.StringIO(body, newline=""))
    try:
        for row in rows:
            if len(row) != len(parsers):
                raise ValueError(f"expected {len(parsers)} columns, got {len(row)}")
            record = EpisodeRecord(*[parse(v) for parse, v in zip(parsers, row)])
            if record.success not in (0, 1):
                raise ValueError(f"success must be 0 or 1, got {record.success}")
            for name in ("steps_executed", "plan_rounds"):
                if getattr(record, name) < 0:
                    raise ValueError(f"{name} must be >= 0, got {getattr(record, name)}")
            for name in floats:
                value = getattr(record, name)
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
            records.append(record)
    except (ValueError, csv.Error) as e:  # csv.Error: e.g. a field over csv.field_size_limit()
        # line_num counts the lines after the header the reader has consumed
        raise ValidationError(f"{path} line {rows.line_num + 1}: {e}") from e
    return records
