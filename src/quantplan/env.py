"""Toy wall-navigation environment.

A point agent lives in the unit square.  A vertical wall at x = wall_x
blocks movement except through a gap; start and goal of every episode are
on opposite sides of the wall, so success requires planning through the
gap.  Observations are small grayscale images: the fixed wall background
with the agent's pixel lit, so there are only image_side**2 of them
(`observations`).  Everything is a pure function of its inputs; all
randomness flows through explicit streams.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import rng
from .errors import ValidationError
from .store import Model, TensorRecord

WALL_EPS = 1e-3
# `observations` holds image_side**4 float32 values, which train and eval allocate, and
# dataset/ stores pixels as float32, exact only below 2**24; at 128 the table is 1 GiB
# and every pixel index is exact
MAX_IMAGE_SIDE = 128
# no array a config sizes may pass that table: one too large to allocate would fail only
# in the stage that allocates it, after earlier stages have written files
MAX_ARRAY_BYTES = 4 * MAX_IMAGE_SIDE**4


@dataclass(frozen=True)
class WallEnvConfig:
    wall_x: float = 0.5
    gap_center: float = 0.5
    gap_half_width: float = 0.1
    max_step: float = 0.125
    image_side: int = 16
    success_radius: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.wall_x < 1.0:
            raise ValidationError("wall_x must be in (0, 1)")
        if self.image_side < 1 or self.gap_half_width < 0:
            raise ValidationError("image_side must be >= 1 and gap_half_width >= 0")
        if self.image_side > MAX_IMAGE_SIDE:
            raise ValidationError(f"image_side must be <= {MAX_IMAGE_SIDE}, got {self.image_side}")
        lo, hi = self.gap_center - self.gap_half_width, self.gap_center + self.gap_half_width
        if lo < 0.0 or hi > 1.0:
            raise ValidationError("gap interval must lie within [0, 1]")
        if self.max_step <= 0 or self.success_radius <= 0:
            raise ValidationError("max_step and success_radius must be positive")


@dataclass(frozen=True)
class EpisodeSpec:
    seed: int
    episode_id: int
    start: tuple[float, float]
    goal: tuple[float, float]
    initial_goal_distance: float


# the Dataset arrays a dataset checkpoint stores, in blob order
DATASET_ARRAYS = ("pixel", "action", "next_pixel", "state")


@dataclass
class Dataset:
    """Random-policy transitions used to train the world model.  A transition's
    observations are rows of `observations(cfg)`: the agent's `pixel` before and
    after the step."""

    pixel: np.ndarray  # (n,) int
    action: np.ndarray  # (n, 2)
    next_pixel: np.ndarray  # (n,) int
    state: np.ndarray  # (n, 2)
    cfg: WallEnvConfig = field(default_factory=WallEnvConfig)

    def __len__(self) -> int:
        return self.pixel.shape[0]


def _in_gap(y, cfg: WallEnvConfig):
    return (cfg.gap_center - cfg.gap_half_width <= y) & (y <= cfg.gap_center + cfg.gap_half_width)


def step(state: np.ndarray, action: np.ndarray, cfg: WallEnvConfig) -> np.ndarray:
    """One environment transition per row of `state` (..., 2); pure and deterministic."""
    pos = np.asarray(state, dtype=np.float64).reshape(-1, 2)
    a = np.clip(np.asarray(action, dtype=np.float64).reshape(-1, 2), -cfg.max_step, cfg.max_step)
    cand = np.clip(pos + a, 0.0, 1.0)
    x0, x1 = pos[:, 0], cand[:, 0]
    crosses = (x0 - cfg.wall_x) * (x1 - cfg.wall_x) < 0
    t = np.divide(cfg.wall_x - x0, x1 - x0, where=crosses, out=np.zeros_like(x0))
    y_cross = pos[:, 1] + t * (cand[:, 1] - pos[:, 1])
    blocked = crosses & ~_in_gap(y_cross, cfg)
    side = np.where(x0[blocked] < cfg.wall_x, -1.0, 1.0)
    cand[blocked, 0] = cfg.wall_x + side * WALL_EPS
    cand[blocked, 1] = y_cross[blocked]
    return cand.reshape(np.shape(state))


def pixel(state: np.ndarray, cfg: WallEnvConfig) -> np.ndarray:
    """Flat index r * image_side + c of the agent's pixel per row of `state` (..., 2)."""
    pos = np.asarray(state, dtype=np.float64)
    side = cfg.image_side
    r = np.minimum(np.floor(pos[..., 1] * side).astype(np.intp), side - 1)
    c = np.minimum(np.floor(pos[..., 0] * side).astype(np.intp), side - 1)
    return r * side + c


def observations(cfg: WallEnvConfig) -> np.ndarray:
    """Every observation there is, shape (image_side**2, image_side**2): row p
    is the agent on pixel p (see `pixel`), flattened row-major in [0, 1].  The
    agent's pixel reads 1.0 and the wall column 0.5 on every row whose centre
    is outside the gap.  Float32, the dtype every encode computes in, holds
    0, 0.5 and 1 exactly."""
    side = cfg.image_side
    background = np.zeros((side, side), np.float32)
    wall_col = min(int(np.floor(cfg.wall_x * side)), side - 1)
    background[~_in_gap((np.arange(side) + 0.5) / side, cfg), wall_col] = 0.5
    obs = np.tile(background.reshape(-1), (side**2, 1))
    np.fill_diagonal(obs, 1.0)
    return obs


def render(state: np.ndarray, cfg: WallEnvConfig) -> np.ndarray:
    """The float32 observation per row of `state` (..., 2): `observations` at its `pixel`."""
    return observations(cfg)[pixel(state, cfg)]


def _uniform_on_side(gen: np.random.Generator, left: bool, cfg: WallEnvConfig) -> np.ndarray:
    if left:
        x = gen.uniform(0.0, cfg.wall_x)
    else:
        x = gen.uniform(cfg.wall_x, 1.0)
    y = gen.uniform(0.0, 1.0)
    return np.array([x, y])


def sample_episode_specs(
    seed: int, n_episodes: int, cfg: WallEnvConfig, master_seed: int = 0
) -> list[EpisodeSpec]:
    """Paired-goal episode specs; a pure function of (master_seed, seed).

    Never consumes randomness from anywhere else, so every variant and
    budget sees the identical list for a given seed.
    """
    if n_episodes < 1:
        raise ValidationError("n_episodes must be >= 1")
    specs = []
    for ep in range(n_episodes):
        gen = rng.stream(master_seed, "episode_spec", seed, ep)
        start_left = bool(gen.integers(0, 2))
        start = _uniform_on_side(gen, start_left, cfg)
        goal = _uniform_on_side(gen, not start_left, cfg)
        specs.append(
            EpisodeSpec(
                seed=seed,
                episode_id=ep,
                start=(float(start[0]), float(start[1])),
                goal=(float(goal[0]), float(goal[1])),
                initial_goal_distance=float(np.linalg.norm(start - goal)),
            )
        )
    return specs


def gen_dataset(
    n_traj: int, traj_len: int, seed: int, cfg: WallEnvConfig, master_seed: int = 0
) -> Dataset:
    """Random-policy rollouts from uniform starts, with ground-truth states.

    Trajectory k draws its start and then its actions from its own stream;
    all trajectories are stepped in lockstep and stored trajectory by trajectory.
    """
    if n_traj < 1 or traj_len < 1:
        raise ValidationError("n_traj and traj_len must be >= 1")
    gens = [rng.stream(master_seed, "dataset", seed, k) for k in range(n_traj)]
    states = np.empty((n_traj, traj_len + 1, 2))
    states[:, 0] = [g.uniform(0.0, 1.0, size=2) for g in gens]
    actions = np.array([g.uniform(-cfg.max_step, cfg.max_step, size=(traj_len, 2)) for g in gens])
    for t in range(traj_len):
        states[:, t + 1] = step(states[:, t], actions[:, t], cfg)
    pix = pixel(states, cfg)
    return Dataset(
        pixel=pix[:, :-1].reshape(-1),
        action=actions.reshape(-1, 2),
        next_pixel=pix[:, 1:].reshape(-1),
        state=states[:, :-1].reshape(-1, 2),
        cfg=cfg,
    )


def dataset_to_model(ds: Dataset) -> Model:
    """Pack a dataset into the manifest+blob persistence convention.  Pixels are
    stored as float32, exact below 2**24; extras record the env they index."""
    tensors = [TensorRecord(f"dataset.{name}", getattr(ds, name)) for name in DATASET_ARRAYS]
    extras = {"dataset": True, "env": asdict(ds.cfg)}
    return Model(tensors=tensors, extras=extras)


def dataset_from_model(model: Model, cfg: WallEnvConfig) -> Dataset:
    """The stored arrays, pixels as ints; ValidationError names the tensor that is
    missing, misshapen or holds a pixel that is not an int in [0, image_side**2),
    and names the env if the dataset was generated under another one."""
    arrays = {name: model.tensor(f"dataset.{name}").data for name in DATASET_ARRAYS}
    n = len(arrays["pixel"])
    for name, a in arrays.items():
        shape = (n,) if name.endswith("pixel") else (n, 2)
        if a.shape != shape:
            raise ValidationError(f"tensor 'dataset.{name}' has shape {a.shape}, expected "
                                  f"{shape}: {n} rows, as 'dataset.pixel'")
    for name in ("pixel", "next_pixel"):
        a = arrays[name]
        if not np.all((a == np.floor(a)) & (a >= 0) & (a < cfg.image_side**2)):
            raise ValidationError(
                f"tensor 'dataset.{name}' holds a pixel that is not an int in "
                f"[0, {cfg.image_side**2})"
            )
        arrays[name] = a.astype(np.intp)
    if model.extras.get("env") != asdict(cfg):
        raise ValidationError(
            f"dataset extras 'env' {model.extras.get('env')} is not the config's env "
            f"{asdict(cfg)}; rerun the 'gen-data' stage"
        )
    return Dataset(**arrays, cfg=cfg)
