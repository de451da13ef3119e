import hashlib

import numpy as np
import pytest

from quantplan import ValidationError, WallEnvConfig, gen_dataset, render, sample_episode_specs, step
from quantplan.env import dataset_from_model, dataset_to_model, observations, pixel
from quantplan.store import load_model, persist_model


def test_zero_action_identity(env_cfg):
    s = np.array([0.3, 0.7])
    np.testing.assert_array_equal(step(s, np.zeros(2), env_cfg), s)


def test_blocked_at_wall(env_cfg):
    out = step(np.array([0.45, 0.9]), np.array([0.1, 0.0]), env_cfg)
    np.testing.assert_allclose(out, [0.499, 0.9])


def test_passes_through_gap(env_cfg):
    out = step(np.array([0.45, 0.5]), np.array([0.1, 0.0]), env_cfg)
    np.testing.assert_allclose(out, [0.55, 0.5])


def test_blocked_from_right_side(env_cfg):
    out = step(np.array([0.55, 0.9]), np.array([-0.1, 0.0]), env_cfg)
    np.testing.assert_allclose(out, [0.501, 0.9])


def test_action_clamped(env_cfg):
    out = step(np.array([0.2, 0.2]), np.array([10.0, 0.0]), env_cfg)
    np.testing.assert_allclose(out, [0.2 + env_cfg.max_step, 0.2])


def test_position_clamped_to_unit_square(env_cfg):
    out = step(np.array([0.99, 0.01]), np.array([0.125, -0.125]), env_cfg)
    assert out[0] == 1.0 and out[1] == 0.0


def test_never_crosses_wall_outside_gap(env_cfg, rng):
    for _ in range(500):
        pos = rng.uniform(0, 1, 2)
        a = rng.uniform(-env_cfg.max_step, env_cfg.max_step, 2)
        nxt = step(pos, a, env_cfg)
        crossed = (pos[0] - env_cfg.wall_x) * (nxt[0] - env_cfg.wall_x) < 0
        if crossed:
            t = (env_cfg.wall_x - pos[0]) / (nxt[0] - pos[0])
            y = pos[1] + t * (nxt[1] - pos[1])
            assert abs(y - env_cfg.gap_center) <= env_cfg.gap_half_width + 1e-12


def test_render_agent_pixel(env_cfg):
    img = render(np.array([0.25, 0.25]), env_cfg).reshape(16, 16)
    assert img[4, 4] == 1.0


def test_render_deterministic_and_distinct(env_cfg):
    a = render(np.array([0.1, 0.1]), env_cfg)
    b = render(np.array([0.1, 0.1]), env_cfg)
    np.testing.assert_array_equal(a, b)
    c = render(np.array([0.1 + 1 / 16, 0.1]), env_cfg)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0) & (a <= 1))


def test_render_wall_column_with_gap(env_cfg):
    img = render(np.array([0.1, 0.1]), env_cfg).reshape(16, 16)
    col = img[:, 8]
    # rows whose centers fall inside [0.4, 0.6] are open
    for r in range(16):
        y = (r + 0.5) / 16
        if 0.4 <= y <= 0.6:
            assert col[r] == 0.0
        elif r != 1:  # agent pixel is at (1, 1), not column 8
            assert col[r] == 0.5


def test_specs_deterministic(env_cfg):
    a = sample_episode_specs(7, 10, env_cfg)
    b = sample_episode_specs(7, 10, env_cfg)
    assert a == b
    c = sample_episode_specs(8, 10, env_cfg)
    assert a != c


def test_specs_opposite_sides(env_cfg):
    for spec in sample_episode_specs(0, 50, env_cfg):
        assert (spec.start[0] - env_cfg.wall_x) * (spec.goal[0] - env_cfg.wall_x) < 0
        d = np.linalg.norm(np.array(spec.start) - np.array(spec.goal))
        assert spec.initial_goal_distance == pytest.approx(d)
    ids = [s.episode_id for s in sample_episode_specs(0, 5, env_cfg)]
    assert ids == [0, 1, 2, 3, 4]


def test_specs_validation(env_cfg):
    with pytest.raises(ValidationError):
        sample_episode_specs(0, 0, env_cfg)


def test_dataset_count_and_ranges(env_cfg):
    ds = gen_dataset(2, 3, 0, env_cfg)
    assert len(ds) == 6
    for p in (ds.pixel, ds.next_pixel):
        assert p.dtype.kind == "i" and np.all((p >= 0) & (p < env_cfg.image_side**2))
    assert np.all(np.abs(ds.action) <= env_cfg.max_step)


def test_dataset_replay_exact(env_cfg):
    traj_len = 5
    ds = gen_dataset(3, traj_len, 1, env_cfg)
    for i in range(len(ds)):
        nxt = step(ds.state[i], ds.action[i], env_cfg)
        if (i + 1) % traj_len:  # rows are stored trajectory by trajectory
            np.testing.assert_array_equal(nxt, ds.state[i + 1])
        np.testing.assert_array_equal(render(nxt, env_cfg), observations(env_cfg)[ds.next_pixel[i]])


def test_dataset_deterministic(env_cfg):
    a = gen_dataset(2, 4, 3, env_cfg)
    b = gen_dataset(2, 4, 3, env_cfg)
    np.testing.assert_array_equal(a.pixel, b.pixel)
    np.testing.assert_array_equal(a.next_pixel, b.next_pixel)
    np.testing.assert_array_equal(a.action, b.action)


def test_dataset_persistence_round_trip(env_cfg, tmp_path):
    ds = gen_dataset(2, 3, 0, env_cfg)
    persist_model(dataset_to_model(ds), tmp_path)
    back = dataset_from_model(load_model(tmp_path), env_cfg)
    for name in ("pixel", "next_pixel"):
        assert getattr(back, name).dtype.kind == "i"
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name))
    for name in ("action", "state"):
        np.testing.assert_array_equal(getattr(back, name), getattr(ds, name).astype(np.float32))
    assert len(back) == len(ds)


def test_env_config_validation():
    with pytest.raises(ValidationError):
        WallEnvConfig(gap_center=0.05, gap_half_width=0.1)
    with pytest.raises(ValidationError):
        WallEnvConfig(max_step=0.0)
    with pytest.raises(ValidationError):
        WallEnvConfig(wall_x=1.5)
    for side, message in ((0, "image_side must be >= 1"), (-2, "image_side must be >= 1"),
                          (129, "image_side must be <= 128, got 129")):
        with pytest.raises(ValidationError, match=message):
            WallEnvConfig(image_side=side)
    WallEnvConfig(image_side=128)  # the bound itself is accepted
    # a negative half-width closes the gap, so no episode could succeed
    with pytest.raises(ValidationError, match="gap_half_width >= 0"):
        WallEnvConfig(gap_half_width=-0.1)


def test_batched_step_and_render_match_rows(env_cfg, rng):
    cases = [
        ([0.45, 0.9], [0.1, 0.0]),  # blocked wall crossing, from the left
        ([0.55, 0.9], [-0.1, 0.0]),  # blocked wall crossing, from the right
        ([0.45, 0.5], [0.1, 0.0]),  # crossing through the gap
        ([0.99, 0.01], [0.125, -0.125]),  # clipped to the corner
        ([0.2, 0.2], [10.0, 0.0]),  # clamped action
        ([0.3, 0.7], [0.0, 0.0]),
        ([1.0, 1.0], [0.0, 0.0]),  # agent pixel on the last row and column
    ]
    states = np.array([s for s, _ in cases] + list(rng.uniform(0, 1, (200, 2))))
    actions = np.array([a for _, a in cases] + list(rng.uniform(-0.2, 0.2, (200, 2))))
    batch = step(states, actions, env_cfg)
    assert batch.shape == states.shape
    for s, a, out in zip(states, actions, batch):
        np.testing.assert_array_equal(out, step(s, a, env_cfg))
    np.testing.assert_allclose(batch[:4], [[0.499, 0.9], [0.501, 0.9], [0.55, 0.5], [1.0, 0.0]])
    images = render(batch, env_cfg)
    assert images.shape == (len(batch), 256)
    for s, img in zip(batch, images):
        np.testing.assert_array_equal(img, render(s, env_cfg))


def test_render_is_the_observation_of_its_pixel(env_cfg, rng):
    side, x = env_cfg.image_side, env_cfg.wall_x
    edges = [[1.0, 1.0], [1.0, 0.3], [0.0, 1.0], [0.0, 0.0],
             [x, 0.5], [x, 0.05], [x, 1.0]]  # the last three on the wall column, in and out of the gap
    states = np.concatenate([edges, rng.uniform(0, 1, (63, 2))])
    assert pixel(states[:7], env_cfg).tolist() == [255, 79, 240, 0, 136, 8, 248]
    table = observations(env_cfg)
    for s in states:
        np.testing.assert_array_equal(render(s, env_cfg), table[pixel(s, env_cfg)])
    for batch in (states, states.reshape(7, 10, 2)):
        assert pixel(batch, env_cfg).shape == batch.shape[:-1]
        np.testing.assert_array_equal(render(batch, env_cfg), table[pixel(batch, env_cfg)])
    # row p is the background with a 1.0 on pixel p; background[q] read off row q + 1
    n = side * side
    background = table[(np.arange(n) + 1) % n, np.arange(n)]
    np.testing.assert_array_equal(table, np.where(np.eye(n, dtype=bool), 1.0, background))


def test_observations_are_float32(env_cfg):
    # the dtype every encode computes in; 0, 0.5 and 1 are exact in it
    assert observations(env_cfg).dtype == np.float32
    assert render(np.array([0.3, 0.6]), env_cfg).dtype == np.float32


def test_ones_augmented_observations(env_cfg):
    # the encoder's input table: the same rows, each ending in a column of 1.0
    table, augmented = observations(env_cfg), observations(env_cfg, ones=True)
    assert augmented.dtype == np.float32 and augmented.flags.c_contiguous
    np.testing.assert_array_equal(augmented[:, :-1], table)
    assert np.all(augmented[:, -1] == 1.0)


def test_dataset_bytes_pinned(env_cfg):
    # the hash of the rendered images, so the pixels index the same observations;
    # hashed as float64, the dtype the table was first pinned in
    ds = gen_dataset(20, 10, 0, env_cfg)
    table = observations(env_cfg).astype(np.float64)
    h = hashlib.sha256()
    for a in (table[ds.pixel], ds.action, table[ds.next_pixel], ds.state):
        h.update(a.tobytes())
    assert h.hexdigest() == "1ae5c232b8d944fb21452d3e74ce9e89ac83a929c1dc837f56f57e8ddceb32af"


def test_dataset_pixels_index_the_rendered_states(dataset, env_cfg):
    table = observations(env_cfg)
    np.testing.assert_array_equal(table[dataset.pixel], render(dataset.state, env_cfg))
    next_state = step(dataset.state, dataset.action, env_cfg)
    np.testing.assert_array_equal(table[dataset.next_pixel], render(next_state, env_cfg))
