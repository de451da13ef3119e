import copy

import numpy as np
import pytest

from quantplan import rng as qrng
from quantplan import (
    TrainConfig,
    ValidationError,
    WorldModel,
    fit_state_probe,
    gen_dataset,
    policy_for_name,
    train_world_model,
)
from quantplan.env import Dataset
from quantplan.nn import init_world_model, loss_and_grads
from quantplan.policies import apply_policy
from quantplan.store import load_model, persist_model


def tiny_batch(rng, obs_dim, n=8):
    return (
        rng.uniform(0, 1, (n, obs_dim)),
        rng.uniform(-0.1, 0.1, (n, 2)),
        rng.uniform(0, 1, (n, obs_dim)),
        rng.uniform(0, 1, (n, 2)),
    )


def test_gradient_check_matches_finite_differences(rng):
    wm = init_world_model(obs_dim=6, seed=5, encoder_depth=2, predictor_depth=2)
    obs, act, nobs, state = tiny_batch(rng, 6)
    _, grads = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0)
    analytic = np.concatenate([g.reshape(-1) for g in grads])
    theta = wm.params_vector()
    coords = rng.choice(theta.size, size=100, replace=False)
    h = 1e-6
    for i in coords:
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        wm.set_params_vector(tp)
        lp, _ = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0)
        wm.set_params_vector(tm)
        lm, _ = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0)
        wm.set_params_vector(theta)
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(analytic[i]), 1e-8)
        assert abs(fd - analytic[i]) / denom < 1e-4


def test_encode_deterministic_and_shapes(trained_model):
    obs = np.zeros(256)
    z1, z2 = trained_model.encode(obs), trained_model.encode(obs)
    np.testing.assert_array_equal(z1, z2)
    assert z1.shape == (16,)
    with pytest.raises(ValidationError):
        trained_model.encode(np.zeros(100))
    with pytest.raises(ValidationError):
        trained_model.predict_next(np.zeros(16), np.zeros(3))


def test_zero_weight_encoder_outputs_bias():
    wm = init_world_model(obs_dim=6, encoder_depth=2)
    for i, (W, b) in enumerate(wm.encoder.layers):
        W[...] = 0.0
        b[...] = float(i + 1)
    out = wm.encode(np.ones(6))
    np.testing.assert_allclose(out, wm.encoder.layers[-1][1])


def test_training_reduces_loss(trained_model):
    meta = trained_model.metadata["train"]
    assert meta["final_loss"] < 0.5 * meta["initial_loss"]


def test_training_deterministic(env_cfg):
    ds = gen_dataset(20, 5, 0, env_cfg)
    cfg = TrainConfig(epochs=2)
    a = train_world_model(ds, cfg)
    b = train_world_model(ds, cfg)
    np.testing.assert_array_equal(a.params_vector(), b.params_vector())


def reference_adam(ds, cfg: TrainConfig) -> np.ndarray:
    """train_world_model with the Adam update written tensor by tensor."""
    wm = init_world_model(ds.obs.shape[1], seed=cfg.seed)
    params = [p for *_, p in wm.named_params()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    order_gen = qrng.stream(0, "train", cfg.seed)
    t = 0
    for _ in range(cfg.epochs):
        perm = order_gen.permutation(len(ds))
        for lo in range(0, len(ds), cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            _, grads = loss_and_grads(
                wm, ds.obs[idx], ds.action[idx], ds.next_obs[idx], ds.state[idx],
                cfg.prediction_loss_weight, cfg.state_loss_weight,
            )
            t += 1
            lr_t = cfg.learning_rate * np.sqrt(1 - 0.999**t) / (1 - 0.9**t)
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= 0.9
                mi += (1 - 0.9) * g
                vi *= 0.999
                vi += (1 - 0.999) * g * g
                p -= lr_t * mi / (np.sqrt(vi) + 1e-8)
    flat = np.concatenate([p.reshape(-1) for p in params])
    return flat.astype(np.float32).astype(np.float64)


def test_flat_adam_matches_per_tensor_reference(env_cfg):
    ds = gen_dataset(20, 5, 0, env_cfg)
    cfg = TrainConfig(epochs=2)
    np.testing.assert_array_equal(
        train_world_model(ds, cfg).params_vector(), reference_adam(ds, cfg)
    )


def test_layers_are_views_into_theta(env_cfg):
    ds = gen_dataset(20, 5, 0, env_cfg)
    wm = train_world_model(ds, TrainConfig(epochs=1))
    fit_state_probe(wm, ds)
    twin = copy.deepcopy(wm)
    for model in (wm, twin):
        for stack in (model.encoder, model.predictor, model.probe):
            for W, b in stack.layers:
                assert np.shares_memory(W, model.theta) and np.shares_memory(b, model.theta)
    assert not np.shares_memory(twin.theta, wm.theta)
    np.testing.assert_array_equal(twin.theta, wm.theta)
    before = wm.encode(ds.obs[0])
    wm.set_params_vector(0.5 * wm.params_vector())
    assert not np.array_equal(wm.encode(ds.obs[0]), before)
    np.testing.assert_array_equal(twin.encode(ds.obs[0]), before)


def test_training_validation(env_cfg):
    ds = gen_dataset(1, 1, 0, env_cfg)
    empty = Dataset(ds.obs[:0], ds.action[:0], ds.next_obs[:0], ds.state[:0], ds.next_state[:0], env_cfg)
    with pytest.raises(ValidationError):
        train_world_model(empty, TrainConfig(epochs=1))


def test_probe_validation_error(trained_model, dataset):
    # held-out 10% split by index
    n = len(dataset)
    cut = n - n // 10
    z = trained_model.encode(dataset.obs[cut:])
    err = np.linalg.norm(trained_model.probe_decode(z) - dataset.state[cut:], axis=1).mean()
    assert err < 0.15


def test_probe_exact_linear_fit(rng):
    wm = init_world_model(obs_dim=6, encoder_depth=2)
    z = rng.uniform(-1, 1, (200, 16))
    A = rng.uniform(-1, 1, (2, 16))
    b = rng.uniform(-1, 1, 2)
    states = z @ A.T + b

    class FakeDS:
        obs = z  # encode bypassed below
    ds = FakeDS()
    wm.encode = lambda o: o  # latent passthrough for the synthetic check
    ds.state = states
    fit_state_probe(wm, ds)
    resid = wm.probe_decode(z) - states
    assert np.max(np.abs(resid)) < 1e-5  # float32 snap of exact LSQ


def test_probe_duplication_invariance(trained_model, dataset):
    import copy

    a = copy.deepcopy(trained_model)
    b = copy.deepcopy(trained_model)
    fit_state_probe(a, dataset)
    doubled = Dataset(
        np.vstack([dataset.obs] * 2),
        np.vstack([dataset.action] * 2),
        np.vstack([dataset.next_obs] * 2),
        np.vstack([dataset.state] * 2),
        np.vstack([dataset.next_state] * 2),
        dataset.cfg,
    )
    fit_state_probe(b, doubled)
    np.testing.assert_allclose(a.probe.layers[0][0], b.probe.layers[0][0], atol=1e-6)


def test_manifest_round_trip_preserves_roles(trained_model, tmp_path):
    m = trained_model.to_model()
    persist_model(m, tmp_path)
    back = WorldModel.from_model(load_model(tmp_path))
    obs = np.linspace(0, 1, 256)
    np.testing.assert_array_equal(back.encode(obs), trained_model.encode(obs))
    assert load_model(tmp_path).n_layers("encoder") == 4


def test_from_model_looks_up_tensors_by_name(trained_model, rng):
    m = trained_model.to_model()
    m.tensors = [m.tensors[i] for i in rng.permutation(len(m.tensors))]
    obs = np.linspace(0, 1, 256)
    np.testing.assert_array_equal(
        WorldModel.from_model(m).encode(obs), trained_model.encode(obs)
    )
    m.tensors = [t for t in m.tensors if t.name != "predictor.1.bias"]
    with pytest.raises(ValidationError, match="predictor.1.bias"):
        WorldModel.from_model(m)


def test_quantized_encoder_bounded_divergence(trained_model, rng):
    v8 = apply_policy(trained_model, policy_for_name("uniform_int8"), "u8").wm
    obs = rng.uniform(0, 1, 256)
    d8 = np.linalg.norm(v8.encode(obs) - trained_model.encode(obs))
    assert 0 < d8 < 0.5


def test_rollout_divergence_direction(trained_model, rng):
    v3 = apply_policy(trained_model, policy_for_name("uniform_int3"), "u3").wm
    v8 = apply_policy(trained_model, policy_for_name("uniform_int8"), "u8").wm

    def final_latent(wm, obs, acts):
        z = wm.encode(obs)
        for a in acts:
            z = wm.predict_next(z, a)
        return z

    d3s, d8s = [], []
    for _ in range(20):
        obs = np.zeros(256)
        obs[rng.integers(0, 256)] = 1.0
        acts = rng.uniform(-0.125, 0.125, (5, 2))
        zf = final_latent(trained_model, obs, acts)
        d3s.append(np.linalg.norm(final_latent(v3, obs, acts) - zf))
        d8s.append(np.linalg.norm(final_latent(v8, obs, acts) - zf))
    assert np.mean(d3s) > np.mean(d8s)


def test_probe_error_direction_under_quantization(trained_model, dataset):
    v3 = apply_policy(trained_model, policy_for_name("uniform_int3"), "u3").wm
    obs, states = dataset.obs[:200], dataset.state[:200]
    e_fp = np.linalg.norm(
        trained_model.probe_decode(trained_model.encode(obs)) - states, axis=1
    ).mean()
    e_q = np.linalg.norm(
        trained_model.probe_decode(v3.encode(obs)) - states, axis=1
    ).mean()
    assert e_q > e_fp
