import copy
import math

import numpy as np
import pytest

from quantplan import nn
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
from quantplan.env import Dataset, WallEnvConfig, dataset_from_model, dataset_to_model, observations
from quantplan.nn import STACKS, Stack, _dataset_loss, init_world_model, loss_and_grads, study_dims
from quantplan.policies import apply_policy
from quantplan.store import TensorRecord, load_model, persist_model


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
    theta = wm.theta.copy()
    coords = rng.choice(theta.size, size=100, replace=False)
    h = 1e-6
    for i in coords:
        tp = theta.copy(); tp[i] += h
        tm = theta.copy(); tm[i] -= h
        wm.theta[...] = tp
        lp, _ = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0)
        wm.theta[...] = tm
        lm, _ = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0)
        wm.theta[...] = theta
        fd = (lp - lm) / (2 * h)
        denom = max(abs(fd), abs(analytic[i]), 1e-8)
        assert abs(fd - analytic[i]) / denom < 1e-4

    # a reused buffer, holding NaN and then another batch's gradient, comes back
    # holding exactly the fresh buffer's gradient: each call overwrites every element
    out = WorldModel(wm.dims, dtype=wm.theta.dtype)
    out.theta[...] = np.nan
    loss_and_grads(wm, *tiny_batch(rng, 6), 1.0, 1.0, out)
    _, reused = loss_and_grads(wm, obs, act, nobs, state, 1.0, 1.0, out)
    assert reused is out.theta
    np.testing.assert_array_equal(reused, grads)


def test_encode_deterministic_and_shapes(trained_model):
    obs = np.zeros(256)
    z1, z2 = trained_model.encode(obs), trained_model.encode(obs)
    np.testing.assert_array_equal(z1, z2)
    assert z1.shape == (16,)
    with pytest.raises(ValidationError):
        trained_model.encode(np.zeros(100))
    with pytest.raises(ValidationError):
        trained_model.predict_next(np.zeros(16), np.zeros(3))


def test_passes_read_their_widths_from_the_layers(rng):
    # acceptance criterion 4's model: latent width 4, not the study's 16
    wm = init_world_model(obs_dim=8, seed=3, latent_dim=4, encoder_depth=2, predictor_depth=2)
    table = rng.uniform(-1, 1, (6, 4))  # latent rows, one per pixel
    ds = Dataset(pixel=np.array([0, 2, 5]), action=rng.uniform(-0.1, 0.1, (3, 2)),
                 next_pixel=np.array([1, 1, 3]), state=rng.uniform(0, 1, (3, 2)))
    z, ones = table[ds.pixel], np.ones((3, 1))
    pred = wm.predictor.forward(np.hstack([z, ds.action, ones]))
    decoded = wm.probe.forward(np.hstack([z, ones]))
    np.testing.assert_array_equal(wm.predict_next(z, ds.action), pred)
    np.testing.assert_array_equal(wm.probe_decode(z), decoded)
    r_pred, r_state = pred - table[ds.next_pixel], decoded - ds.state
    loss = 0.5 * np.sum(r_pred * r_pred) / 3 + 2.0 * np.sum(r_state * r_state) / 3
    assert _dataset_loss(wm, table, ds, 0.5, 2.0) == loss
    with pytest.raises(ValidationError, match="latent must have last dimension 4"):
        wm.probe_decode(np.zeros(16))
    with pytest.raises(ValidationError, match="action must have last dimension 2"):
        wm.predict_next(z, np.zeros((3, 3)))


@pytest.mark.parametrize("n", [1, 2, 3, nn.LOSS_BLOCK - 1, nn.LOSS_BLOCK, nn.LOSS_BLOCK + 1,
                               2 * nn.LOSS_BLOCK + 1])
def test_dataset_loss_blocks_equal_the_whole_array_loss(rng, monkeypatch, n):
    # the full-dataset loss runs in blocks of at most LOSS_BLOCK transitions, none of one
    # row unless n is 1, and keeps the bits of the one-product formula written out here.
    # Its residuals are compared too: a 1-row block's output layer rounds differently
    # (gemv), by less than the float32 sum of ~16,000 squares can show
    seen, loss_of = [], nn._loss
    monkeypatch.setattr(nn, "_loss", lambda *args: seen.append(args) or loss_of(*args))
    init = init_world_model(obs_dim=256, seed=2)
    wm = WorldModel(init.dims)
    wm.theta[...] = init.theta
    z = rng.standard_normal((256, 16)).astype(np.float32)  # a latent row per pixel
    ds = Dataset(pixel=rng.integers(0, 256, n), action=rng.uniform(-0.1, 0.1, (n, 2)),
                 next_pixel=rng.integers(0, 256, n), state=rng.uniform(0, 1, (n, 2)))
    z_obs, ones = z[ds.pixel], np.ones((n, 1), np.float32)
    pred = wm.predictor.forward(np.hstack([z_obs, ds.action.astype(np.float32), ones]))
    r_pred = pred - z[ds.next_pixel]
    r_state = wm.probe.forward(np.hstack([z_obs, ones])) - ds.state.astype(np.float32)
    loss = (0.5 * np.add.reduce((r_pred * r_pred).ravel()) / n
            + 2.0 * np.add.reduce((r_state * r_state).ravel()) / n)
    got = _dataset_loss(wm, z, ds, 0.5, 2.0)
    assert got.dtype == loss.dtype == np.float32 and got.tobytes() == loss.tobytes()
    [(got_pred, got_state, _, _)] = seen
    assert got_pred.tobytes() == r_pred.tobytes() and got_state.tobytes() == r_state.tobytes()


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
    np.testing.assert_array_equal(a.theta, b.theta)


def test_recorded_losses_are_full_dataset_losses(env_cfg):
    ds = gen_dataset(20, 5, 0, env_cfg)
    cfg = TrainConfig(epochs=2, prediction_loss_weight=0.5, state_loss_weight=2.0)
    trained = train_world_model(ds, cfg)
    table = observations(env_cfg)
    init = init_world_model(table.shape[1], seed=cfg.seed)
    start = WorldModel(init.dims)
    start.theta[...] = init.theta
    data = (table[ds.pixel], ds.action, table[ds.next_pixel], ds.state)
    meta = trained.metadata["train"]
    # the final loss is the trained probe's, before training's closing probe fit
    for wm, key in ((start, "initial_loss"), (reference_adam(ds, cfg), "final_loss")):
        loss, _ = loss_and_grads(wm, *data, cfg.prediction_loss_weight, cfg.state_loss_weight)
        assert meta[key] == float(loss)


def reference_adam(ds, cfg: TrainConfig, grads_of=loss_and_grads) -> WorldModel:
    """train_world_model up to its probe fit, with the float32 Adam update written
    tensor by tensor and the gradient from `grads_of`, called as loss_and_grads is."""
    table = observations(ds.cfg)
    init = init_world_model(table.shape[1], seed=cfg.seed)
    wm = WorldModel(init.dims)
    wm.theta[...] = init.theta
    params = [p for _, p in wm.named_params()]
    assert all(p.dtype == np.float32 for p in params)
    grad = WorldModel(wm.dims)  # each tensor's gradient is read through its own view
    grads = [g for _, g in grad.named_params()]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    order_gen = qrng.stream(0, "train", cfg.seed)
    t = 0
    for _ in range(cfg.epochs):
        perm = order_gen.permutation(len(ds))
        for lo in range(0, len(ds), cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            grads_of(
                wm, table[ds.pixel[idx]], ds.action[idx], table[ds.next_pixel[idx]], ds.state[idx],
                cfg.prediction_loss_weight, cfg.state_loss_weight, grad,
            )
            t += 1
            lr_t = cfg.learning_rate * math.sqrt(1 - 0.999**t) / (1 - 0.9**t)
            for p, g, mi, vi in zip(params, grads, m, v):
                mi *= 0.9
                mi += (1 - 0.9) * g
                vi *= 0.999
                vi += (1 - 0.999) * g * g
                p -= lr_t * mi / (np.sqrt(vi) + 1e-8)
    return wm


def test_flat_adam_matches_per_tensor_reference(env_cfg):
    ds = gen_dataset(20, 5, 0, env_cfg)
    cfg = TrainConfig(epochs=2)
    trained = train_world_model(ds, cfg)
    expected = dict(fit_state_probe(reference_adam(ds, cfg), ds).named_params())
    assert sum(p.size for p in expected.values()) == trained.theta.size
    for name, p in trained.named_params():
        np.testing.assert_array_equal(p, expected[name], err_msg=name)


def test_training_ends_with_the_probe_fit_on_its_final_encode(env_cfg, monkeypatch):
    ds = gen_dataset(20, 5, 0, env_cfg)
    encodes = []
    encode = WorldModel.encode

    def counting_encode(self, obs):
        encodes.append(obs.shape)
        return encode(self, obs)

    monkeypatch.setattr(WorldModel, "encode", counting_encode)
    wm = train_world_model(ds, TrainConfig(epochs=1))
    # the table under the initial and the final weights; the probe fit reads the second
    assert encodes == [observations(env_cfg, ones=True).shape] * 2
    assert fit_state_probe(copy.deepcopy(wm), ds).theta.tobytes() == wm.theta.tobytes()


def test_float32_numeric_path(env_cfg):
    ds = gen_dataset(20, 5, 0, env_cfg)
    table = observations(env_cfg)
    init = init_world_model(table.shape[1])
    assert init.theta.dtype == np.float64
    wm = train_world_model(ds, TrainConfig(epochs=1))
    assert wm.theta.dtype == np.float32
    assert WorldModel.from_model(wm.to_model()).theta.dtype == np.float32

    obs = table[ds.pixel[:3]]
    z = wm.encode(obs)
    z64 = z.astype(np.float64)
    assert z.dtype == np.float32
    assert wm.predict_next(z64, ds.action[:3].astype(np.float64)).dtype == np.float32
    assert wm.probe_decode(z64).dtype == np.float32

    batch = (table[ds.pixel[:8]], ds.action[:8], table[ds.next_pixel[:8]], ds.state[:8])
    for inputs in (batch, [x.astype(np.float32) for x in batch]):
        loss, grad = loss_and_grads(wm, *inputs, 1.0, 1.0)
        assert loss.dtype == np.float32
        assert grad.dtype == np.float32 and grad.shape == wm.theta.shape

    for model in (init, wm):
        assert copy.deepcopy(model).theta.dtype == model.theta.dtype
        u4 = policy_for_name("uniform_int4", model)
        assert apply_policy(model, u4).theta.dtype == model.theta.dtype


def test_epoch_losses_recorded_and_persisted(env_cfg, tmp_path):
    ds = gen_dataset(20, 5, 0, env_cfg)
    wm = train_world_model(ds, TrainConfig(epochs=3))
    losses = wm.metadata["train"]["epoch_losses"]
    assert len(losses) == 3
    assert all(type(x) is float and math.isfinite(x) for x in losses)
    persist_model(wm.to_model(), tmp_path)
    assert load_model(tmp_path).extras["train"]["epoch_losses"] == losses


def test_layers_are_views_into_theta(env_cfg):
    ds = gen_dataset(20, 5, 0, env_cfg)
    wm = train_world_model(ds, TrainConfig(epochs=1))
    twin = copy.deepcopy(wm)
    for model in (wm, twin):
        for stack in (model.encoder, model.predictor, model.probe):
            for W, b in stack.layers:
                assert np.shares_memory(W, model.theta) and np.shares_memory(b, model.theta)
    assert not np.shares_memory(twin.theta, wm.theta)
    np.testing.assert_array_equal(twin.theta, wm.theta)
    obs = observations(env_cfg)[ds.pixel[0]]
    before = wm.encode(obs)
    wm.theta[...] = 0.5 * wm.theta
    assert not np.array_equal(wm.encode(obs), before)
    np.testing.assert_array_equal(twin.encode(obs), before)


def test_forward_weights_are_contiguous_in_out_blocks_of_theta():
    # each layer is the C-contiguous (in + 1, out) block [W.T; b] of theta, whatever made
    # the model: every pass reads and writes the blocks in place, and (W, b) are views of them
    base = init_world_model(obs_dim=6)
    loaded = WorldModel.from_model(base.to_model())
    models = {
        "init_world_model": base,
        "WorldModel(dims)": WorldModel(base.dims),
        "from_model": loaded,
        "deepcopy": copy.deepcopy(loaded),
        "apply_policy": apply_policy(loaded, policy_for_name("uniform_int4", loaded)),
    }
    for how, model in models.items():
        blocks = []
        for name in STACKS:
            stack = getattr(model, name)
            for (out_d, in_d), A, (W, b) in zip(model.dims[name], stack.blocks, stack.layers,
                                                strict=True):
                assert A.shape == (in_d + 1, out_d) and A.flags.c_contiguous, how
                assert np.shares_memory(A, model.theta), how
                assert W.T.flags.c_contiguous, how
                values = np.arange(A.size, dtype=A.dtype).reshape(A.shape) + len(blocks)
                A[...] = values
                np.testing.assert_array_equal(W, values[:-1].T, err_msg=how)
                np.testing.assert_array_equal(b, values[-1], err_msg=how)
                blocks.append(values)
        # the blocks tile theta in STACKS order
        np.testing.assert_array_equal(np.concatenate([A.ravel() for A in blocks]), model.theta)


def unfolded_loss_and_grads(wm, obs, action, next_obs, state, pw, sw, out):
    """loss_and_grads with the arithmetic it had before the bias fold: each layer is
    fl(fl(x @ W.T) + b), and its (dW, db) are g.T @ x and np.add.reduce(g, axis=0)."""
    obs, action, next_obs, state = (np.asarray(x, wm.theta.dtype)
                                    for x in (obs, action, next_obs, state))

    def forward(stack, x, cache):
        for i, (W, b) in enumerate(stack.layers):
            cache.append(x)
            x = x @ W.T
            x += b
            if i < len(stack.layers) - 1:
                np.tanh(x, out=x)
        return x

    def backward(stack, cache, g, grads):
        for i in reversed(range(len(stack.layers))):
            if i < len(stack.layers) - 1:
                act = cache[i + 1]
                g = (g @ stack.layers[i + 1][0]) * (1.0 - act * act)
            dW, db = grads.layers[i]
            np.matmul(g.T, cache[i], out=dW)
            np.add.reduce(g, axis=0, out=db)
        return g

    n = len(obs)
    c_enc, c_pred, c_probe = [], [], []
    z_both = forward(wm.encoder, np.concatenate([obs, next_obs]), c_enc)
    z, z_next = z_both[:n], z_both[n:]
    r_pred = forward(wm.predictor, np.concatenate([z, action], axis=1), c_pred) - z_next
    r_state = forward(wm.probe, z, c_probe) - state
    loss = pw * np.sum(r_pred * r_pred) / n + sw * np.sum(r_state * r_state) / n
    g_p, g_s = r_pred * (2.0 * pw) / n, r_state * (2.0 * sw) / n
    g_pred = backward(wm.predictor, c_pred, g_p, out.predictor)
    g_probe = backward(wm.probe, c_probe, g_s, out.probe)
    g_z = (g_pred @ wm.predictor.layers[0][0])[:, :z.shape[1]] + g_probe @ wm.probe.layers[0][0]
    backward(wm.encoder, c_enc, np.concatenate([g_z, -g_p]), out.encoder)
    return loss, out.theta


STUDY_LAYERS = [(name, i, shape) for name, shapes in study_dims(256).items()
                for i, shape in enumerate(shapes)]


@pytest.mark.parametrize("bad", [None, np.inf, np.nan], ids=["finite", "inf", "nan"])
@pytest.mark.parametrize("rows", [1, 2, 32, 64, 128])
@pytest.mark.parametrize("shape", [s for *_, s in STUDY_LAYERS],
                         ids=[f"{name}.{i}" for name, i, _ in STUDY_LAYERS])
def test_folded_backward_equals_unfolded(rng, shape, rows, bad):
    # a training layer's [dW.T; db] is one gemm x1.T @ g of its ones-augmented input: its
    # weight rows must round as g.T @ x and its bias row as the sequential row sum
    # np.add.reduce(g, axis=0), NaN for NaN; so must its forward as fl(fl(x @ W.T) + b)
    out_d, in_d = shape
    layer, grads = (Stack([np.empty((in_d + 1, out_d), np.float32)]) for _ in range(2))
    layer.blocks[0][...] = 0.3 * rng.standard_normal((in_d + 1, out_d))
    x1 = np.ones((rows, in_d + 1), np.float32)
    x1[:, :-1] = rng.standard_normal((rows, in_d))
    g = rng.standard_normal((rows, out_d)).astype(np.float32)
    if bad is not None:
        x1[-1, 0] = g[-1, 0] = bad  # one row of the input and of the gradient
    grads.blocks[0][...] = np.nan  # the gemm writes every element
    x = x1[:, :-1]
    W, b = layer.layers[0]
    with np.errstate(invalid="ignore"):
        layer.backward([x1], g, grads)
        expected_dw = g.T @ x
        forward = layer.forward(x1)
        expected_forward = x @ W.T
        expected_forward += b
    dW, db = grads.layers[0]
    np.testing.assert_array_equal(dW, expected_dw)
    np.testing.assert_array_equal(db, np.add.reduce(g, axis=0))
    np.testing.assert_array_equal(forward, expected_forward)


def test_one_row_last_batch_trains_as_the_unfolded_reference(env_cfg):
    # 65 transitions: each epoch ends in a 1-row batch, whose predictor and probe
    # products go through gemv; the whole run must equal the unfolded arithmetic's
    ds = gen_dataset(13, 5, 0, env_cfg)
    cfg = TrainConfig(epochs=2)
    assert len(ds) % cfg.batch_size == 1
    trained = train_world_model(ds, cfg)
    expected = dict(fit_state_probe(reference_adam(ds, cfg, unfolded_loss_and_grads),
                                    ds).named_params())
    for name, p in trained.named_params():
        np.testing.assert_array_equal(p, expected[name], err_msg=name)


# (pixels, transitions, batch size): one epoch's batches, the last one short where the
# batch size does not divide the transitions; an id counts transitions
LIT_EPOCHS = [("random", n, 64) for n in (1, 2, 32, 64, 100, 128)] + [
    ("agent-on-wall", 1, 64), ("agent-on-wall", 64, 64), ("every-pixel", 256, 256)]


@pytest.mark.parametrize("pixels, n, batch_size", LIT_EPOCHS,
                         ids=[f"{p}-{n}" for p, n, _ in LIT_EPOCHS])
def test_lit_layer0_equals_the_full_products(rng, env_cfg, monkeypatch, pixels, n, batch_size):
    # each step's encoder input, laid out by its epoch's plan, is the batch's (2k, 257)
    # table rows on its lit columns, and layer 0 multiplies only those columns: the
    # forward x @ A0[cols] and the gradient rows x.T @ g must round as the full
    # products, and the full gradient's unlit rows are +0, the value the step writes there
    table = observations(env_cfg, ones=True)
    walls = np.flatnonzero(table.min(axis=0)[:-1] == 0.5)
    pixel, next_pixel = rng.integers(0, 256, (2, n))
    if pixels == "every-pixel":
        pixel = rng.permutation(256)
    elif pixels == "agent-on-wall":
        pixel[0], next_pixel[0] = walls[0], walls[-1]
    ds = Dataset(pixel, rng.uniform(-0.1, 0.1, (n, 2)), next_pixel, rng.uniform(0, 1, (n, 2)),
                 env_cfg)
    cfg = TrainConfig(epochs=1, batch_size=batch_size)
    steps = []

    def recording(wm, obs, action, next_obs, state, *args):
        steps.append((np.concatenate([obs, next_obs]), args[-1].cols))
        return loss_and_grads(wm, obs, action, next_obs, state, *args)

    monkeypatch.setattr(nn, "loss_and_grads", recording)
    train_world_model(ds, cfg)
    perm = qrng.stream(0, "train", cfg.seed).permutation(n)
    batches = [perm[lo : lo + batch_size] for lo in range(0, n, batch_size)]
    assert len(steps) == len(batches)
    for idx, (x, cols) in zip(batches, steps):
        batch_pixels = np.concatenate([pixel[idx], next_pixel[idx]])
        assert cols.tolist() == sorted({*walls.tolist(), *batch_pixels.tolist()}) + [256]
        full = table[batch_pixels]
        np.testing.assert_array_equal(x, full[:, cols])

        A0 = (0.3 * rng.standard_normal((257, 64))).astype(np.float32)
        g = rng.standard_normal((len(x), 64)).astype(np.float32)
        lit_grad, full_grad = np.full((len(cols), 64), np.nan, np.float32), np.empty_like(A0)
        Stack([A0[cols]]).backward([x], g, Stack([lit_grad]))
        Stack([A0]).backward([full], g, Stack([full_grad]))
        # a training step's encoder input has 2k >= 2 rows, so its product is a gemm
        np.testing.assert_array_equal(Stack([A0[cols]]).forward(x), Stack([A0]).forward(full))
        np.testing.assert_array_equal(lit_grad, full_grad[cols])
        unlit = np.delete(full_grad, cols, axis=0)
        assert len(unlit) == 257 - len(cols)
        assert not unlit.any() and not np.signbit(unlit).any()


def test_a_batch_larger_than_the_dataset_trains_as_one_batch(env_cfg):
    # the epoch plan is sized by the dataset, not by the batch size
    ds = gen_dataset(2, 3, 0, env_cfg)
    whole = train_world_model(ds, TrainConfig(epochs=1, batch_size=len(ds)))
    huge = train_world_model(ds, TrainConfig(epochs=1, batch_size=2**40))
    assert huge.theta.tobytes() == whole.theta.tobytes()


def test_a_training_step_equals_loss_and_grads_on_the_full_rows(env_cfg, monkeypatch):
    # every step of a run (a 64-row batch, then a 36-row one) gives the loss and
    # gradient, bit for bit, of loss_and_grads and of the unfolded arithmetic on the
    # batch's full (n, 256) table rows, and +0 in layer 0's unlit gradient rows
    ds = gen_dataset(20, 5, 0, env_cfg)
    cfg = TrainConfig(epochs=1, prediction_loss_weight=0.5, state_loss_weight=2.0)
    steps = []

    def recording(wm, *args):
        theta = wm.theta.copy()
        loss, grad = loss_and_grads(wm, *args)
        steps.append((theta, args[-1].cols, loss, grad.copy()))
        return loss, grad

    monkeypatch.setattr(nn, "loss_and_grads", recording)
    train_world_model(ds, cfg)
    table = observations(env_cfg)
    perm = qrng.stream(0, "train", cfg.seed).permutation(len(ds))
    batches = [perm[lo : lo + cfg.batch_size] for lo in range(0, len(ds), cfg.batch_size)]
    assert [len(idx) for idx in batches] == [64, 36] and len(steps) == 2
    for idx, (theta, cols, loss, grad) in zip(batches, steps):
        wm, out = WorldModel(study_dims(256)), WorldModel(study_dims(256))
        wm.theta[...] = theta
        batch = (table[ds.pixel[idx]], ds.action[idx], table[ds.next_pixel[idx]], ds.state[idx])
        weights = (cfg.prediction_loss_weight, cfg.state_loss_weight)
        for f in (loss_and_grads, lambda *a: unfolded_loss_and_grads(*a, out)):
            full_loss, full_grad = f(wm, *batch, *weights)
            assert loss.tobytes() == full_loss.tobytes()
            assert grad.tobytes() == full_grad.tobytes()
        out.theta[...] = grad
        unlit = np.delete(out.encoder.blocks[0], cols, axis=0)
        assert len(unlit) > 0 and not unlit.any() and not np.signbit(unlit).any()


def test_training_validation(env_cfg):
    ds = gen_dataset(1, 1, 0, env_cfg)
    empty = Dataset(ds.pixel[:0], ds.action[:0], ds.next_pixel[:0], ds.state[:0], env_cfg)
    with pytest.raises(ValidationError):
        train_world_model(empty, TrainConfig(epochs=1))


def test_probe_validation_error(trained_model, dataset, env_cfg):
    # held-out 10% split by index
    n = len(dataset)
    cut = n - n // 10
    z = trained_model.encode(observations(env_cfg)[dataset.pixel[cut:]])
    err = np.linalg.norm(trained_model.probe_decode(z) - dataset.state[cut:], axis=1).mean()
    assert err < 0.15


def assert_table_paths_equal_image_paths(wm, ds):
    """The full-dataset loss and the probe fit, which encode the observation table once
    and gather latents by pixel, equal encoding every image, bit for bit."""
    table = observations(ds.cfg).astype(np.float32)
    obs, next_obs = table[ds.pixel], table[ds.next_pixel]
    explicit = loss_and_grads(wm, obs, ds.action, next_obs, ds.state, 0.5, 2.0)[0]
    gathered = _dataset_loss(wm, wm.encode(table), ds, 0.5, 2.0)
    assert gathered.dtype == explicit.dtype and gathered.tobytes() == explicit.tobytes()

    fitted = fit_state_probe(copy.deepcopy(wm), ds)
    z = wm.encode(obs)
    A = np.hstack([z, np.ones((len(z), 1))])
    sol = np.linalg.lstsq(A, np.asarray(ds.state, np.float32), rcond=None)[0]
    W, b = fitted.probe.layers[0]
    assert W.tobytes() == sol[:-1].T.astype(np.float32).tobytes()
    assert b.tobytes() == sol[-1].astype(np.float32).tobytes()


def test_table_paths_equal_the_explicit_image_paths(trained_model, dataset):
    assert_table_paths_equal_image_paths(trained_model, dataset)


@pytest.mark.parametrize("n", [2, 5, 30])
def test_table_paths_equal_the_image_paths_on_small_datasets(trained_model, dataset, env_cfg, n):
    # a row of an M-row NN product equals that row of the 256-row table encode for every
    # M >= 2, so the table paths need no minimum dataset size
    small = Dataset(dataset.pixel[:n], dataset.action[:n], dataset.next_pixel[:n],
                    dataset.state[:n], env_cfg)
    assert_table_paths_equal_image_paths(trained_model, small)


def test_probe_exact_linear_fit(rng):
    wm = init_world_model(obs_dim=6, encoder_depth=2)
    z = rng.uniform(-1, 1, (200, 16))
    A = rng.uniform(-1, 1, (2, 16))
    b = rng.uniform(-1, 1, 2)
    states = z @ A.T + b

    class FakeDS:
        pixel = np.arange(len(z))  # gathers every row of z, the encode output below
        cfg = WallEnvConfig()
    ds = FakeDS()
    wm.encode = lambda o: z  # the synthetic latents stand in for the table's
    ds.state = states
    fit_state_probe(wm, ds)
    resid = wm.probe_decode(z) - states
    assert np.max(np.abs(resid)) < 1e-5  # exact LSQ up to rounding


def test_probe_duplication_invariance(trained_model, dataset):
    import copy

    a = copy.deepcopy(trained_model)
    b = copy.deepcopy(trained_model)
    fit_state_probe(a, dataset)
    doubled = Dataset(
        np.concatenate([dataset.pixel] * 2),
        np.vstack([dataset.action] * 2),
        np.concatenate([dataset.next_pixel] * 2),
        np.vstack([dataset.state] * 2),
        dataset.cfg,
    )
    fit_state_probe(b, doubled)
    np.testing.assert_allclose(a.probe.layers[0][0], b.probe.layers[0][0], atol=1e-6)


def test_fresh_and_reloaded_dataset_train_the_same_model(env_cfg, tmp_path):
    # gen_dataset's states are float64 and dataset/ stores them as float32; every pass
    # reads them in theta's dtype, so both datasets give the same model, probe included
    fresh = gen_dataset(20, 5, 0, env_cfg)
    persist_model(dataset_to_model(fresh), tmp_path)
    reloaded = dataset_from_model(load_model(tmp_path), env_cfg)
    assert fresh.state.dtype == np.float64 and reloaded.state.dtype == np.float32
    a, b = (train_world_model(ds, TrainConfig(epochs=2)) for ds in (fresh, reloaded))
    assert a.theta.tobytes() == b.theta.tobytes()


def test_manifest_round_trip_preserves_roles(trained_model, tmp_path):
    m = trained_model.to_model()
    persist_model(m, tmp_path)
    back = WorldModel.from_model(load_model(tmp_path))
    obs = np.linspace(0, 1, 256)
    np.testing.assert_array_equal(back.encode(obs), trained_model.encode(obs))
    assert len(back.dims["encoder"]) == 4


def test_from_model_looks_up_tensors_by_name(trained_model, rng):
    m = trained_model.to_model()
    m.tensors = [m.tensors[i] for i in rng.permutation(len(m.tensors))]
    obs = np.linspace(0, 1, 256)
    np.testing.assert_array_equal(
        WorldModel.from_model(m).encode(obs), trained_model.encode(obs)
    )
    m.tensors.append(TensorRecord("encoder.0.scale", np.ones(64)))
    with pytest.raises(ValidationError, match="unknown tensor 'encoder.0.scale'"):
        WorldModel.from_model(m)
    m.tensors.pop()
    m.tensors = [t for t in m.tensors if t.name != "predictor.1.bias"]
    with pytest.raises(ValidationError, match="predictor.1.bias"):
        WorldModel.from_model(m)
    m.tensor("encoder.0.weight").data = np.zeros(8)
    with pytest.raises(ValidationError, match="'encoder.0.weight' has shape \\(8,\\)"):
        WorldModel.from_model(m)


@pytest.mark.parametrize(
    "name, shape, message",
    [
        ("encoder.1.weight", (64, 50), "takes 50 inputs, expected 64"),
        ("encoder.3.weight", (8, 64), "has 8 outputs, expected 16"),
        ("predictor.0.weight", (64, 17), "takes 17 inputs, expected 18"),
        ("predictor.1.weight", (8, 64), "has 8 outputs, expected 16"),
        ("probe.0.weight", (2, 8), "takes 8 inputs, expected 16"),
    ],
)
def test_from_model_rejects_layers_that_do_not_chain(trained_model, name, shape, message):
    m = trained_model.to_model()
    m.tensor(name).data = np.zeros(shape, dtype=np.float32)
    with pytest.raises(ValidationError, match=f"'{name}' {message}"):
        WorldModel.from_model(m)


def test_from_model_rejects_a_fifth_encoder_layer(trained_model):
    # 16 -> 16 chains after the encoder's last layer, but the study encoder has four
    m = trained_model.to_model()
    m.tensors += [TensorRecord("encoder.4.weight", np.eye(16)),
                  TensorRecord("encoder.4.bias", np.zeros(16))]
    with pytest.raises(ValidationError, match="unknown tensor 'encoder.4.weight'"):
        WorldModel.from_model(m)


def test_quantized_encoder_bounded_divergence(trained_model, rng):
    v8 = apply_policy(trained_model, policy_for_name("uniform_int8", trained_model))
    obs = rng.uniform(0, 1, 256)
    d8 = np.linalg.norm(v8.encode(obs) - trained_model.encode(obs))
    assert 0 < d8 < 0.5


def test_rollout_divergence_direction(trained_model, rng):
    v3 = apply_policy(trained_model, policy_for_name("uniform_int3", trained_model))
    v8 = apply_policy(trained_model, policy_for_name("uniform_int8", trained_model))

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


def test_probe_error_direction_under_quantization(trained_model, dataset, env_cfg):
    v3 = apply_policy(trained_model, policy_for_name("uniform_int3", trained_model))
    obs, states = observations(env_cfg)[dataset.pixel[:200]], dataset.state[:200]
    e_fp = np.linalg.norm(
        trained_model.probe_decode(trained_model.encode(obs)) - states, axis=1
    ).mean()
    e_q = np.linalg.norm(
        trained_model.probe_decode(v3.encode(obs)) - states, axis=1
    ).mean()
    assert e_q > e_fp
