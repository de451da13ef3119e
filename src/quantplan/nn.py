"""Small encoder+predictor latent world model, trained from scratch.

Plain numpy MLPs with tanh between linear layers.  The encoder maps a
flattened observation to a d-dimensional latent, the predictor maps
(latent, action) to the next latent, and a linear probe decodes the agent
position from the latent for diagnostics.  Backpropagation is written out
by hand so gradients can be checked against finite differences.

Every parameter lives in one contiguous float32 vector `WorldModel.theta`, and
training and evaluation compute in float32; float64 is used only for init and
gradient checks (`init_world_model`).  Each Stack layer's (W, b) are reshaped
views into theta, stack by stack in STACKS order (encoder, predictor, probe),
each weight followed by its bias (out,).  A weight is stored as its (in, out)
transpose in C order and W is the transposed view, logically (out, in): every
forward product h @ W.T then reads a C-contiguous matrix and takes BLAS's
plain NN gemm, which at the eval's predictor shapes is 1.3-2.6x faster
than the transposed-B path an (out, in) block would take.  Manifest tensors
("encoder.0.weight", ...) follow the same order, and a checkpoint still
stores each weight as (out, in) in C order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass

import numpy as np

from . import rng
from .env import observations
from .errors import TrainingDivergenceError, ValidationError
from .store import Model, TensorRecord

LATENT_DIM = 16
HIDDEN_DIM = 64
ENCODER_DEPTH = 4
PREDICTOR_DEPTH = 2
ACTION_DIM = 2

# WorldModel stack attributes in theta order
STACKS = ("encoder", "predictor", "probe")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 64
    learning_rate: float = 1e-3
    prediction_loss_weight: float = 1.0
    state_loss_weight: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.epochs, self.batch_size) < 1 or self.learning_rate <= 0:
            raise ValidationError("epochs, batch_size, learning_rate must be positive")
        if self.prediction_loss_weight <= 0 or self.state_loss_weight <= 0:
            raise ValidationError("loss weights must be positive")


def study_dims(obs_dim: int, latent_dim: int = LATENT_DIM, encoder_depth: int = ENCODER_DEPTH,
               predictor_depth: int = PREDICTOR_DEPTH) -> dict[str, list[tuple[int, int]]]:
    """Each STACKS attribute's (out, in) layer shapes; the defaults give the study model."""
    widths = {
        "encoder": [obs_dim, *[HIDDEN_DIM] * (encoder_depth - 1), latent_dim],
        "predictor": [latent_dim + ACTION_DIM, *[HIDDEN_DIM] * (predictor_depth - 1), latent_dim],
        "probe": [latent_dim, 2],
    }
    return {name: list(zip(w[1:], w[:-1])) for name, w in widths.items()}  # (out, in) pairs


class Stack:
    """A stack of linear layers with tanh between them (linear final layer)."""

    def __init__(self, layers: list[tuple[np.ndarray, np.ndarray]]):
        self.layers = layers  # list of (W (out,in), b (out,))

    @property
    def in_dim(self) -> int:
        return self.layers[0][0].shape[1]

    def forward(
        self, x: np.ndarray, cache: list | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Append each layer's input to `cache` if given: layer i's tanh output is cache[i + 1].
        The last layer writes into `out` if given, which may be a view into `x`."""
        # in place on the fresh matmul output: forward writes no array after caching it
        h = x
        last = len(self.layers) - 1
        for i, (W, b) in enumerate(self.layers):
            if cache is not None:
                cache.append(h)
            h = np.matmul(h, W.T, out=out if i == last else None)
            h += b
            if i < last:
                np.tanh(h, out=h)
        return h

    def backward(self, cache: list, grad_out: np.ndarray, grads: Stack) -> np.ndarray:
        """Write each layer's (dW, db) into the same layer of `grads`; returns the
        gradient at layer 0's linear output (times layers[0][0] gives grad_input).

        Overwrites every element of `grads`' layers, so one buffer serves every
        call.  The tanh derivative is formed in place in `cache`, whose tanh
        outputs are spent by then; `grad_out` is left as it was."""
        g = grad_out
        for i in range(len(self.layers) - 1, -1, -1):
            if i < len(self.layers) - 1:
                act = cache[i + 1]  # this layer's tanh output, read for the last time
                act *= act
                np.subtract(1.0, act, out=act)
                g = g @ self.layers[i + 1][0]
                g *= act
            dW, db = grads.layers[i]
            np.matmul(g.T, cache[i], out=dW)
            np.add.reduce(g, axis=0, out=db)
        return g

    def flops(self) -> int:
        return sum(2 * W.size for W, _ in self.layers)


class WorldModel:
    """Encoder, predictor and probe Stacks whose layers are views into `theta`;
    `dims` maps each STACKS attribute to its (out, in) layer shapes, and
    inputs are cast to `theta`'s dtype, so every pass computes in it."""

    def __init__(self, dims: dict, metadata: dict | None = None, dtype=np.float32):
        self.dims = dims
        self.theta = np.zeros(sum(o * i + o for name in STACKS for o, i in dims[name]), dtype)
        offset = 0
        for name in STACKS:
            layers = []
            for out_d, in_d in dims[name]:
                # stored (in, out) in C order, so forward's h @ W.T is an NN gemm
                W = self.theta[offset : offset + out_d * in_d].reshape(in_d, out_d).T
                offset += W.size
                layers.append((W, self.theta[offset : offset + out_d]))
                offset += out_d
            setattr(self, name, Stack(layers))
        self.metadata = metadata or {}

    def __deepcopy__(self, memo):
        # a field-by-field copy would detach the layer views from theta
        wm = WorldModel(self.dims, copy.deepcopy(self.metadata, memo), self.theta.dtype)
        wm.theta[...] = self.theta
        return wm

    # -- forward passes ----------------------------------------------------

    def _check(self, x: np.ndarray, dim: int, what: str) -> np.ndarray:
        x = np.asarray(x, dtype=self.theta.dtype)
        if x.shape[-1] != dim:
            raise ValidationError(f"{what} must have last dimension {dim}, got {x.shape}")
        return x

    def encode(self, obs: np.ndarray) -> np.ndarray:
        return self.encoder.forward(self._check(obs, self.encoder.in_dim, "observation"))

    def predict_next(self, latent: np.ndarray, action: np.ndarray) -> np.ndarray:
        z = self._check(latent, LATENT_DIM, "latent")
        a = self._check(action, ACTION_DIM, "action")
        return self.predictor.forward(np.concatenate([z, a], axis=-1))

    def probe_decode(self, latent: np.ndarray) -> np.ndarray:
        return self.probe.forward(self._check(latent, LATENT_DIM, "latent"))

    # -- parameter plumbing ------------------------------------------------

    def named_params(self):
        """("{stack}.{i}.weight" or "{stack}.{i}.bias", view) per tensor, in theta order.

        The one statement of what each checkpoint tensor is: checkpoints store
        only names and shapes."""
        for stack in STACKS:
            for i, (W, b) in enumerate(getattr(self, stack).layers):
                yield f"{stack}.{i}.weight", W
                yield f"{stack}.{i}.bias", b

    def flops_per_encode(self) -> int:
        return self.encoder.flops()

    def flops_per_predict(self) -> int:
        return self.predictor.flops()

    # -- manifest round trip -------------------------------------------------

    def to_model(self) -> Model:
        tensors = [TensorRecord(name, p) for name, p in self.named_params()]
        return Model(tensors=tensors, extras=dict(self.metadata))

    @classmethod
    def from_model(cls, model: Model) -> "WorldModel":
        """Inverse of `to_model` for the study model (`study_dims`) of any observation width;
        ValidationError names a tensor that is missing, unknown or of another shape."""
        shape = model.tensor("encoder.0.weight").data.shape
        if len(shape) != 2:
            raise ValidationError(f"tensor 'encoder.0.weight' has shape {shape}, expected 2-D")
        wm = cls(study_dims(shape[1]), dict(model.extras))
        params = dict(wm.named_params())
        if unknown := [t.name for t in model.tensors if t.name not in params]:
            raise ValidationError(f"unknown tensor {unknown[0]!r}")
        for name, p in params.items():
            data = model.tensor(name).data
            got, want = data.shape, p.shape
            if len(got) != len(want):
                raise ValidationError(f"tensor {name!r} has shape {got}, expected {want}")
            if got[1:] != want[1:]:  # only a weight has an input width
                raise ValidationError(f"tensor {name!r} takes {got[1]} inputs, expected {want[1]}")
            if got != want:
                raise ValidationError(f"tensor {name!r} has {got[0]} outputs, expected {want[0]}")
            p[...] = data
        return wm


def init_world_model(
    obs_dim: int,
    master_seed: int = 0,
    seed: int = 0,
    latent_dim: int = LATENT_DIM,
    encoder_depth: int = ENCODER_DEPTH,
    predictor_depth: int = PREDICTOR_DEPTH,
) -> WorldModel:
    gen = rng.stream(master_seed, "init", seed)
    dims = study_dims(obs_dim, latent_dim, encoder_depth, predictor_depth)
    wm = WorldModel(dims, dtype=np.float64)
    for name, p in wm.named_params():
        if name.endswith(".weight"):
            bound = np.sqrt(6.0 / sum(p.shape))
            p[...] = gen.uniform(-bound, bound, p.shape)
    return wm


def _latent_loss(wm: WorldModel, z, z_next, action, state, pw: float, sw: float,
                 caches=(None, None)):
    """(loss, r_pred, r_state) of `loss_and_grads` from the latents of obs and
    next_obs on; `caches` holds the predictor's and the probe's lists, or Nones."""
    action, state = (np.asarray(x, dtype=wm.theta.dtype) for x in (action, state))
    n = z.shape[0]
    c_pred, c_probe = caches
    p = wm.predictor.forward(np.concatenate([z, action], axis=-1), c_pred)
    probe_out = wm.probe.forward(z, c_probe)

    r_pred = p - z_next
    r_state = probe_out - state
    loss = pw * np.sum(r_pred * r_pred) / n + sw * np.sum(r_state * r_state) / n
    return loss, r_pred, r_state


def _dataset_loss(wm: WorldModel, table: np.ndarray, dataset, pw: float, sw: float):
    """The training loss over the whole dataset, with no backward pass: the
    table's rows are encoded once as one 2-D product and each transition's
    latents are gathered by pixel.  A row of an M-row float32 NN product equals
    that row of a product of up to 8000 rows for every M >= 2, at every layer
    shape (measured with OpenBLAS 0.3.31; a 1-row product goes through gemv
    and may differ), so with the default 256-row table and any dataset (2n >= 2
    rows) this is bit-equal to `loss_and_grads`' loss on the gathered images."""
    z = wm.encode(table)
    return _latent_loss(wm, z[dataset.pixel], z[dataset.next_pixel], dataset.action,
                        dataset.state, pw, sw)[0]


def loss_and_grads(
    wm: WorldModel, obs, action, next_obs, state, pw: float, sw: float,
    out: WorldModel | None = None,
):
    """Training loss and analytic gradients for one mini-batch, in `theta`'s dtype.

    loss = pw * mean_i |pred(enc(o_i), a_i) - enc(o'_i)|^2
         + sw * mean_i |probe(enc(o_i)) - s_i|^2

    obs and next_obs share one encoder pass over their 2n stacked rows, and
    one backward pass takes both latents' gradients, written into the views of
    `out`, a WorldModel shaped like `wm` (a fresh one if None).  Every element
    of `out` is overwritten, so a training loop passes the same buffer each step.
    Returns (loss, out.theta): the gradient is one flat vector laid out like `theta`.
    """
    c_enc, c_pred, c_probe = [], [], []  # each stack's layer inputs
    obs, next_obs = (np.asarray(x, dtype=wm.theta.dtype) for x in (obs, next_obs))
    n = obs.shape[0]
    z_both = wm.encoder.forward(np.concatenate([obs, next_obs]), c_enc)
    loss, r_pred, r_state = _latent_loss(wm, z_both[:n], z_both[n:], action, state, pw, sw,
                                         (c_pred, c_probe))
    if out is None:
        out = WorldModel(wm.dims, dtype=wm.theta.dtype)
    latent = r_pred.shape[1]
    g_p, g_s = r_pred, r_state
    for g, w in ((g_p, pw), (g_s, sw)):  # 2 * w * r / n in place, op by op in that order
        g *= 2.0 * w
        g /= n
    # backward stops at layer 0's output, so the encoder's unused input gradient is never formed
    g_pred = wm.predictor.backward(c_pred, g_p, out.predictor)
    g_probe = wm.probe.backward(c_probe, g_s, out.probe)
    g_z = (g_pred @ wm.predictor.layers[0][0])[:, :latent] + g_probe @ wm.probe.layers[0][0]
    wm.encoder.backward(c_enc, np.concatenate([g_z, -g_p]), out.encoder)
    return loss, out.theta


def train_world_model(dataset, cfg: TrainConfig, master_seed: int = 0) -> WorldModel:
    """Adam training; deterministic given (dataset bytes, cfg, master_seed).

    A step allocates no parameter-sized array: `loss_and_grads` overwrites one
    gradient buffer, and Adam runs in place through two scratch vectors, op by
    op in the order of `m = b1*m + (1-b1)*g`, `v = b2*v + (1-b2)*g*g` and
    `theta -= lr_t*m / (sqrt(v) + eps)`, so each float32 op rounds as there.
    A step's observations are rows of the float32 `env.observations` table,
    gathered by the batch's pixels.  The initial and final full-dataset losses
    run the forward pass only (`_dataset_loss`).  A non-finite batch loss or
    final loss raises TrainingDivergenceError, so no diverged model is returned.
    """
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    table = observations(dataset.cfg)
    init = init_world_model(table.shape[1], master_seed=master_seed, seed=cfg.seed)
    wm = WorldModel(init.dims)
    wm.theta[...] = init.theta
    order_gen = rng.stream(master_seed, "train", cfg.seed)

    theta = wm.theta
    grad = WorldModel(wm.dims)
    g = grad.theta
    m, v, s, d = (np.zeros_like(theta) for _ in range(4))  # s, d: Adam's scratch
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    t = 0

    pw, sw = cfg.prediction_loss_weight, cfg.state_loss_weight
    pix, action, next_pix, state = dataset.pixel, dataset.action, dataset.next_pixel, dataset.state
    initial_loss = _dataset_loss(wm, table, dataset, pw, sw)
    n = len(dataset)
    epoch_losses = []
    for _ in range(cfg.epochs):
        perm = order_gen.permutation(n)
        batch_losses = []
        for lo in range(0, n, cfg.batch_size):
            idx = perm[lo : lo + cfg.batch_size]
            loss, _ = loss_and_grads(wm, table[pix[idx]], action[idx], table[next_pix[idx]],
                                     state[idx], pw, sw, grad)
            if not np.isfinite(loss):
                raise TrainingDivergenceError(f"non-finite training loss: {loss}")
            batch_losses.append(loss)
            t += 1
            # a Python float: an np.float64 here would upcast the update to float64
            lr_t = cfg.learning_rate * math.sqrt(1 - beta2**t) / (1 - beta1**t)
            m *= beta1
            np.multiply(g, 1 - beta1, out=s)
            m += s
            v *= beta2
            np.multiply(g, 1 - beta2, out=s)
            s *= g
            v += s
            np.multiply(m, lr_t, out=s)
            np.sqrt(v, out=d)
            d += eps
            s /= d
            theta -= s
        epoch_losses.append(float(np.mean(batch_losses)))

    final_loss = _dataset_loss(wm, table, dataset, pw, sw)
    if not np.isfinite(final_loss):  # the batches' losses can all be finite before it
        raise TrainingDivergenceError(f"non-finite final training loss: {final_loss}")
    wm.metadata["train"] = {
        "initial_loss": float(initial_loss),
        "final_loss": float(final_loss),
        "epoch_losses": epoch_losses,
        "config": asdict(cfg),
    }
    return wm


def fit_state_probe(wm: WorldModel, dataset) -> WorldModel:
    """Least-squares refit of the probe on (encode(observation), state) pairs.

    The latents are gathered by pixel from one 2-D encode of the observation
    table, bit-equal to encoding the gathered images from 2 transitions on
    (see `_dataset_loss`).
    The targets are read in `theta`'s dtype, as every pass here reads its
    inputs, so a fresh dataset and its float32 `dataset/` reload fit the same
    probe.  The fit is solved in float64 and written into `theta`'s dtype.  The
    encoder is untouched; a rank-deficient fit sets a warning flag in the
    model metadata instead of failing.
    """
    z = wm.encode(observations(dataset.cfg))[dataset.pixel]
    A = np.hstack([z, np.ones((z.shape[0], 1))])  # the float64 ones column makes A float64
    sol, _, rank, _ = np.linalg.lstsq(A, np.asarray(dataset.state, wm.theta.dtype), rcond=None)
    W, b = wm.probe.layers[0]
    W[...] = sol[:-1].T  # in place, so the probe stays a view into theta
    b[...] = sol[-1]
    if rank < A.shape[1]:
        wm.metadata["probe_fit_warning"] = f"rank-deficient probe fit (rank {rank})"
    return wm
