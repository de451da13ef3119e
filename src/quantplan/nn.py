"""Small encoder+predictor latent world model, trained from scratch.

Plain numpy MLPs with tanh between linear layers.  The encoder maps a
flattened observation to a d-dimensional latent, the predictor maps
(latent, action) to the next latent, and a linear probe decodes the agent
position from the latent for diagnostics.  Backpropagation is written out
by hand so gradients can be checked against finite differences.

Every parameter lives in one contiguous float32 vector `WorldModel.theta`, and
training and evaluation compute in float32; float64 is used only for init and
gradient checks (`init_world_model`).  A layer is the contiguous (in + 1, out)
block [Wᵀ; b] of theta, its weight's (in, out) transpose in C order followed by
its bias (out,), stack by stack in STACKS order (encoder, predictor, probe).
Every pass runs on the blocks: a layer's input ends in a ones column, so the
forward is one product x1 @ [Wᵀ; b], a plain NN gemm (1.3-2.6x faster at the
eval's predictor shapes than the transposed-B path an (out, in) weight would
take), and the backward's [dWᵀ; db] is one TN gemm x1ᵀ @ g written into the
gradient's block.  OpenBLAS's float32 kernels sum each output over k in order,
so the ones column, times 1.0 and summed last, rounds the forward as
fl(fl(x @ W.T) + b), and the bias row of x1ᵀ @ g is the sequential row sum
np.add.reduce(g, axis=0); tests pin both.  A training step's encoder layer 0
multiplies only the batch's lit input columns (those nonzero in some row, and the
ones column; `train_world_model` plans them for a whole epoch at once, see
`_plan_epoch`): a column that is 0 in every row adds ±0 to each in-order k-sum, so
x[:, cols] @ A0[cols] rounds as the full product, and the full gemm's gradient
row for such a column is +0, which the step writes there.  A layer's (W, b) are
views of its block, W the (out, in) transpose, for quantization, policies and
manifests.
Manifest tensors ("encoder.0.weight", ...) follow theta order, and a
checkpoint still stores each weight as (out, in) in C order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass
from functools import cached_property

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
    """A stack of linear layers with tanh between them (linear final layer).

    Layer i is blocks[i], the (in + 1, out) matrix [Wᵀ; b]: an input row
    ending in 1 times it is the layer's affine map."""

    def __init__(self, blocks: list[np.ndarray]):
        self.blocks = blocks

    @cached_property
    def layers(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W (out, in), b (out,)) views of each block; made on first use, as a
        training step's per-batch Stacks never read them."""
        return [(A[:-1].T, A[-1]) for A in self.blocks]

    @property
    def in_dim(self) -> int:
        return self.blocks[0].shape[0] - 1

    def workspaces(self, lead: tuple[int, ...]) -> list[np.ndarray]:
        """One (*lead, out + 1) array per hidden layer, for `forward` to write into."""
        return [np.empty((*lead, A.shape[1] + 1), A.dtype) for A in self.blocks[:-1]]

    def forward(self, x1: np.ndarray, hidden: list | None = None,
                out: np.ndarray | None = None) -> np.ndarray:
        """The output for the rows of x1 (..., in + 1), whose last column is 1.

        Hidden layer i is one matmul into hidden[i] (fresh `workspaces` if None),
        then tanh over all of it, then its last column set to 1: the next layer's
        input.  So [x1, *hidden] is every layer's input, the cache `backward`
        reads.  The last layer writes into `out` (a fresh array if None)."""
        if hidden is None:
            hidden = self.workspaces(x1.shape[:-1])
        x = x1
        for A, h in zip(self.blocks, hidden):
            np.matmul(x, A, out=h[..., :-1])
            np.tanh(h, out=h)  # one contiguous pass: 1.8x faster than over the strided h[..., :-1]
            h[..., -1] = 1
            x = h
        return np.matmul(x, self.blocks[-1], out=out)

    def backward(self, cache: list, grad_out: np.ndarray, grads: Stack) -> np.ndarray:
        """Write each layer's [dWᵀ; db] into the same block of `grads`, one gemm
        x1ᵀ @ g of the layer's input x1 = cache[i] (2-D) and the gradient g at its
        output; returns the gradient at layer 0's output.

        Overwrites every element of `grads`' blocks, so one buffer serves every
        call.  The tanh derivative is formed in place in `cache`, whose tanh
        outputs are spent by then; `grad_out` is left as it was."""
        g = grad_out
        last = len(self.blocks) - 1
        for i in range(last, -1, -1):
            if i < last:
                act = cache[i + 1]  # this layer's tanh output, read for the last time
                act *= act
                np.subtract(1.0, act, out=act)
                g = g @ self.blocks[i + 1][:-1].T  # layer i + 1's W
                g *= act[:, :-1]
            np.matmul(cache[i].T, g, out=grads.blocks[i])
        return g

    def flops(self) -> int:
        return sum(2 * W.size for W, _ in self.layers)


class WorldModel:
    """Encoder, predictor and probe Stacks whose layer blocks are views into
    `theta`; `dims` maps each STACKS attribute to its (out, in) layer shapes,
    and inputs are cast to `theta`'s dtype, so every pass computes in it."""

    def __init__(self, dims: dict, metadata: dict | None = None, dtype=np.float32):
        self.dims = dims
        self.theta = np.zeros(sum((i + 1) * o for name in STACKS for o, i in dims[name]), dtype)
        offset = 0
        for name in STACKS:
            blocks = []
            for out_d, in_d in dims[name]:
                size = (in_d + 1) * out_d
                blocks.append(self.theta[offset : offset + size].reshape(in_d + 1, out_d))
                offset += size
            setattr(self, name, Stack(blocks))
        self.metadata = metadata or {}

    def __deepcopy__(self, memo):
        # a field-by-field copy would detach the layer views from theta
        wm = WorldModel(self.dims, copy.deepcopy(self.metadata, memo), self.theta.dtype)
        wm.theta[...] = self.theta
        return wm

    # -- forward passes ----------------------------------------------------

    def _ones(self, *parts) -> np.ndarray:
        """The (what, x, dim) parts side by side and a ones column, in `theta`'s dtype;
        ValidationError names a part whose last dimension is not dim."""
        for what, x, dim in parts:
            if np.shape(x)[-1:] != (dim,):
                raise ValidationError(f"{what} must have last dimension {dim}, got {np.shape(x)}")
        x1 = np.empty((*np.shape(parts[0][1])[:-1], sum(p[2] for p in parts) + 1),
                      self.theta.dtype)
        col = 0
        for _, x, dim in parts:
            x1[..., col : col + dim] = x
            col += dim
        x1[..., -1] = 1
        return x1

    def encode(self, obs: np.ndarray) -> np.ndarray:
        """Latents of obs (..., obs_dim), or of obs (..., obs_dim + 1) ending in a
        ones column, as `env.observations(cfg, ones=True)` gives it: read in place."""
        obs = np.asarray(obs, dtype=self.theta.dtype)
        if obs.shape[-1:] != (self.encoder.in_dim + 1,):
            obs = self._ones(("observation", obs, self.encoder.in_dim))
        return self.encoder.forward(obs)

    def predict_next(self, latent: np.ndarray, action: np.ndarray) -> np.ndarray:
        dim = self.probe.in_dim  # the latent width; the predictor's other inputs are the action
        return self.predictor.forward(
            self._ones(("latent", latent, dim), ("action", action, self.predictor.in_dim - dim)))

    def probe_decode(self, latent: np.ndarray) -> np.ndarray:
        return self.probe.forward(self._ones(("latent", latent, self.probe.in_dim)))

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


class _Workspace:
    """Every activation `loss_and_grads` writes for a batch of up to `rows`
    transitions, each layer input ending in a ones column: the encoder's lit input
    `x` (`lit`), hidden layers and layer-0 gradient rows `g0`, its output `z`
    ([latent | 1], the probe's input), and the predictor's input `p`
    ([latent | action | 1]) and hidden layers.  A short batch uses the first rows,
    through views made once per batch size (`views`)."""

    def __init__(self, wm: WorldModel, rows: int):
        dtype = wm.theta.dtype
        self._x = np.empty(2 * rows * (wm.encoder.in_dim + 1), dtype)
        self.g0 = np.empty_like(wm.encoder.blocks[0])
        self.enc = wm.encoder.workspaces((2 * rows,))
        self.z = np.empty((2 * rows, wm.probe.in_dim + 1), dtype)
        self.p = np.empty((rows, wm.predictor.in_dim + 1), dtype)
        self.pred = wm.predictor.workspaces((rows,))
        for a in (self.z, self.p):
            a[:, -1] = 1
        self._views = {}

    def lit(self, cols: np.ndarray, rows: int) -> np.ndarray:
        """The encoder input `x` (rows, len(cols)) for the caller to fill with each
        row's values on `cols`, ascending and ending in the ones column, outside
        which every row is 0."""
        self.cols = cols
        self.x = self._x[: rows * len(cols)].reshape(rows, len(cols))
        return self.x

    def views(self, n: int):
        """(encoder hidden layers, z1, predictor hidden layers, p1) for a batch of n
        transitions: the first 2n encoder rows and the first n predictor rows."""
        if n not in self._views:
            self._views[n] = ([h[: 2 * n] for h in self.enc], self.z[: 2 * n],
                              [h[:n] for h in self.pred], self.p[:n])
        return self._views[n]


def _plan_epoch(perm: np.ndarray, pixels: np.ndarray, background: np.ndarray,
                batch_size: int) -> tuple[np.ndarray, np.ndarray]:
    """The lit inputs of an epoch's batches, each perm[lo : lo + batch_size]: its k
    transitions' 2k encoder rows (obs, then next_obs) are the rows `pixels[:, perm]`
    of the ones-augmented observation table, each its `background` row with 1.0
    at its pixel.

    Returns (mask, ones).  Row b of the boolean (batches, in + 1) `mask` marks batch
    b's `cols`: the background's nonzero columns (the wall pixels and the ones
    column) and the batch's pixels.  For the batch on perm[lo:hi], ones[2 * lo : 2 * hi]
    holds each encoder row's flat index of its 1.0 in the batch's (2k, len(cols))
    input: the row's start plus its pixel's rank among `cols`, read off one cumsum
    over `mask`.  Every array is sized by len(perm), whatever `batch_size` is."""
    n, width = len(perm), len(background)
    i = np.arange(n)
    batch = i // batch_size
    lo = batch * batch_size  # each transition's batch's first position in perm
    rows = i - lo + np.minimum(n - lo, batch_size) * np.arange(2)[:, None]  # obs, then next_obs
    lit = batch * width + np.take(pixels, perm, axis=1)  # each row's pixel in the flat mask
    mask = np.empty((batch[-1] + 1, width), bool)
    mask[...] = background != 0
    mask.ravel()[lit] = True
    rank = np.cumsum(mask, axis=1, dtype=np.int16)  # each lit column's rank among cols, plus 1
    ones = np.empty(2 * n, np.intp)
    ones[2 * lo + rows] = rows * np.take(rank[:, -1], batch) + np.take(rank, lit) - 1
    return mask, ones


def _loss(r_pred: np.ndarray, r_state: np.ndarray, pw: float, sw: float):
    """pw * mean_i |r_pred_i|^2 + sw * mean_i |r_state_i|^2 of the residual rows."""
    n = len(r_pred)
    # a flat view's np.add.reduce is np.sum's one pairwise pass over a contiguous array
    return (pw * np.add.reduce((r_pred * r_pred).ravel()) / n
            + sw * np.add.reduce((r_state * r_state).ravel()) / n)


def _latent_loss(wm: WorldModel, z1, p1, z_next, state, pw: float, sw: float, hidden):
    """(loss, r_pred, r_state) of `loss_and_grads` from the probe's input
    z1 = [z | 1] and the predictor's input p1 = [z | action | 1], z the latents
    of obs, and the latents z_next of next_obs on; the predictor's hidden
    layers go into `hidden`."""
    r_pred = wm.predictor.forward(p1, hidden)
    r_pred -= z_next
    r_state = wm.probe.forward(z1)
    r_state -= np.asarray(state, dtype=wm.theta.dtype)
    return _loss(r_pred, r_state, pw, sw), r_pred, r_state


# the most transitions one block of `_dataset_loss` runs the predictor and the probe on
LOSS_BLOCK = 1024


def _dataset_loss(wm: WorldModel, z: np.ndarray, dataset, pw: float, sw: float):
    """The training loss over the whole dataset, with no backward pass, from `z`,
    the latents of the ones-augmented observation table encoded as one 2-D
    product: each transition's latents are gathered by pixel.

    The predictor and the probe run on ceil(n / LOSS_BLOCK) blocks of
    consecutive transitions, as near equal in size as can be (so no block has
    one row unless the dataset does), and write their residuals into one
    (n, latent) and one (n, 2) array, which `_loss` sums as `loss_and_grads`
    sums its own: the passes hold at most LOSS_BLOCK transitions' activations.
    A row of an M-row float32 NN product equals that row of a product of up to
    8000 rows for every M >= 2, at every layer shape (measured with OpenBLAS
    0.3.31 under its SkylakeX and Sandybridge cores; a 1-row product goes through
    gemv and may differ), so with the default 256-row table and any dataset
    (2n >= 2 rows) this is bit-equal to `loss_and_grads`' loss on the gathered
    images.  Under the Haswell and Prescott cores the equality does not always
    hold: `test_dataset_loss_blocks_equal_the_whole_array_loss` fails [1025] and
    [2049] under Haswell and [2049] under Prescott."""
    n, dim = len(dataset), wm.probe.in_dim
    r_pred = np.empty((n, dim), wm.theta.dtype)  # the predictor's output is a latent
    r_state = np.empty((n, wm.probe.blocks[-1].shape[1]), wm.theta.dtype)
    blocks = -(-n // LOSS_BLOCK)
    for b in range(blocks):
        rows = slice(b * n // blocks, (b + 1) * n // blocks)
        z_obs = z[dataset.pixel[rows]]
        p1 = wm._ones(("latent", z_obs, dim),
                      ("action", dataset.action[rows], wm.predictor.in_dim - dim))
        wm.predictor.forward(p1, out=r_pred[rows])
        r_pred[rows] -= z[dataset.next_pixel[rows]]
        wm.probe.forward(wm._ones(("latent", z_obs, dim)), out=r_state[rows])
        r_state[rows] -= np.asarray(dataset.state[rows], dtype=wm.theta.dtype)
    return _loss(r_pred, r_state, pw, sw)


def loss_and_grads(
    wm: WorldModel, obs, action, next_obs, state, pw: float, sw: float,
    out: WorldModel | None = None, work: _Workspace | None = None,
):
    """Training loss and analytic gradients for one mini-batch, in `theta`'s dtype.

    loss = pw * mean_i |pred(enc(o_i), a_i) - enc(o'_i)|^2
         + sw * mean_i |probe(enc(o_i)) - s_i|^2

    obs and next_obs share one encoder pass over their 2n stacked rows, and
    one backward pass takes both latents' gradients, written into the blocks
    of `out`, a WorldModel shaped like `wm` (a fresh one if None).  Every element
    of `out` is overwritten, so a training loop passes the same buffer each step.
    The activations go into `work`, whose lit input `x` on columns `cols` the
    caller has already written for obs and next_obs (as `train_world_model` does
    from its epoch plan, passing views of it); if None, a fresh `_Workspace`
    lights the columns nonzero in some row of obs or next_obs, and the ones column,
    cast to `theta`'s dtype.  Encoder layer 0's forward is x @ A0[cols], and its
    gradient block holds x.T @ g in the `cols` rows and +0 in the others: the full
    products' bits while layer 0's weights are finite (see the module docstring).
    Returns (loss, out.theta): the gradient is one flat vector laid out like `theta`.
    """
    n = obs.shape[0]
    if work is None:
        work = _Workspace(wm, n)
        both = np.concatenate([obs, next_obs])
        cols = np.flatnonzero(np.append(both.any(axis=0), True))
        x = work.lit(cols, 2 * n)
        x[:, :-1] = both[:, cols[:-1]]
        x[:, -1] = 1
    x, cols = work.x, work.cols
    enc_h, z1, pred_h, p1 = work.views(n)
    encoder = Stack([wm.encoder.blocks[0][cols], *wm.encoder.blocks[1:]])
    encoder.forward(x, enc_h, out=z1[:, :-1])
    latent = z1.shape[1] - 1
    p1[:, :latent] = z1[:n, :-1]
    p1[:, latent:-1] = action  # cast into theta's dtype
    loss, r_pred, r_state = _latent_loss(wm, z1[:n], p1, z1[n:, :-1], state, pw, sw, pred_h)
    if out is None:
        out = WorldModel(wm.dims, dtype=wm.theta.dtype)
    g_p, g_s = r_pred, r_state
    for g, w in ((g_p, pw), (g_s, sw)):  # 2 * w * r / n in place, op by op in that order
        g *= 2.0 * w
        g /= n
    # backward stops at layer 0's output, so the encoder's unused input gradient is never formed
    g_pred = wm.predictor.backward([p1, *pred_h], g_p, out.predictor)
    g_probe = wm.probe.backward([z1[:n]], g_s, out.probe)
    g_z = (g_pred @ wm.predictor.layers[0][0])[:, :latent] + g_probe @ wm.probe.layers[0][0]
    g0 = work.g0[: len(cols)]
    encoder.backward([x, *enc_h], np.concatenate([g_z, -g_p]),
                     Stack([g0, *out.encoder.blocks[1:]]))
    dA0 = out.encoder.blocks[0]
    dA0[...] = 0
    dA0[cols] = g0
    return loss, out.theta


def train_world_model(dataset, cfg: TrainConfig, master_seed: int = 0) -> WorldModel:
    """Adam training; deterministic given (dataset bytes, cfg, master_seed).

    A step allocates no parameter-sized array: `loss_and_grads` overwrites one
    gradient buffer and one `_Workspace` of activations, and Adam runs in place
    through two scratch vectors, op by op in the order of `m = b1*m + (1-b1)*g`,
    `v = b2*v + (1-b2)*g*g` and `theta -= lr_t*m / (sqrt(v) + eps)`, so each
    float32 op rounds as there.  A step's 2n encoder rows (obs, then next_obs)
    are the ones-augmented float32 `env.observations` table's rows on the batch's
    lit columns only (the wall pixels, the batch's pixels and the ones column): at
    batch 64, about 103 of layer 0's 257 inputs.  Each epoch is planned once from
    its permutation (`_plan_epoch`): every batch's lit columns and the flat index
    of each encoder row's 1.0, and the epoch's actions and states, cast to float32
    once and gathered in its order.  A step then takes its columns off the plan's
    mask, copies the table's background row onto them and writes its 1.0s, so it
    runs only its arithmetic.
    The initial and final full-dataset losses run the forward pass only, on
    blocks of at most `LOSS_BLOCK` transitions (`_dataset_loss`), so training
    holds no activation per transition of the dataset.  A non-finite batch
    loss or final loss raises TrainingDivergenceError, so no diverged model is
    returned.  Training ends
    with `fit_state_probe`, which reads the final loss's encode of the
    observation table: the loss is the trained probe's, the model returned
    holds the refit one.
    """
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    table = observations(dataset.cfg, ones=True)
    background = table.min(axis=0)  # each column's value on every row but its own pixel's
    init = init_world_model(table.shape[1] - 1, master_seed=master_seed, seed=cfg.seed)
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
    initial_loss = _dataset_loss(wm, wm.encode(table), dataset, pw, sw)
    n = len(dataset)
    pixels = np.stack([dataset.pixel, dataset.next_pixel])
    action, state = (np.asarray(x, theta.dtype) for x in (dataset.action, dataset.state))
    work = _Workspace(wm, min(n, cfg.batch_size))
    epoch_losses = []
    for _ in range(cfg.epochs):
        perm = order_gen.permutation(n)
        mask, ones = _plan_epoch(perm, pixels, background, cfg.batch_size)
        epoch_action, epoch_state = (np.take(a, perm, axis=0) for a in (action, state))
        batch_losses = []
        for b, lo in enumerate(range(0, n, cfg.batch_size)):
            hi = min(lo + cfg.batch_size, n)
            cols = np.flatnonzero(mask[b])
            x = work.lit(cols, 2 * (hi - lo))
            x[...] = background[cols]
            x.ravel()[ones[2 * lo : 2 * hi]] = 1
            loss, _ = loss_and_grads(wm, x[: hi - lo], epoch_action[lo:hi], x[hi - lo :],
                                     epoch_state[lo:hi], pw, sw, grad, work)
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

    z = wm.encode(table)
    final_loss = _dataset_loss(wm, z, dataset, pw, sw)
    if not np.isfinite(final_loss):  # the batches' losses can all be finite before it
        raise TrainingDivergenceError(f"non-finite final training loss: {final_loss}")
    wm.metadata["train"] = {
        "initial_loss": float(initial_loss),
        "final_loss": float(final_loss),
        "epoch_losses": epoch_losses,
        "config": asdict(cfg),
    }
    return fit_state_probe(wm, dataset, z)


def fit_state_probe(wm: WorldModel, dataset, latents: np.ndarray | None = None) -> WorldModel:
    """Least-squares refit of the probe on (encode(observation), state) pairs.

    The latents are gathered by pixel from `latents`, one 2-D encode of the
    ones-augmented observation table (made here if None), bit-equal to encoding
    the gathered images from 2 transitions on (see `_dataset_loss`).
    The targets are read in `theta`'s dtype, as every pass here reads its
    inputs, so a fresh dataset and its float32 `dataset/` reload fit the same
    probe.  The fit is solved in float64 and written into `theta`'s dtype.  The
    encoder is untouched; a rank-deficient fit sets a warning flag in the
    model metadata instead of failing.
    """
    if latents is None:
        latents = wm.encode(observations(dataset.cfg, ones=True))
    z = latents[dataset.pixel]
    A = np.hstack([z, np.ones((z.shape[0], 1))])  # the float64 ones column makes A float64
    sol, _, rank, _ = np.linalg.lstsq(A, np.asarray(dataset.state, wm.theta.dtype), rcond=None)
    W, b = wm.probe.layers[0]
    W[...] = sol[:-1].T  # in place, so the probe stays a view into theta
    b[...] = sol[-1]
    if rank < A.shape[1]:
        wm.metadata["probe_fit_warning"] = f"rank-deficient probe fit (rank {rank})"
    return wm
