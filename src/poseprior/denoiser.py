"""Noise-prediction MLP: forward pass, exact backward pass, Adam, EMA.

The network maps a noised flat pose (3J, in normalized space) and a
step index to a noise estimate of the same shape. Architecture: input
linear, two residual blocks of [linear, batch-norm, ReLU] x 2, output
linear. A sinusoidal step encoding is projected by a two-layer
feed-forward net and added to the hidden activation entering every
hidden-to-hidden linear (the four block linears and the output linear).
That is eight linears in total.

One network body, ``_forward_core``, serves training and eval. The
training forward uses batch statistics and one GEMM per linear over the
batch. The eval forward, ``make_eval_forward``, uses the EMA weights and
the running statistics and multiplies row by row, so rows are
independent: a row's output does not depend on the other rows of its
block. It copies each wide weight once into column panels of
PANEL_COLS columns and runs every row over one panel before moving to
the next, so a panel is read from cache by all rows of the block. Each
row still runs its own product over the full inner dimension, and the
panel split keeps every bit of the 2-D product (see ``_panels``).

All math runs in float64. Parameters, EMA shadows, Adam moments and
batch-norm running statistics are kept on the float32 grid (snapped
after every update) so checkpoints, which store them as float32, round
trip without changing the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .numeric import RngStream
from .schedule import DiffusionSchedule

__all__ = [
    "DenoiserModel",
    "sinusoidal_embedding",
    "loss_and_grads",
    "adam_step",
    "ema_update",
    "train",
    "make_eval_forward",
    "PARAM_KEYS",
    "STAT_KEYS",
]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
NORM_STD_FLOOR = 1e-8
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Columns per eval weight panel. A 1024-row panel is 512 KB and stays in
# a 2 MB L2 while every row of a block uses it. One 1024 x 1024 linear
# (2-vCPU Xeon, OpenBLAS 0.3.31, one thread, median ms): 0.50-0.62 at
# M = 2, 6.9-10.4 at M = 50 and 164-225 at M = 1000 (the step-embedding
# table), against 0.68-0.95, 18-22 and 350-420 row by row over the 2-D
# weight.
# Widths 32 and 128 performed the same; 256 was slower at M = 2.
PANEL_COLS = 64

# canonical parameter order; also the checkpoint tensor order
PARAM_KEYS = (
    "te1_w", "te1_b", "te2_w", "te2_b",
    "in_w", "in_b",
    "b1_l1_w", "b1_l1_b", "b1_bn1_g", "b1_bn1_b",
    "b1_l2_w", "b1_l2_b", "b1_bn2_g", "b1_bn2_b",
    "b2_l1_w", "b2_l1_b", "b2_bn1_g", "b2_bn1_b",
    "b2_l2_w", "b2_l2_b", "b2_bn2_g", "b2_bn2_b",
    "out_w", "out_b",
)
STAT_KEYS = (
    "b1_bn1_m", "b1_bn1_v", "b1_bn2_m", "b1_bn2_v",
    "b2_bn1_m", "b2_bn1_v", "b2_bn2_m", "b2_bn2_v",
)
_BLOCKS = ("b1", "b2")


def param_shapes(joints: int, hidden_dim: int) -> dict:
    d, h = 3 * joints, hidden_dim
    shapes = {
        "te1_w": (h, h), "te1_b": (h,), "te2_w": (h, h), "te2_b": (h,),
        "in_w": (d, h), "in_b": (h,),
        "out_w": (h, d), "out_b": (d,),
    }
    for blk in _BLOCKS:
        for lin in ("l1", "l2"):
            shapes[f"{blk}_{lin}_w"] = (h, h)
            shapes[f"{blk}_{lin}_b"] = (h,)
        for bn in ("bn1", "bn2"):
            shapes[f"{blk}_{bn}_g"] = (h,)
            shapes[f"{blk}_{bn}_b"] = (h,)
    return shapes


def _snap(arr: np.ndarray) -> np.ndarray:
    """Round to the nearest float32-representable value, staying float64."""
    return arr.astype(np.float32).astype(np.float64)


@dataclass
class DenoiserModel:
    joints: int
    hidden_dim: int
    sched: DiffusionSchedule
    params: dict = field(repr=False)
    ema_params: dict = field(repr=False)
    bn_stats: dict = field(repr=False)
    norm_mean: np.ndarray = field(repr=False)
    norm_std: np.ndarray = field(repr=False)
    adam_m: dict = field(repr=False)
    adam_v: dict = field(repr=False)
    adam_steps: int = 0

    @property
    def dim(self) -> int:
        return 3 * self.joints

    @classmethod
    def initialize(cls, joints: int, hidden_dim: int, sched: DiffusionSchedule,
                   rng: RngStream) -> "DenoiserModel":
        if hidden_dim % 2 != 0 or hidden_dim < 4:
            raise ValueError(f"hidden_dim must be even and >= 4, got {hidden_dim}")
        shapes = param_shapes(joints, hidden_dim)
        params = {}
        for key in PARAM_KEYS:
            shape = shapes[key]
            if key.endswith("_w"):
                bound = 1.0 / np.sqrt(shape[0])
                params[key] = _snap(rng.uniform(-bound, bound, shape))
            elif key.endswith("_g"):
                params[key] = np.ones(shape)
            elif key.endswith(("bn1_b", "bn2_b")):
                params[key] = np.zeros(shape)
            else:  # linear bias
                fan_in = shapes[key[:-2] + "_w"][0]
                bound = 1.0 / np.sqrt(fan_in)
                params[key] = _snap(rng.uniform(-bound, bound, shape))
        stats = {}
        for key in STAT_KEYS:
            stats[key] = np.zeros(hidden_dim) if key.endswith("_m") else np.ones(hidden_dim)
        d = 3 * joints
        return cls(
            joints=joints, hidden_dim=hidden_dim, sched=sched,
            params=params,
            ema_params={k: v.copy() for k, v in params.items()},
            bn_stats=stats,
            norm_mean=np.zeros(d), norm_std=np.ones(d),
            adam_m={k: np.zeros_like(v) for k, v in params.items()},
            adam_v={k: np.zeros_like(v) for k, v in params.items()},
        )

    def normalize(self, poses_flat: np.ndarray) -> np.ndarray:
        return (poses_flat - self.norm_mean) / self.norm_std

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.norm_std + self.norm_mean


def sinusoidal_embedding(t, dim: int) -> np.ndarray:
    """Standard sin/cos step encoding, shape (..., dim); dim must be even."""
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    angles = t[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _panels(w):
    """Weight ``w`` (K, N) as a contiguous (N / PANEL_COLS, 1, K, PANEL_COLS)
    stack of column panels, or ``w`` itself unless N is a multiple of
    PANEL_COLS larger than it.

    The panels give ``_rowwise`` the bits of the 2-D product: each output
    column is the same K-long dot product, computed by the same kernel
    path. A split that leaves a narrow tail panel does not: with 2 or 3
    columns left over (N = 66, 130, 1026) the tail columns came out
    different, hence the multiple-of rule.
    """
    k, n = w.shape
    if n <= PANEL_COLS or n % PANEL_COLS:
        return w
    stack = w.reshape(k, n // PANEL_COLS, PANEL_COLS).transpose(1, 0, 2)
    return np.ascontiguousarray(stack)[:, None]


def _rowwise(a, w):
    """``a @ w`` computed one row at a time, so a row's result does not
    depend on the other rows in the block (a GEMM over the block does).

    ``w`` is a 2-D weight or a panel stack from ``_panels``. For a stack,
    numpy's matmul loops over the panels outside and the rows inside, so
    each panel stays in cache while every row multiplies it; the (panel,
    row) results are then put back in (row, column) order.
    """
    if w.ndim == 2:
        return (a[:, None, :] @ w)[:, 0, :]
    out = (a[None, :, None, :] @ w)[:, :, 0, :]
    return out.transpose(1, 0, 2).reshape(a.shape[0], -1)


def _project_temb(params, t_arr, matmul=np.matmul) -> tuple:
    """Two-layer feed-forward projection of the sinusoidal encoding."""
    dim = params["te1_b"].shape[0]
    e_sin = sinusoidal_embedding(t_arr, dim)
    z1 = matmul(e_sin, params["te1_w"]) + params["te1_b"]
    r1 = np.maximum(z1, 0.0)
    e = matmul(r1, params["te2_w"]) + params["te2_b"]
    return e, (e_sin, z1, r1)


def _bn_train(z, gamma, beta):
    mu = z.mean(axis=0)
    var = z.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    zhat = (z - mu) * inv_std
    return gamma * zhat + beta, (zhat, inv_std, mu, var)


def _bn_eval(z, gamma, beta, rm, rv):
    scale = gamma / np.sqrt(rv + BN_EPS)
    return z * scale + (beta - rm * scale)


def _forward_core(params, bn_stats, x, t_arr, train: bool, temb=None):
    """The network body for training and eval. Returns (out, cache).

    Training multiplies the whole batch with one GEMM and keeps a cache
    for the backward pass. Eval multiplies row by row and returns no
    cache, so each output row equals its own 1-row call bit for bit.
    Training projects the step embedding from ``t_arr``; eval takes it
    precomputed as ``temb``.
    """
    matmul = np.matmul if train else _rowwise
    e, temb_cache = _project_temb(params, t_arr) if train else (temb, None)
    h = matmul(x, params["in_w"]) + params["in_b"]
    cache = {"x": x, "temb": temb_cache, "e": e, "h_in": h, "blocks": []} if train else None

    for blk in _BLOCKS:
        h_skip = h
        blk_cache = {"h_skip": h_skip}
        for i, (lin, bn) in enumerate((("l1", "bn1"), ("l2", "bn2"))):
            a = h + e
            z = matmul(a, params[f"{blk}_{lin}_w"]) + params[f"{blk}_{lin}_b"]
            if train:
                n, bn_cache = _bn_train(z, params[f"{blk}_{bn}_g"], params[f"{blk}_{bn}_b"])
                blk_cache[f"a{i}"] = a
                blk_cache[f"bn{i}"] = bn_cache
                blk_cache[f"n{i}"] = n
            else:
                n = _bn_eval(z, params[f"{blk}_{bn}_g"], params[f"{blk}_{bn}_b"],
                             bn_stats[f"{blk}_{bn}_m"], bn_stats[f"{blk}_{bn}_v"])
            h = np.maximum(n, 0.0)
        h = h_skip + h
        if train:
            cache["blocks"].append(blk_cache)
    a_out = h + e
    out = matmul(a_out, params["out_w"]) + params["out_b"]
    if train:
        cache["a_out"] = a_out
    return out, cache


def _backward_core(params, cache, dout):
    """Exact reverse-mode gradients of the training forward pass."""
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    a_out = cache["a_out"]
    grads["out_w"] = a_out.T @ dout
    grads["out_b"] = dout.sum(axis=0)
    dh = dout @ params["out_w"].T
    de = dh.copy()  # embedding feeds the output pre-activation too

    for blk, blk_cache in zip(reversed(_BLOCKS), reversed(cache["blocks"])):
        dh_skip = dh.copy()  # residual connection
        dr = dh
        for i, (lin, bn) in ((1, ("l2", "bn2")), (0, ("l1", "bn1"))):
            n = blk_cache[f"n{i}"]
            dn = dr * (n > 0.0)
            zhat, inv_std, _, _ = blk_cache[f"bn{i}"]
            grads[f"{blk}_{bn}_g"] = (dn * zhat).sum(axis=0)
            grads[f"{blk}_{bn}_b"] = dn.sum(axis=0)
            dzhat = dn * params[f"{blk}_{bn}_g"]
            b = zhat.shape[0]
            dz = (inv_std / b) * (
                b * dzhat - dzhat.sum(axis=0) - zhat * (dzhat * zhat).sum(axis=0)
            )
            a = blk_cache[f"a{i}"]
            grads[f"{blk}_{lin}_w"] = a.T @ dz
            grads[f"{blk}_{lin}_b"] = dz.sum(axis=0)
            da = dz @ params[f"{blk}_{lin}_w"].T
            de += da
            dr = da  # gradient w.r.t. the h entering this sub-layer
        dh = dr + dh_skip

    grads["in_w"] = cache["x"].T @ dh
    grads["in_b"] = dh.sum(axis=0)

    e_sin, z1, r1 = cache["temb"]
    grads["te2_w"] = r1.T @ de
    grads["te2_b"] = de.sum(axis=0)
    dr1 = de @ params["te2_w"].T
    dz1 = dr1 * (z1 > 0.0)
    grads["te1_w"] = e_sin.T @ dz1
    grads["te1_b"] = dz1.sum(axis=0)
    return grads


def loss_and_grads(model: DenoiserModel, batch_x0, rng: RngStream):
    """Simplified denoising loss on one batch and its exact parameter gradients.

    Per pose: draw a uniform step and unit Gaussian noise, noise the
    pose, and score the squared error of the predicted noise; the loss
    is the batch mean. Updates the model's batch-norm running
    statistics as a side effect (this is the train-mode forward).
    """
    x0 = np.asarray(batch_x0, dtype=np.float64)
    if x0.ndim != 2 or x0.shape[0] < 1 or x0.shape[1] != model.dim:
        raise ValueError(f"batch must be (B>=1, {model.dim}), got {x0.shape}")
    b = x0.shape[0]
    t = rng.integers(1, model.sched.T + 1, b)
    eps = rng.standard_normal((b, model.dim))
    ab = model.sched.alphabar[t]
    x_t = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps

    out, cache = _forward_core(model.params, model.bn_stats, x_t, t, train=True)
    diff = out - eps
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    grads = _backward_core(model.params, cache, (2.0 / b) * diff)

    for blk_idx, blk in enumerate(_BLOCKS):
        blk_cache = cache["blocks"][blk_idx]
        for i, bn in ((0, "bn1"), (1, "bn2")):
            _, _, mu, var = blk_cache[f"bn{i}"]
            for stat_key, batch_val in ((f"{blk}_{bn}_m", mu), (f"{blk}_{bn}_v", var)):
                updated = (1.0 - BN_MOMENTUM) * model.bn_stats[stat_key] + BN_MOMENTUM * batch_val
                model.bn_stats[stat_key] = _snap(updated)
    return loss, grads


def adam_step(model: DenoiserModel, grads: dict, lr: float):
    """In-place Adam update with bias correction; moments live on the model.

    The step is ``model.adam_steps + 1``, so a resumed model continues
    its bias correction where the checkpoint left it.
    """
    step = model.adam_steps + 1
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    for key in PARAM_KEYS:
        g = grads[key]
        m = ADAM_BETA1 * model.adam_m[key] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * model.adam_v[key] + (1.0 - ADAM_BETA2) * g * g
        model.adam_m[key] = _snap(m)
        model.adam_v[key] = _snap(v)
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        model.params[key] = _snap(model.params[key] - update)
    model.adam_steps = step
    return model


def ema_update(model: DenoiserModel, decay: float):
    """Shadow-parameter update: ema <- decay * ema + (1 - decay) * params."""
    if not 0.0 <= decay < 1.0:
        raise ValueError(f"decay must be in [0, 1), got {decay}")
    for key in PARAM_KEYS:
        model.ema_params[key] = _snap(
            decay * model.ema_params[key] + (1.0 - decay) * model.params[key]
        )
    return model


def train(model: DenoiserModel, poses, steps: int, batch_size: int, lr: float,
          ema_decay: float, rng: RngStream, checkpoint_sink=None,
          checkpoint_every: int = 0, loss_log=None) -> DenoiserModel:
    """Fit the denoiser to root-relative poses (N, J, 3) in millimeters.

    Computes the normalization statistics once, then iterates
    loss_and_grads / adam_step / ema_update. ``loss_log`` receives one
    "step,loss,grad_norm" line per step; ``checkpoint_sink(model, step)``
    is called every ``checkpoint_every`` steps when set.
    """
    poses = np.asarray(poses, dtype=np.float64)
    if poses.ndim == 3:
        poses = poses.reshape(poses.shape[0], -1)
    if poses.ndim != 2 or poses.shape[0] < 1 or poses.shape[1] != model.dim:
        raise ValueError(f"dataset must be (N>=1, {model.dim}) after flattening")

    model.norm_mean = poses.mean(axis=0)
    model.norm_std = np.maximum(poses.std(axis=0), NORM_STD_FLOOR)
    data = model.normalize(poses)
    n = data.shape[0]

    for step in range(1, steps + 1):
        idx = rng.integers(0, n, batch_size)
        loss, grads = loss_and_grads(model, data[idx], rng)
        grad_norm = float(np.sqrt(sum(float(np.sum(g * g)) for g in grads.values())))
        if not np.isfinite(loss) or not np.isfinite(grad_norm):
            raise DivergenceError(
                f"non-finite loss at step {step}", step=step,
                diagnostics={"loss": loss, "grad_norm": grad_norm})
        adam_step(model, grads, lr)
        ema_update(model, ema_decay)
        if loss_log is not None:
            loss_log(f"{step},{loss:.8g},{grad_norm:.8g}")
        if checkpoint_sink is not None and checkpoint_every > 0 and step % checkpoint_every == 0:
            checkpoint_sink(model, step)
    return model


def make_eval_forward(model: DenoiserModel):
    """Eval forward for sampling loops: ``eval_fn(x, t)`` on an (M, 3J) block at step t.

    Uses the EMA weights and the batch-norm running statistics, and
    multiplies row by row, so each row's output equals that of its own
    1-row block bit for bit. Each weight whose column count is a
    multiple of PANEL_COLS, and larger than it, is copied once into
    column panels (``_panels``), which keep every bit of the 2-D
    product. The
    projected step embeddings of all T steps are computed once per
    closure through the same panels, also row by row; the step-embedding
    panels are dropped once the table is built.
    """
    ema = model.ema_params

    def panelled(keys):
        return {k: _panels(ema[k]) if k.endswith("_w") else ema[k] for k in keys}

    step_keys = ("te1_w", "te1_b", "te2_w", "te2_b")
    temb, _ = _project_temb(panelled(step_keys), np.arange(1, model.sched.T + 1), _rowwise)
    params = panelled(k for k in PARAM_KEYS if k not in step_keys)

    def eval_forward(x, t: int):
        out, _ = _forward_core(params, model.bn_stats, x, None, train=False, temb=temb[t - 1])
        return out

    return eval_forward
