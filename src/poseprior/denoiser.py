"""Noise-prediction MLP: forward pass, exact backward pass, Adam, EMA.

The network maps a noised flat pose (3J, in normalized space) and a
step index to a noise estimate of the same shape. Architecture: input
linear, two residual blocks of [linear, batch-norm, ReLU] x 2, output
linear. A sinusoidal step encoding is projected by a two-layer
feed-forward net and added to the hidden activation entering every
hidden-to-hidden linear (the four block linears and the output linear).
That is eight linears in total.

One network body, ``_forward_core``, serves training and eval, and one
projection, ``_project_temb``, gives both their step embeddings with
one GEMM per linear. Training updates a ``DenoiserModel`` with batch
statistics and one GEMM per linear over the batch. Sampling reads a
frozen ``Prior``, which holds the eval form of the EMA weights and
running statistics that ``build_eval_form`` makes in one pass over the
EMA tensors in PARAM_KEYS order: it projects the embeddings of all T
steps once into a table and keeps nothing else of that projection,
folds each batch-norm layer into a (scale, shift) pair, and copies each
weight once into column panels. ``DenoiserModel.prior()`` builds one; a
checkpoint's sampling-state load streams its EMA tensors straight into
one, never holding the float32 EMA weights. The eval forward,
``make_eval_forward``, multiplies the block in fixed tiles of TILE_ROWS
rows, the last padded with zero rows, and each tile by each panel is
one call of the same shape (``_rowwise``). A GEMM kernel does not mix
the rows of its call, so rows are independent: a row's output does not
depend on the other rows of its block, and is that of its own
zero-padded tile. It runs every tile over one panel before moving to
the next, so a panel is read from cache by all tiles of the block.

A call uses a second thread when a split hands it enough work and the
process may run on at least two CPUs (``os.sched_getaffinity``); the
call then owns one helper thread (``helper_thread``). Sampling takes one
when some linear of the network reaches SPLIT_MADDS multiply-adds over
more than one panel at the call's row count (hidden 1024 at any M,
hidden 256 from M = 16; never at hidden 64), training when the helper's
rows of a hidden-by-hidden weight gradient come to more than SPLIT_MADDS
(at B = 128: hidden above 128). In ``sample_guided`` the helper
multiplies the second half of each large eval product's panels while the
caller multiplies the first (``_rowwise``). In ``train`` every
hidden-by-hidden product is split by rows (``_split_rows``): the six
weight gradients at a multiple of PANEL_COLS (``_grad_split``), the
forward's six products and the backward's five input gradients at B / 2
when B is a multiple of 128 (``_batch_split``). The helper also squares
the finished hidden-by-hidden gradients for the gradient norm
(``_SquareSums``) and runs the second half of the Adam and EMA chunks
(``_in_halves``). Every split goes through one fork-join
(``_fork_join``). No training product is split by columns, and the thin
``in_w`` and ``out_w`` products stay whole: half of a 2-D product is a
call of another shape, which OpenBLAS may run on another path (its
small-matrix kernel at 2 to 16 rows, other tails at odd rows), and its
bits then differ. The row splits made are those that kept the whole
call's bits in scans under three kernels. Every bit is kept either way.
``taskset -c 0 poseprior ...`` keeps a run on one core and one thread.

All math runs in float64. Parameters, EMA shadows, Adam moments and
batch-norm running statistics are kept on the float32 grid (snapped
after every update) so checkpoints, which store them as float32, round
trip without changing the model.

Each weight group (parameters, EMA shadows, both Adam moments, and the
gradients ``train`` reuses across its steps) is a ``ParamGroup``: one
contiguous buffer in PARAM_KEYS order, the checkpoint's order, whose
per-key tensors are views. The EMA shadows and Adam moments are stored
as float32 (GROUP_DTYPES): they hold only float32 values, so float32
storage keeps every bit at half the bytes. The parameters and the
gradients stay float64, as every training GEMM reads them. Only
``DenoiserModel.initialize``, the checkpoint loader and ``train`` build
groups; everything else writes into their views or ``flat``. The eight
batch-norm running statistics are a ParamGroup too, over STAT_KEYS: one
(8 h) float64 buffer. The backward pass writes gradients into their
views with ``out=``.

The train pass keeps the bits of the textbook formulas (``np.mean`` and
``np.var`` batch norm, one fresh array per operation) with fewer numpy
calls and batch-sized temporaries: ``_bn_train`` normalizes in place,
the forward caches each hidden layer's input, zhat, inv_std and ReLU
output and adds each residual in place, ``_backward_core`` builds each
batch-norm term in place and sums with ``np.add.reduce``, and
``loss_and_grads`` and ``_SquareSums`` say how the loss, the running
statistics and the gradient norm keep theirs. ``tests/test_denoiser.py``
checks the pass against those formulas bit for bit.

Adam and EMA each make one pass over the flat buffers in chunks of
UPDATE_CHUNK elements, through float64 scratch that stays in cache,
with the per-element operations of the per-key formulas in the same
order, so every bit is kept. A numpy op over a whole tensor would make
a tensor-sized temporary, which misses cache and faults in fresh pages;
that, not memory traffic, is what the chunks save.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
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
    "build_eval_form",
    "Prior",
    "helper_thread",
    "ParamGroup",
    "PARAM_KEYS",
    "STAT_KEYS",
    "GROUP_DTYPES",
]

BN_EPS = 1e-5
BN_MOMENTUM = 0.1
NORM_STD_FLOOR = 1e-8
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Columns per eval weight panel. A 1024-row panel is 512 KB and stays in
# a 2 MB L2 while every tile of a block uses it. One 1024 x 1024 linear
# in 1-row calls (2-vCPU Xeon, OpenBLAS 0.3.31, one thread, median ms):
# 0.50-0.62 at M = 2 and 6.9-10.4 at M = 50, against 0.68-0.95 and 18-22
# row by row over the 2-D weight. Widths 32 and 128 performed the same;
# 256 was slower at M = 2.
PANEL_COLS = 64

# Rows per eval tile: each (panel, tile) product of ``_rowwise`` is one
# (TILE_ROWS, K) @ (K, PANEL_COLS) call. One linear over panels (2-vCPU
# Xeon, OpenBLAS 0.3.31, one thread, median us; 1-row calls, then tiles of
# R = 2, 4, 8): 1024 x 1024 at M = 2: 453, 386, 429, 597; at M = 50: 7,070,
# 3,916, 2,378, 2,528; 64 x 64 at M = 50: 13.6, 9.1, 10.3, 10.5. At M = 1
# the padded tile costs more than a 1-row call: 414 against 340 at 1024 x
# 1024, 3.7 against 2.6 at 64 x 64. R = 2 is the fastest at M = 2 and pads
# no row at even M. One R serves every M: a row's bits depend on its call,
# so 1-row calls below R would give a row other bits at M = 1 than at M = 2.
TILE_ROWS = 2

# Multiply-adds (rows x K x N) from which an eval product of more than
# one panel splits its panels between the calling thread and a helper
# thread (``_rowwise``); a handoff to the helper costs about 50 us. One
# eval forward over 2-row tiles with the products from 2^20 split (2-vCPU
# Xeon, OpenBLAS 0.3.31, one BLAS thread, median us of 6 alternating
# process pairs, one CPU against split, while a probe saw both CPUs
# free): h = 1024, M = 1: 1,526 against 1,163; M = 2: 1,501 against 1,182;
# M = 50: 15,714 against 8,899 (split faster in 6 of 6 pairs each); h =
# 512, M = 4: 612 against 548 (5 of 6); h = 256, M = 16: 433 against 463
# (2 of 6); h = 128, M = 64: 488 against 618 (0 of 6). In a window where
# the second CPU was busy, the split lost in every row (h = 1024, M = 2:
# 1,677 against 1,740). A ``train`` call holds the helper when the
# helper's rows of a hidden-by-hidden weight gradient come to more than
# SPLIT_MADDS (``helper_thread``); ms per step at B = 128, one CPU against
# two: h = 1024: 218-267 against 162-189; h = 256: 14.6-20.7
# against 12.7-14.4. At h = 128 the helper's rows are 2^20, and one
# thread took 4.5-6.2 ms against 5.1-7.0 with a helper.
SPLIT_MADDS = 1 << 20

# Elements per chunk of the Adam and EMA passes: 256 KB per float64
# scratch buffer, so a chunk's temporaries stay in L2. Adam + EMA at
# hidden 1024 (per-key fused prototype, one thread, median of 6 steps):
# 111 ms at 4096, 104 ms at 16384, 107 ms at 32768, 135 ms at 131072.
UPDATE_CHUNK = 32768

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
# The four hidden layers in forward order, each as (batch-norm layer,
# linear weight, linear bias, batch-norm gain, batch-norm shift); layer
# k's running mean and variance are STAT_KEYS[2k] and STAT_KEYS[2k + 1].
_LAYERS = tuple((f"{blk}_{bn}", f"{blk}_{lin}_w", f"{blk}_{lin}_b", f"{blk}_{bn}_g",
                 f"{blk}_{bn}_b") for blk in _BLOCKS for lin, bn in (("l1", "bn1"), ("l2", "bn2")))

# Buffer dtype of each weight group of a DenoiserModel (see above).
GROUP_DTYPES = {"params": np.float64, "ema_params": np.float32,
                "adam_m": np.float32, "adam_v": np.float32}


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
    return {key: shapes[key] for key in PARAM_KEYS}


def stat_shapes(hidden_dim: int) -> dict:
    """The running-statistic shapes, in STAT_KEYS order."""
    return dict.fromkeys(STAT_KEYS, (hidden_dim,))


def _snap(arr: np.ndarray) -> np.ndarray:
    """Round to the nearest float32-representable value, staying float64."""
    return arr.astype(np.float32).astype(np.float64)


def _snap_into(dst, src, single):
    """``dst[...] = _snap(src)``, rounding through the float32 scratch ``single``."""
    single = single[:src.size]
    single[...] = src
    dst[...] = single


def _chunks(lo, hi, *flats):
    """Matching UPDATE_CHUNK-element slices of elements [lo, hi) of equal-length flat buffers."""
    for start in range(lo, hi, UPDATE_CHUNK):
        stop = min(start + UPDATE_CHUNK, hi)
        yield tuple(flat[start:stop] for flat in flats)


def _on_helper(helper, fn, *args, **kwargs):
    """Submit ``fn(*args, **kwargs)`` to the executor ``helper`` in this thread's context,
    so under its ``np.errstate``; the future raises what ``fn`` raised."""
    return helper.submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _fork_join(helper, fn, first, second):
    """``fn(*second)`` on the executor ``helper`` (``_on_helper``) while this thread runs
    ``fn(*first)``: the one place a task is split between the two threads. Both halves are
    done when this returns or raises, and what the helper's half raised reaches the caller."""
    rest = _on_helper(helper, fn, *second)
    try:
        fn(*first)
    finally:
        rest.result()


def _in_halves(update, size: int, helper):
    """Run ``update(lo, hi)`` over elements [0, size): at once without ``helper``; with it,
    the second half of the UPDATE_CHUNK chunks on the helper while this thread runs the
    first. Each half allocates its own scratch."""
    if helper is None:
        update(0, size)
        return
    mid = -(-size // UPDATE_CHUNK) // 2 * UPDATE_CHUNK
    _fork_join(helper, update, (0, mid), (mid, size))


def _batch_split(rows: int) -> int:
    """Where a training product over ``rows`` batch rows splits (0: it stays whole): at
    rows / 2 when that is a multiple of PANEL_COLS. Only such halves kept the whole call's
    bits under every kernel scanned; halves of 2 to 16 or of odd rows did not."""
    return rows // 2 if rows % (2 * PANEL_COLS) == 0 else 0


def _grad_split(hidden: int) -> int:
    """Where a weight gradient ``a.T @ dz`` splits its ``hidden`` output rows (0: it stays
    whole): at the largest multiple of PANEL_COLS up to hidden / 2, which kept the whole
    call's bits at every batch size scanned."""
    return hidden // 2 // PANEL_COLS * PANEL_COLS


def _split_rows(a, b, at: int, helper=None, out=None):
    """``a @ b``, into ``out`` when given. With ``helper`` and ``at`` > 0 the helper
    multiplies rows [at, len(a)) of ``a`` while this thread multiplies rows [0, at)
    (``_fork_join``); ``at`` comes from ``_batch_split`` or ``_grad_split``."""
    if helper is None or not at:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty((len(a), b.shape[1]))
    _fork_join(helper, np.matmul, (a[:at], b, out[:at]), (a[at:], b, out[at:]))
    return out


class ParamGroup(dict):
    """One tensor per key of ``shapes``, each a view into one contiguous
    buffer ``flat`` (float64 by default, or float32) in the order of
    ``shapes``: PARAM_KEYS order for a weight group (``param_shapes``),
    STAT_KEYS order for the running statistics (``stat_shapes``).

    Assigning a key copies the value into its view, so ``flat`` stays
    the group's one storage; a value of another shape raises ValueError.
    """

    def __init__(self, shapes: dict, flat=None, dtype=np.float64):
        super().__init__()
        sizes = [math.prod(shape) for shape in shapes.values()]
        self.flat = np.zeros(sum(sizes), dtype) if flat is None else flat
        lo = 0
        for (key, shape), size in zip(shapes.items(), sizes):
            dict.__setitem__(self, key, self.flat[lo:lo + size].reshape(shape))
            lo += size

    def shapes(self) -> dict:
        return {key: view.shape for key, view in self.items()}

    def __setitem__(self, key, value):
        view = self[key]
        if np.shape(value) != view.shape:
            raise ValueError(f"{key} has shape {view.shape}, got {np.shape(value)}")
        view[...] = value

    def __reduce__(self):
        return type(self), (self.shapes(), self.flat)


@dataclass(frozen=True, eq=False)
class Prior:
    """What sampling reads of a trained denoiser, frozen: ``joints``, ``hidden_dim``, ``sched``,
    ``norm_mean``, ``norm_std`` and the eval form of the EMA weights and running statistics
    (``build_eval_form``), all float64. ``temb`` is the (T, h) table of projected step
    embeddings, ``weights`` the six network linears' weights in column panels (``_panels``),
    which the eval forward multiplies in row tiles (``_rowwise``), and their biases, keyed
    by PARAM_KEYS, and ``bn_pairs`` each batch-norm layer's folded (scale, shift), keyed by
    layer ("b1_bn1", ...). It cannot be trained or saved.
    """

    joints: int
    hidden_dim: int
    sched: DiffusionSchedule
    norm_mean: np.ndarray = field(repr=False)
    norm_std: np.ndarray = field(repr=False)
    temb: np.ndarray = field(repr=False)
    weights: dict = field(repr=False)
    bn_pairs: dict = field(repr=False)

    @property
    def dim(self) -> int:
        return 3 * self.joints

    def denormalize(self, x: np.ndarray) -> np.ndarray:
        return x * self.norm_std + self.norm_mean


@dataclass
class DenoiserModel:
    """The denoiser and its training state; sampling reads its ``prior()``.

    Each weight group is a ``ParamGroup`` over PARAM_KEYS of its GROUP_DTYPES dtype,
    ``bn_stats`` a float64 ParamGroup over STAT_KEYS, whose ``flat`` buffer the train pass
    updates. Any other value of a group raises ValueError when the model is built.
    """

    joints: int
    hidden_dim: int
    sched: DiffusionSchedule
    params: ParamGroup = field(repr=False)
    ema_params: ParamGroup = field(repr=False)
    bn_stats: ParamGroup = field(repr=False)
    norm_mean: np.ndarray = field(repr=False)
    norm_std: np.ndarray = field(repr=False)
    adam_m: ParamGroup = field(repr=False)
    adam_v: ParamGroup = field(repr=False)
    adam_steps: int = 0

    def __post_init__(self):
        shapes = param_shapes(self.joints, self.hidden_dim)
        groups = {name: ("PARAM_KEYS", shapes, dtype) for name, dtype in GROUP_DTYPES.items()}
        groups["bn_stats"] = ("STAT_KEYS", stat_shapes(self.hidden_dim), np.float64)
        for name, (keys, want, dtype) in groups.items():
            group = getattr(self, name)
            got = ((group.shapes(), group.flat.dtype) if isinstance(group, ParamGroup)
                   else type(group).__name__)
            if got != (want, dtype) or list(got[0]) != list(want):  # the key order, too
                raise ValueError(f"{name} must be a {np.dtype(dtype)} ParamGroup over {keys} "
                                 f"of ({self.joints} joints, {self.hidden_dim} hidden), got {got}")

    @classmethod
    def initialize(cls, joints: int, hidden_dim: int, sched: DiffusionSchedule,
                   rng: RngStream) -> "DenoiserModel":
        if hidden_dim % 2 != 0 or hidden_dim < 4:
            raise ValueError(f"hidden_dim must be even and >= 4, got {hidden_dim}")
        shapes = param_shapes(joints, hidden_dim)
        params = ParamGroup(shapes)
        for key in PARAM_KEYS:
            shape = shapes[key]
            if key.endswith("_w"):
                bound = 1.0 / np.sqrt(shape[0])
                params[key] = _snap(rng.uniform(-bound, bound, shape))
            elif key.endswith("_g"):
                params[key][...] = 1.0
            elif not key.endswith(("bn1_b", "bn2_b")):  # linear bias; BN shifts stay 0
                fan_in = shapes[key[:-2] + "_w"][0]
                bound = 1.0 / np.sqrt(fan_in)
                params[key] = _snap(rng.uniform(-bound, bound, shape))
        stats = ParamGroup(stat_shapes(hidden_dim))
        for key in STAT_KEYS[1::2]:  # the variances
            stats[key][...] = 1.0
        d = 3 * joints
        return cls(
            joints=joints, hidden_dim=hidden_dim, sched=sched,
            params=params,
            ema_params=ParamGroup(shapes, params.flat.astype(np.float32)),
            bn_stats=stats,
            norm_mean=np.zeros(d), norm_std=np.ones(d),
            adam_m=ParamGroup(shapes, dtype=np.float32),
            adam_v=ParamGroup(shapes, dtype=np.float32),
        )

    def prior(self) -> Prior:
        """The sampling prior of the model as it is now; a later update does not move it."""
        form = build_eval_form((self.ema_params[k] for k in PARAM_KEYS), self.bn_stats,
                               self.sched.T)
        return Prior(self.joints, self.hidden_dim, self.sched, self.norm_mean.copy(),
                     self.norm_std.copy(), *form)


def sinusoidal_embedding(t, dim: int) -> np.ndarray:
    """Standard sin/cos step encoding, shape (..., dim); dim must be even."""
    t = np.asarray(t, dtype=np.float64)
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / (half - 1))
    angles = t[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _panel_cols(n: int) -> int:
    """Columns per panel of a weight with ``n`` columns (see ``_panels``)."""
    return PANEL_COLS if n > PANEL_COLS and n % PANEL_COLS == 0 else n


def _panels(w):
    """Weight ``w`` (K, N) copied into a contiguous float64 (N / C, 1, K, C) stack
    of column panels: C = PANEL_COLS when N is a multiple of PANEL_COLS
    larger than it, else one full-width panel (C = N).

    All panels of a weight have one width, so every (panel, tile) product
    of ``_rowwise`` is a call of one shape; a narrow tail panel would be a
    call of another. The panels are part of what the eval bits are: a
    tile times the whole 2-D weight is another call too, and its bits
    differed from the tiles over panels under SkylakeX and under Haswell
    at two BLAS threads.
    """
    k, n = w.shape
    cols = _panel_cols(n)
    return w.reshape(k, n // cols, cols).transpose(1, 0, 2).astype(np.float64, order="C")[:, None]


def _splits(rows: int, k: int, n: int) -> bool:
    """Whether ``_rowwise`` given a helper splits a ``rows``-row product by a (K, N) weight:
    it has more than one panel and rows x K x N reaches SPLIT_MADDS."""
    return n > _panel_cols(n) and rows * k * n >= SPLIT_MADDS


def _rowwise(a, w, helper=None):
    """``a @ w`` in fixed tiles of TILE_ROWS rows, so a row's result does
    not depend on the other rows in the block (a GEMM over the block does).

    ``w`` is a panel stack from ``_panels``. An M not a multiple of
    TILE_ROWS gets zero rows at the end. Every tile is multiplied by every
    panel as one (TILE_ROWS, K) @ (K, C) call: numpy's matmul loops over
    the panels outside and the tiles inside, so each panel stays in cache
    while every tile multiplies it, and the (panel, tile) results are then
    put back in (row, column) order. Every call has the same shape and a
    GEMM kernel does not mix the rows of its call, so each row's bits are
    those of its own zero-padded tile. Where ``helper``, a one-thread
    executor, is given and the product ``_splits``, the helper multiplies
    the second half of the panels while this thread multiplies the first,
    in this thread's context, so under its ``np.errstate``. Each (panel,
    tile) product is the same call either way, so the split keeps every bit.
    """
    m, k = a.shape
    pad = -m % TILE_ROWS
    if pad:
        a = np.concatenate((a, np.zeros((pad, k))))
    tiles = a.reshape(1, -1, TILE_ROWS, k)
    if helper is not None and _splits(m, k, len(w) * w.shape[3]):
        half = len(w) // 2
        out = np.empty((len(w), tiles.shape[1], TILE_ROWS, w.shape[3]))
        _fork_join(helper, np.matmul, (tiles, w[:half], out[:half]),
                   (tiles, w[half:], out[half:]))
    else:
        out = tiles @ w
    return out.transpose(1, 2, 0, 3).reshape(m + pad, -1)[:m]


def _project_temb(params, t_arr, matmul=np.matmul) -> tuple:
    """Two-layer feed-forward projection of the sinusoidal encoding, one ``matmul`` per
    linear over all steps in ``t_arr``: (embeddings, (encoding, hidden layer after ReLU))."""
    dim = params["te1_b"].shape[0]
    e_sin = sinusoidal_embedding(t_arr, dim)
    r1 = matmul(e_sin, params["te1_w"])
    # bias and ReLU in place: two (T, h) temporaries fewer for the eval table
    r1 += params["te1_b"]
    np.maximum(r1, 0.0, out=r1)
    e = matmul(r1, params["te2_w"])
    e += params["te2_b"]
    return e, (e_sin, r1)


def _bn_train(z, stats):
    """Batch-normalize ``z`` (B, h) in place with its batch statistics;
    returns (zhat, inv_std), zhat being ``z`` itself.

    Writes the batch mean and (biased) variance into the two rows of
    ``stats``. Each output bit is that of ``np.mean``, ``np.var`` and
    ``(z - mu) * inv_std``: the mean is sum / B, the deviation d = z - mu
    is made once, in place on ``z``, and serves both the variance, sum
    d * d / B (``np.var`` would sum and divide for the mean again), and
    zhat = d * inv_std, with inv_std = 1 / sqrt(var + eps).
    """
    b = z.shape[0]
    mu, var = stats
    np.add.reduce(z, 0, out=mu)
    mu /= b
    z -= mu
    np.add.reduce(z * z, 0, out=var)
    var /= b
    inv_std = var + BN_EPS
    np.sqrt(inv_std, out=inv_std)
    np.divide(1.0, inv_std, out=inv_std)
    z *= inv_std
    return z, inv_std


def _forward_core(params, bn_pairs, x, t_arr, train: bool, temb=None, helper=None):
    """The network body for training and eval. Returns (out, cache).

    Training multiplies the whole batch with one GEMM, normalizes with
    batch statistics (it ignores ``bn_pairs``) and keeps a cache for the
    backward pass: per hidden layer its input ``a``, zhat, inv_std and
    ReLU output, and the batch means and variances as one (8, h) array
    in STAT_KEYS order. Eval multiplies in row tiles (``_rowwise``) and
    returns no cache, so each output row equals its own 1-row call bit
    for bit; it normalizes in place on each product's buffer with
    ``bn_pairs``, the folded (scale, shift) per batch-norm layer from
    ``build_eval_form``.
    Training projects the step embedding from ``t_arr``; eval takes it
    precomputed as ``temb``. ``helper`` is the call's helper thread or
    None: training splits its six hidden-by-hidden products by batch rows
    with it (``_batch_split``), eval hands it to ``_rowwise``. Both add
    each residual in place on the block's input, which nothing else holds.
    """
    if train:
        at = _batch_split(len(x))
        thin, matmul = np.matmul, (lambda a, w: _split_rows(a, w, at, helper))
        e, temb_cache = _project_temb(params, t_arr, matmul)
    else:
        thin = matmul = lambda a, w: _rowwise(a, w, helper)
        e, temb_cache = temb, None
    h = thin(x, params["in_w"])
    h += params["in_b"]
    if train:
        layers, stats = [], np.empty((len(STAT_KEYS), h.shape[1]))

    for k, (bn, w, bias, gain, shift) in enumerate(_LAYERS):
        if k % 2 == 0:
            h_skip = h
        a = h + e
        z = matmul(a, params[w])
        z += params[bias]
        if train:
            zhat, inv_std = _bn_train(z, stats[2 * k:2 * k + 2])
            h = zhat * params[gain]
            h += params[shift]
            np.maximum(h, 0.0, out=h)
            layers.append((a, zhat, inv_std, h))
        else:
            scale, offset = bn_pairs[bn]
            z *= scale
            z += offset
            h = np.maximum(z, 0.0, out=z)
        if k % 2:
            h_skip += h
            h = h_skip
    a_out = h + e
    out = thin(a_out, params["out_w"])
    out += params["out_b"]
    if not train:
        return out, None
    return out, {"x": x, "temb": temb_cache, "layers": layers, "a_out": a_out, "stats": stats}


def _backward_core(params, cache, dout, grads=None, helper=None, sums=None):
    """Exact reverse-mode gradients of the training forward pass, written
    into ``grads`` (a ParamGroup; a new one when None) and returned.

    Each batch-norm layer's input gradient, (inv_std / B) (B dzhat -
    sum dzhat - zhat sum(dzhat zhat)) with dzhat = gain * ReLU'(n) * dh,
    is built in place on one buffer in that order of operations, and
    the residual and embedding gradients accumulate in place. With
    ``helper``, a one-thread executor, each hidden-by-hidden weight
    gradient ``a.T @ dz`` splits its rows with it (``_grad_split``) and
    each hidden-by-hidden input gradient ``dz @ w.T`` its batch rows
    (``_batch_split``); the thin ``in_w`` and ``out_w`` products stay
    whole on this thread. ``sums``, a ``_SquareSums`` over ``grads`` or
    None, gets each hidden-by-hidden weight gradient once it is final,
    after the input gradient that follows it, so the helper squares it
    in the batch-norm arithmetic of the next layer.
    """
    if grads is None:
        grads = ParamGroup(params.shapes())
    at, mid = _batch_split(len(dout)), _grad_split(params["te1_b"].shape[0])

    def weight_grad(a, dz, key):
        _split_rows(a.T, dz, mid, helper, grads[key])

    def input_grad(dz, w):
        return _split_rows(dz, w.T, at, helper)

    def done(key):
        if sums is not None:
            sums.start(key)

    add = np.add.reduce
    np.matmul(cache["a_out"].T, dout, out=grads["out_w"])
    add(dout, 0, out=grads["out_b"])
    dh = de = dout @ params["out_w"].T  # the embedding feeds the output pre-activation too
    b = dh.shape[0]
    prod = np.empty_like(dh)

    for k in range(len(_LAYERS) - 1, -1, -1):
        _, w, bias, gain, shift = _LAYERS[k]
        a, zhat, inv_std, relu = cache["layers"][k]
        if k % 2:
            dh_skip = dh  # the residual connection
        dz = dh * (relu > 0.0)  # > 0 where the pre-ReLU value is; NaN fails both
        add(np.multiply(dz, zhat, out=prod), 0, out=grads[gain])
        add(dz, 0, out=grads[shift])
        dz *= params[gain]
        total = add(dz, 0)
        moment = add(np.multiply(dz, zhat, out=prod), 0)
        dz *= b
        dz -= total
        dz -= np.multiply(zhat, moment, out=prod)
        dz *= inv_std / b
        weight_grad(a, dz, w)
        add(dz, 0, out=grads[bias])
        dh = input_grad(dz, params[w])
        done(w)
        if k == len(_LAYERS) - 1:
            de = de + dh  # the first sum leaves the output layer's gradient as it is
        else:
            de += dh
        if k % 2 == 0:
            dh += dh_skip

    np.matmul(cache["x"].T, dh, out=grads["in_w"])
    add(dh, 0, out=grads["in_b"])

    e_sin, r1 = cache["temb"]
    weight_grad(r1, de, "te2_w")
    add(de, 0, out=grads["te2_b"])
    dz1 = input_grad(de, params["te2_w"])
    done("te2_w")
    dz1 *= r1 > 0.0
    weight_grad(e_sin, dz1, "te1_w")
    done("te1_w")
    add(dz1, 0, out=grads["te1_b"])
    return grads


def loss_and_grads(model: DenoiserModel, batch_x0, rng: RngStream, grads=None, helper=None,
                   sums=None):
    """Simplified denoising loss on one batch and its exact parameter gradients.

    Per pose: draw a uniform step and unit Gaussian noise, noise the
    pose, and score the squared error of the predicted noise; the loss
    is the batch mean. Updates the model's batch-norm running
    statistics as a side effect (this is the train-mode forward). The
    gradients go into ``grads`` when it is given. ``helper``, a one-thread
    executor or None, multiplies half of each hidden-by-hidden product of
    the forward and the backward (``_forward_core``, ``_backward_core``);
    ``sums``, a ``_SquareSums`` over ``grads`` or None, squares the
    hidden-by-hidden gradients on it as they are done.

    The loss is ``np.mean(np.sum(diff * diff, axis=1))`` as two
    ``np.add.reduce`` calls and a division by B, and the running
    statistics ``snap((1 - momentum) stat + momentum batch)`` of every
    STAT_KEYS key as one pass over their (8 h) buffer and one float32
    snap; both keep every bit of those formulas.
    """
    x0, d = np.asarray(batch_x0, dtype=np.float64), 3 * model.joints
    if x0.ndim != 2 or x0.shape[0] < 1 or x0.shape[1] != d:
        raise ValueError(f"batch must be (B>=1, {d}), got {x0.shape}")
    b = x0.shape[0]
    t = rng.integers(1, model.sched.T + 1, b)
    eps = rng.standard_normal((b, d))
    ab = model.sched.alphabar[t]
    x_t = np.sqrt(ab)[:, None] * x0
    x_t += np.sqrt(1.0 - ab)[:, None] * eps

    diff, cache = _forward_core(model.params, model.bn_stats, x_t, t, train=True, helper=helper)
    diff -= eps
    loss = float(np.add.reduce(np.add.reduce(diff * diff, 1))) / b
    diff *= 2.0 / b
    grads = _backward_core(model.params, cache, diff, grads, helper, sums)

    stats, batch = model.bn_stats.flat, cache["stats"].reshape(-1)
    stats *= 1.0 - BN_MOMENTUM
    batch *= BN_MOMENTUM
    stats += batch
    stats[...] = stats.astype(np.float32)
    return loss, grads


def adam_step(model: DenoiserModel, grads: ParamGroup, lr: float, helper=None):
    """In-place Adam update with bias correction; moments live on the model.

    The step is ``model.adam_steps + 1``, so a resumed model continues
    its bias correction where the checkpoint left it. Per element:
    m' = b1 m + (1 - b1) g and v' = b2 v + (1 - b2) g g; the float32
    m and v store m' and v' rounded, and p stores snap(p - lr (m' / bc1)
    / (sqrt(v' / bc2) + eps)), from the unrounded m' and v'. ``helper``,
    a one-thread executor or None, updates half of the elements (``_in_halves``).
    """
    step = model.adam_steps + 1
    bc1 = 1.0 - ADAM_BETA1**step
    bc2 = 1.0 - ADAM_BETA2**step
    flats = (grads.flat, model.adam_m.flat, model.adam_v.flat, model.params.flat)

    def update(lo, hi):
        mt, vt, wide = np.empty((3, UPDATE_CHUNK))
        single = np.empty(UPDATE_CHUNK, np.float32)
        for g, m, v, p in _chunks(lo, hi, *flats):
            a, b, c = mt[:g.size], vt[:g.size], wide[:g.size]
            # widen m and v first: float32 times a Python float stays float32
            c[...] = m
            c *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=a)
            a += c
            c[...] = v
            c *= ADAM_BETA2
            np.multiply(g, 1.0 - ADAM_BETA2, out=b)
            b *= g
            b += c
            m[...] = a
            v[...] = b
            a /= bc1
            a *= lr
            b /= bc2
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            np.subtract(p, a, out=a)
            _snap_into(p, a, single)

    _in_halves(update, grads.flat.size, helper)
    model.adam_steps = step
    return model


def ema_update(model: DenoiserModel, decay: float, helper=None):
    """Shadow-parameter update: ema <- float32(decay * ema + (1 - decay) * params).
    ``helper``, a one-thread executor or None, updates half of the elements (``_in_halves``)."""
    if not 0.0 <= decay < 1.0:
        raise ValueError(f"decay must be in [0, 1), got {decay}")

    def update(lo, hi):
        scratch, wide = np.empty((2, UPDATE_CHUNK))
        for e, p in _chunks(lo, hi, model.ema_params.flat, model.params.flat):
            a, c = scratch[:e.size], wide[:e.size]
            c[...] = e  # widened, so the product runs in float64
            c *= decay
            np.multiply(p, 1.0 - decay, out=a)
            a += c
            e[...] = a

    _in_halves(update, model.ema_params.flat.size, helper)
    return model


def _square_sum(g, scratch) -> float:
    """``np.sum(g * g)`` bit for bit, squaring into a view of the float64 ``scratch``."""
    return float(np.add.reduce(np.multiply(g, g, out=scratch[:g.size].reshape(g.shape)), None))


class _SquareSums:
    """The gradient norm of ``grads``, sqrt(sum(np.sum(g * g) for g in grads.values())), bit
    for bit, from one sum of squares per key added in PARAM_KEYS order (``norm``), each
    squared through one scratch the size of the largest gradient.

    With ``helper``, the backward pass hands over each hidden-by-hidden gradient once it is
    final (``start``) and the helper squares it; ``norm`` waits for those sums before it
    squares the other keys on this thread through the same scratch.
    """

    def __init__(self, grads: ParamGroup, helper=None):
        self.grads, self.helper, self.jobs = grads, helper, {}
        self.scratch = np.empty(max(g.size for g in grads.values()))

    def start(self, key):
        if self.helper is not None:
            self.jobs[key] = _on_helper(self.helper, _square_sum, self.grads[key], self.scratch)

    def norm(self) -> float:
        done = {key: job.result() for key, job in self.jobs.items()}
        self.jobs = {}
        total = 0.0
        for key, g in self.grads.items():
            total += done[key] if key in done else _square_sum(g, self.scratch)
        return math.sqrt(total)


def train(model: DenoiserModel, poses, steps: int, batch_size: int, lr: float,
          ema_decay: float, rng: RngStream, checkpoint_sink=None,
          checkpoint_every: int = 0, loss_log=None) -> DenoiserModel:
    """Fit the denoiser to root-relative poses (N, J, 3) in millimeters.

    Computes the normalization statistics once, then iterates
    loss_and_grads / adam_step / ema_update. ``loss_log`` receives one
    "step,loss,grad_norm" line per step; ``checkpoint_sink(model, step)``
    is called every ``checkpoint_every`` steps when set.

    With a helper from ``helper_thread`` for the model at ``batch_size``
    rows, held until the call returns or raises, each step splits its
    hidden-by-hidden products by rows, the gradient norm's squares
    (``_SquareSums``) and the Adam and EMA chunks with it, as the module
    docstring says; every random draw stays on this thread, and only
    splits that keep the whole call's bits are made.
    """
    grads = ParamGroup(model.params.shapes())  # first, so a Prior raises before any change
    poses = np.asarray(poses, dtype=np.float64)
    if poses.ndim == 3:
        poses = poses.reshape(poses.shape[0], -1)
    if poses.ndim != 2 or poses.shape[0] < 1 or poses.shape[1] != 3 * model.joints:
        raise ValueError(f"dataset must be (N>=1, {3 * model.joints}) after flattening")

    model.norm_mean = poses.mean(axis=0)
    model.norm_std = np.maximum(poses.std(axis=0), NORM_STD_FLOOR)
    data = (poses - model.norm_mean) / model.norm_std
    n = data.shape[0]

    with helper_thread(model, batch_size) as helper:
        sums = _SquareSums(grads, helper)
        for step in range(1, steps + 1):
            idx = rng.integers(0, n, batch_size)
            loss, _ = loss_and_grads(model, data[idx], rng, grads, helper=helper, sums=sums)
            grad_norm = sums.norm()
            if not np.isfinite(loss) or not np.isfinite(grad_norm):
                raise DivergenceError(
                    f"non-finite loss at step {step}", step=step,
                    diagnostics={"loss": loss, "grad_norm": grad_norm})
            adam_step(model, grads, lr, helper=helper)
            ema_update(model, ema_decay, helper=helper)
            if loss_log is not None:
                loss_log(f"{step},{loss:.8g},{grad_norm:.8g}")
            if (checkpoint_sink is not None and checkpoint_every > 0
                    and step % checkpoint_every == 0):
                checkpoint_sink(model, step)
    return model


def build_eval_form(tensors, bn_stats, steps: int) -> tuple:
    """The eval form of a ``Prior``, (temb, weights, bn_pairs), of the EMA
    weights ``tensors``, an iterable of the tensors in PARAM_KEYS order,
    with the batch-norm running statistics ``bn_stats``, for a schedule of
    ``steps`` steps.

    Each tensor is consumed as it arrives and nothing of it is kept but
    copies, so a caller may stream the tensors through one reused
    buffer. The four step-embedding tensors come first; once the last
    one arrives, ``_project_temb`` (the GEMM training uses) projects all
    ``steps`` steps into the table and they are dropped. Each batch-norm
    layer is folded into scale = g / sqrt(var + eps) and shift = b -
    mean * scale. Widening a float32 tensor to float64 is exact.
    """
    temb, embed, weights, bn_pairs = None, {}, {}, {}
    for key, w in zip(PARAM_KEYS, tensors):
        if key.startswith("te"):
            embed[key] = np.array(w)
            if len(embed) == 4:
                temb = _project_temb(embed, np.arange(1, steps + 1))[0]
                embed.clear()
        elif "_bn" in key:
            layer = key[:-2]
            if key.endswith("_g"):
                scale = w.astype(np.float64) / np.sqrt(bn_stats[f"{layer}_v"] + BN_EPS)
            else:
                bn_pairs[layer] = (scale, w.astype(np.float64) - bn_stats[f"{layer}_m"] * scale)
        else:
            weights[key] = _panels(w) if key.endswith("_w") else w.astype(np.float64)
    return temb, weights, bn_pairs


def helper_thread(model: Prior | DenoiserModel, rows: int):
    """The helper of one call that runs the linears of ``model`` over ``rows`` rows, as a
    context: a one-thread executor when a split hands the helper enough work and the process
    may run on at least two CPUs, else a null context, whose value is None. The executor
    starts its thread at the first task and joins it on exit.

    Sampling from a ``Prior`` (rows = M) takes one when some eval linear ``_splits`` at
    ``rows`` rows. Training a ``DenoiserModel`` (rows = the batch size) takes one when the
    helper's rows of a hidden-by-hidden weight gradient (``_grad_split``) come to more than
    SPLIT_MADDS multiply-adds: a GEMM half runs faster per multiply-add than a tiled
    eval product, so it must hand over more to pay for the handoff."""
    d, h = 3 * model.joints, model.hidden_dim
    if isinstance(model, Prior):
        pays = any(_splits(rows, k, n) for k, n in ((d, h), (h, h), (h, d)))
    else:
        mid = _grad_split(h)
        pays = mid > 0 and (h - mid) * rows * h > SPLIT_MADDS
    if len(os.sched_getaffinity(0)) < 2 or not pays:
        return contextlib.nullcontext()
    from concurrent.futures import ThreadPoolExecutor  # only a call that uses it imports it
    return ThreadPoolExecutor(1)


def make_eval_forward(prior: Prior, helper=None):
    """Eval forward for sampling loops: ``eval_fn(x, t)`` on an (M, 3J) block at step t.

    Reads the prior's eval form, which every closure of the prior shares.
    The linears multiply fixed tiles of TILE_ROWS rows by the weight
    panels (``_rowwise``), so each row's output equals that of its own
    1-row block bit for bit, and an M-row block is a prefix of a larger
    one. ``helper`` is ``helper_thread``'s value: with an executor,
    products large enough split their panels with it, which keeps every
    bit too.
    """
    temb, weights, bn_pairs = prior.temb, prior.weights, prior.bn_pairs

    def eval_forward(x, t: int):
        out, _ = _forward_core(weights, bn_pairs, x, None, train=False, temb=temb[t - 1],
                               helper=helper)
        return out

    return eval_forward
