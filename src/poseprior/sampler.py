"""Guided reverse-process sampling, pose completion, diversity control.

All hypotheses of a call advance together as one (M, 3J) state: one
denoiser evaluation, one guidance step and one renoise of the whole
block per reverse step. A guidance step projects the (M, J, 3) joints
once, in `observation.grad_and_residual`, which broadcasts the one
J-joint observation over the hypotheses and works in closed form on
planar (M, J) arrays. Its trust region reuses that projection's
residuals, sums each joint's squared step in ``np.linalg.norm``'s
order, and clips only when some joint is over its bound. Each
hypothesis owns two streams of `numeric`'s stream map: its trajectory,
cfg.stream_offset + index, and its root, ROOT_STREAMS + that id. A
trajectory stream is drawn NOISE_CHUNK steps per call; the streams are
counter-based, so this gives the bits of one draw per step. Keeping the
root on a separate stream makes the zero-guidance path bit-identical to
unconditional sampling, and since no row's arithmetic depends on the
other rows, a hypothesis comes out the same whatever the number of
hypotheses M. The result is one `HypothesisSet`: the (M, J, 3) array of
root-relative poses, checked once, with each hypothesis's root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .denoiser import DenoiserModel, Prior, helper_thread, make_eval_forward
from .errors import DivergenceError
from .geometry import Camera, Pose, RootEstimate, checked_joints, sample_root
from .metrics import per_joint_std
from .numeric import ROOT_STREAMS, RngStream
from .observation import grad_and_residual
from .schedule import DiffusionSchedule, estimate_x0, renoise

# Not called in this module: the benchmark tracer (perfbench/tracing.py)
# patches these names here, so they stay importable until it is re-pointed.
from .geometry import project  # noqa: F401
from .observation import log_likelihood_grad, sum_sources  # noqa: F401

__all__ = [
    "GuidanceConfig",
    "HypothesisSet",
    "sample_unconditional",
    "sample_guided",
    "complete_pose",
    "diversity_sweep",
]

RENOISE_EQ2 = "eq2"        # x_{t-1} drawn from the closed-form noising of x0_hat
RENOISE_ALG1 = "alg1"      # literal pipeline line: sqrt(ab_t) x0_hat + (1 - ab_t) eps
GRAD_X0HAT = "x0hat"       # guidance applied to the clean estimate (default)
GRAD_XT = "xt"             # naive baseline: guidance applied to the noisy iterate

# Trust region for one guidance step of the clean-estimate update, per
# joint. The raw step may not move a joint further than (a) STEP_CAP_MM,
# and (b) the displacement that would already cancel the joint's
# reprojection residual under the linearized projection. (b) prevents
# overshoot oscillation when the covariance is tight, and both bound the
# 1/Z^2 gradient spike of a joint passing near the camera plane. At the
# default gamma the region is active: on the synthetic toy world (8
# frames, M = 50, T = 100) it clips 9.6 % of live guided joint-steps,
# 99.96 % of those at the 150 mm cap, and mostly in the first, noisiest
# steps (45 % of joint-steps at t in [91, 100], 13 % at [61, 90], none
# at t <= 10). Every run counts its clips by cause in its diagnostics
# (`trust_region_cap`, `trust_region_residual`).
STEP_CAP_MM = 150.0

# The naive noisy-iterate baseline deliberately runs without the trust
# region (its instability is the point of the comparison); it only gets
# an overflow guard so the arithmetic stays finite.
OVERFLOW_GUARD_MM = 1e5

# Reverse steps of trajectory noise drawn per call on each hypothesis
# stream. A chunk holds NOISE_CHUNK * M * 3J floats: 0.3 MB at M = 50
# and 17 joints, where a whole trajectory at T = 1000 would be 20 MB.
NOISE_CHUNK = 16


@dataclass(frozen=True)
class GuidanceConfig:
    gamma: float = 2e-4
    renoise_variant: str = RENOISE_EQ2
    num_hypotheses: int = 50
    seed: int = 0
    grad_space: str = GRAD_X0HAT
    stream_offset: int = 0  # hypothesis 0's trajectory stream id (`numeric`'s stream map)

    def __post_init__(self):
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.num_hypotheses < 1:
            raise ValueError(f"need at least one hypothesis, got {self.num_hypotheses}")
        if self.renoise_variant not in (RENOISE_EQ2, RENOISE_ALG1):
            raise ValueError(f"unknown renoise variant {self.renoise_variant!r}")
        if self.grad_space not in (GRAD_X0HAT, GRAD_XT):
            raise ValueError(f"unknown gradient space {self.grad_space!r}")


@dataclass(frozen=True)
class HypothesisSet:
    """Root-relative hypotheses ``joints`` (M, J, 3) mm, read-only and checked once
    as `Pose` checks one pose, and ``roots`` (M, 3), zeros without a root estimate."""

    joints: np.ndarray
    roots: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "joints", checked_joints(self.joints, True, batched=True))

    def __len__(self):
        return len(self.joints)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.joints, dtype=dtype, copy=copy)

    @property
    def poses(self) -> list:
        """A new `Pose` per hypothesis, for the per-pose API the acceptance gate uses."""
        return [Pose(p) for p in self.joints]


class _TrajectoryNoise:
    """The trajectory noise of M hypothesis streams as (M, 3J) slabs, one per draw.

    Slab k holds each stream's draws k*3J to (k+1)*3J - 1, the draws it
    would give one ``standard_normal(3J)`` at a time. Each stream is
    drawn NOISE_CHUNK slabs per call, ``slabs`` in all; a counter-based
    stream gives the same bits in one call as in chunks.
    """

    def __init__(self, rngs, dim: int, slabs: int):
        self._shape = (len(rngs), dim)
        self._slabs = self._draw(rngs, dim, slabs)

    @staticmethod
    def _draw(rngs, dim, slabs):
        for start in range(0, slabs, NOISE_CHUNK):
            k = min(NOISE_CHUNK, slabs - start)
            yield from np.stack([rng.standard_normal((k, dim)) for rng in rngs], axis=1)

    def standard_normal(self, shape) -> np.ndarray:
        if tuple(shape) != self._shape:
            raise ValueError(f"noise slabs are {self._shape}, not {shape}")
        return next(self._slabs)


def _clip_rows(step, norms, rows, limit, g, std):
    """Scale the joints' steps that the boolean mask ``rows`` selects in place to norm ``limit``.

    ``step`` and ``g`` are (M, J, 3), ``norms`` and ``rows`` (M, J) and
    ``std`` (J, 3). A joint's step is multiplied by limit / norm. One whose
    norm overflowed, where that factor would be 0 and inf * 0 NaN, is
    first replaced by the unit direction of ``g * std * std`` (the step
    without the positive factor gamma), computed from g scaled by its
    largest entry so that nothing overflows.
    """
    rows = np.flatnonzero(rows)
    if not rows.size:
        return
    # flat views of the C-contiguous arrays: row indexing is numpy's fast path
    step, g = step.reshape(-1, 3), g.reshape(-1, 3)
    row_norms = norms.ravel()[rows]
    inf = np.isinf(row_norms)
    if np.any(inf):
        i = rows[inf]
        s = std[i % len(std)]
        u = g[i] / np.max(np.abs(g[i]), axis=1, keepdims=True) * s * s
        step[i] = u / np.linalg.norm(u, axis=1, keepdims=True)
        row_norms[inf] = 1.0
    step[rows] *= (limit / row_norms)[:, None]


def _check_finite(x, what: str, step: int):
    if np.isfinite(x).all():
        return
    m = int(np.argmax(~np.all(np.isfinite(x), axis=1)))
    raise DivergenceError(f"non-finite {what} in hypothesis {m}", step=step,
                          diagnostics={"hypothesis": m})


def sample_guided(model: Prior | DenoiserModel, sched: DiffusionSchedule | None,
                  obs, cam: Camera | None, root_est: RootEstimate | None,
                  cfg: GuidanceConfig) -> HypothesisSet:
    """Draw pose hypotheses from the prior steered by one 2D observation.

    Per hypothesis: sample a root, start from unit Gaussian noise, and
    walk the reverse process; at every step the clean estimate is
    nudged by gamma times the observation log-likelihood gradient (zero
    for invalid or behind-camera joints) before renoising. ``model`` is a
    `Prior`, or a `DenoiserModel` whose ``prior()`` the call builds once.
    ``obs`` is a `KeypointObservation` of the model's J joints, used as
    given (its covariance edit is `KeypointObservation.edited`), seen
    through ``cam``, or None; ``gamma = 0`` or no observation reduces
    exactly to unconditional sampling. ``sched`` must be the model's own
    schedule (``None`` means ``model.sched``): one of another T or offset
    raises ``ValueError``.

    All M hypotheses advance together as one (M, 3J) state, and every
    row's arithmetic is independent of the other rows. If a state or a
    final pose (step 0) turns non-finite, ``DivergenceError`` reports the
    step and, in ``diagnostics["hypothesis"]``, the lowest non-finite row.
    The returned ``diagnostics`` count joint-steps: observed joints
    skipped behind the camera (``behind_camera_skips``), joints whose
    non-finite gradient was zeroed (``nonfinite_grad_zeroed``), and
    guided steps the trust region clipped at STEP_CAP_MM
    (``trust_region_cap``) or at the residual bound
    (``trust_region_residual``).
    """
    if sched is None:
        sched = model.sched
    elif (sched.T, sched.offset) != (model.sched.T, model.sched.offset):
        raise ValueError(f"schedule (T = {sched.T}, offset = {sched.offset}) is not the model's "
                         f"(T = {model.sched.T}, offset = {model.sched.offset})")
    if obs is not None:
        if obs.num_joints != model.joints:
            raise ValueError(f"observation has {obs.num_joints} joints, "
                             f"model expects {model.joints}")
        if cam is None:
            raise ValueError("observations given without a camera")

    model = model.prior() if isinstance(model, DenoiserModel) else model
    n, joints = cfg.num_hypotheses, model.joints
    rngs, roots = [], np.zeros((n, 3))
    for m in range(n):
        trajectory = cfg.stream_offset + m
        rngs.append(RngStream(cfg.seed, trajectory))
        if root_est is not None:
            roots[m] = sample_root(root_est, RngStream(cfg.seed, ROOT_STREAMS + trajectory))

    guided = obs is not None and cfg.gamma > 0.0
    norm_std = model.norm_std.reshape(joints, 3)
    counts = {"behind_camera_skips": 0, "nonfinite_grad_zeroed": 0,
              "trust_region_cap": 0, "trust_region_residual": 0}

    def guidance_step(x_norm, trust_region=True):
        """Guidance displacement gamma * grad(log p) in normalized space."""
        abs_joints = model.denormalize(x_norm).reshape(n, joints, 3) + roots[:, None, :]
        depth = abs_joints[..., 2]
        counts["behind_camera_skips"] += int(np.count_nonzero((depth <= 0.0) & obs.valid))
        # far-off inputs overflow: non-finite gradient rows are zeroed and counted here, an
        # infinite residual leaves a joint at STEP_CAP_MM, and _clip_rows handles the rest
        with np.errstate(over="ignore", invalid="ignore"):
            g_mm, residual = grad_and_residual(abs_joints, obs, cam)
            if not np.isfinite(g_mm).all():
                bad = ~np.isfinite(g_mm).all(axis=-1)
                g_mm[bad] = 0.0
                counts["nonfinite_grad_zeroed"] += int(np.count_nonzero(bad))
            step_mm = cfg.gamma * g_mm * norm_std * norm_std
            q = step_mm * step_mm  # summed in np.linalg.norm's order
            norms = np.sqrt((q[..., 0] + q[..., 1]) + q[..., 2])
        if not trust_region:
            _clip_rows(step_mm, norms, norms > OVERFLOW_GUARD_MM, OVERFLOW_GUARD_MM,
                       g_mm, norm_std)
            return (step_mm / norm_std).reshape(n, -1)
        # a joint the observation does not use has a zero gradient and residual,
        # so its step (0) is never over its bound (0, or -0 behind the camera)
        bound = np.minimum(STEP_CAP_MM, residual * depth / max(cam.fx, cam.fy))
        over = norms > bound
        n_over = int(np.count_nonzero(over))
        if n_over:
            limit = bound[over]
            n_cap = int(np.count_nonzero(limit == STEP_CAP_MM))
            counts["trust_region_cap"] += n_cap
            counts["trust_region_residual"] += n_over - n_cap
            _clip_rows(step_mm, norms, over, limit, g_mm, norm_std)
        return (step_mm / norm_std).reshape(n, -1)

    # eq2 draws at t = T..2 and alg1 at t = T..1, each after the initial state
    slabs = sched.T + (cfg.renoise_variant == RENOISE_ALG1)
    noise = _TrajectoryNoise(rngs, model.dim, slabs)
    # the helper thread, if any, lives for this call: the with block joins it
    with helper_thread(model, n) as helper:
        eval_fn = make_eval_forward(model, helper)
        x = noise.standard_normal((n, model.dim))
        for t in range(sched.T, 0, -1):
            _check_finite(x, "state", t)
            eps_pred = eval_fn(x, t)
            if guided and cfg.grad_space == GRAD_XT:
                # classic score-space guidance: fold the gradient into the
                # noise estimate, which scales it by sqrt(1 - alphabar_t)
                eps_pred = eps_pred - np.sqrt(1.0 - sched.alphabar[t]) * guidance_step(
                    x, trust_region=False)
            x0_hat = estimate_x0(x, eps_pred, t, sched)
            if guided and cfg.grad_space == GRAD_X0HAT:
                _check_finite(x0_hat, "clean estimate", t)
                x0_hat = x0_hat + guidance_step(x0_hat)
            if cfg.renoise_variant == RENOISE_EQ2:
                x = renoise(x0_hat, t - 1, noise, sched)
            else:
                ab = sched.alphabar[t]
                x = np.sqrt(ab) * x0_hat + (1.0 - ab) * noise.standard_normal(x0_hat.shape)

    with np.errstate(over="ignore", invalid="ignore"):  # _check_finite reports overflow
        pose_mm = model.denormalize(x).reshape(n, joints, 3)
        pose_mm = pose_mm - pose_mm[:, :1]
    _check_finite(pose_mm.reshape(n, -1), "final pose", 0)
    return HypothesisSet(pose_mm, roots, counts)


def sample_unconditional(model: Prior | DenoiserModel, sched: DiffusionSchedule | None,
                         rng: RngStream, n: int) -> HypothesisSet:
    """Draw n poses from the prior alone (the zero-guidance path).

    Sample i uses trajectory stream (rng.seed, rng.stream_id + i), so a
    guided run with the same seed and gamma = 0 reproduces these poses
    bit for bit.
    """
    cfg = GuidanceConfig(gamma=0.0, num_hypotheses=n, seed=rng.seed,
                         stream_offset=rng.stream_id)
    return sample_guided(model, sched, None, None, None, cfg)


def complete_pose(model: Prior | DenoiserModel, sched: DiffusionSchedule | None,
                  obs, cam: Camera, root_est: RootEstimate | None,
                  cfg: GuidanceConfig) -> HypothesisSet:
    """Guided sampling with masked joints: the prior inpaints the rest.

    Requires at least one joint the observation marks invalid; masked
    joints receive zero guidance by construction.
    """
    if np.all(obs.valid):
        raise ValueError("pose completion needs at least one masked joint")
    return sample_guided(model, sched, obs, cam, root_est, cfg)


def diversity_sweep(model: Prior | DenoiserModel, sched: DiffusionSchedule | None,
                    obs, cam: Camera, root_est: RootEstimate | None,
                    cfg: GuidanceConfig, s_values) -> list:
    """Per-joint spread of the hypothesis set for ``obs`` edited to each covariance scale."""
    model = model.prior() if isinstance(model, DenoiserModel) else model  # once for all scales
    rows = []
    for s in s_values:
        hyp = sample_guided(model, sched, obs.edited(float(s)), cam, root_est, cfg)
        rows.append((float(s), per_joint_std(hyp.joints)))
    return rows
