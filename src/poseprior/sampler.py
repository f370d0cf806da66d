"""Guided reverse-process sampling, pose completion, diversity control.

All hypotheses of a call advance together as one (M, 3J) state: one
denoiser evaluation, one guidance step and one renoise of the whole
block per reverse step. Each hypothesis owns two random streams derived
from (seed, index): one for its trajectory, one for its root draw. A
trajectory stream is drawn NOISE_CHUNK steps per call; the streams are
counter-based, so this gives the bits of one draw per step. Keeping the
root on a separate stream makes the zero-guidance path bit-identical to
unconditional sampling, and since no row's arithmetic depends on the
other rows, a hypothesis comes out the same whatever the number of
hypotheses M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .denoiser import DenoiserModel, make_eval_forward
from .errors import DivergenceError
from .geometry import ROOT_RELATIVE, Camera, Pose, RootEstimate, project, sample_root
from .metrics import per_joint_std
from .numeric import RngStream
from .observation import KeypointObservation, log_likelihood_grad, sum_sources
from .schedule import DiffusionSchedule, estimate_x0, renoise

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

# root draws live in a disjoint stream-id namespace from trajectories
_ROOT_STREAM_NS = 1 << 48

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
# at t <= 10).
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
    cov_scale: float = 1.0
    cov_rotate: float = 0.0
    renoise_variant: str = RENOISE_EQ2
    num_hypotheses: int = 50
    seed: int = 0
    grad_space: str = GRAD_X0HAT
    stream_offset: int = 0

    def __post_init__(self):
        for name in ("gamma", "cov_scale", "cov_rotate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.cov_scale <= 0.0:
            raise ValueError(f"cov_scale must be > 0, got {self.cov_scale}")
        if self.num_hypotheses < 1:
            raise ValueError(f"need at least one hypothesis, got {self.num_hypotheses}")
        if self.renoise_variant not in (RENOISE_EQ2, RENOISE_ALG1):
            raise ValueError(f"unknown renoise variant {self.renoise_variant!r}")
        if self.grad_space not in (GRAD_X0HAT, GRAD_XT):
            raise ValueError(f"unknown gradient space {self.grad_space!r}")


@dataclass
class HypothesisSet:
    poses: list
    roots: np.ndarray           # (M, 3); zeros when no root estimate was used
    diagnostics: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.poses)


def _transformed_sources(obs, cfg: GuidanceConfig, joints: int):
    """Apply the (scale, rotation) covariance edits once, up front.

    Every joint's covariance is rotated by ``R(theta) S R(theta)^T`` when
    theta is nonzero (off-diagonal symmetrized), then scaled.
    """
    sources = list(obs) if isinstance(obs, (list, tuple)) else [obs]
    for src in sources:
        if src.num_joints != joints:
            raise ValueError(
                f"observation has {src.num_joints} joints, model expects {joints}")
    if cfg.cov_scale == 1.0 and cfg.cov_rotate == 0.0:
        return sources
    ct, st = np.cos(cfg.cov_rotate), np.sin(cfg.cov_rotate)
    rot = np.array([[ct, -st], [st, ct]])
    out = []
    for src in sources:
        covs = src.covs
        if cfg.cov_rotate != 0.0:
            m = rot @ np.stack([covs[:, :2], covs[:, 1:]], axis=1) @ rot.T  # rows [a, b], [b, c]
            covs = np.stack([m[:, 0, 0], 0.5 * (m[:, 0, 1] + m[:, 1, 0]), m[:, 1, 1]], axis=-1)
        out.append(src.with_covariances(cfg.cov_scale * covs))
    return out


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
    """Scale ``step[rows]`` in place to norm ``limit`` along each row's direction.

    A row is multiplied by limit / norm. A row whose norm overflowed,
    where that factor would be 0 and inf * 0 NaN, is first replaced by
    the unit direction of ``g * std * std`` (the step without the
    positive factor gamma), computed from g scaled by its largest entry
    so that nothing overflows.
    """
    if not rows.size:
        return
    row_norms = norms[rows]
    inf = np.isinf(row_norms)
    if np.any(inf):
        i = rows[inf]
        u = g[i] / np.max(np.abs(g[i]), axis=1, keepdims=True) * std[i] * std[i]
        step[i] = u / np.linalg.norm(u, axis=1, keepdims=True)
        row_norms[inf] = 1.0
    step[rows] *= (limit / row_norms)[:, None]


def _check_finite(x, what: str, step: int):
    bad = ~np.all(np.isfinite(x), axis=1)
    if np.any(bad):
        m = int(np.argmax(bad))
        raise DivergenceError(f"non-finite {what} in hypothesis {m}", step=step,
                              diagnostics={"hypothesis": m})


def sample_guided(model: DenoiserModel, sched: DiffusionSchedule | None,
                  obs, cam: Camera | None, root_est: RootEstimate | None,
                  cfg: GuidanceConfig) -> HypothesisSet:
    """Draw pose hypotheses from the prior steered by 2D observations.

    Per hypothesis: sample a root, start from unit Gaussian noise, and
    walk the reverse process; at every step the clean estimate is
    nudged by gamma times the observation log-likelihood gradient
    (summed over sources, zero for invalid or behind-camera joints)
    before renoising. ``obs`` may be one observation or a list of
    independent sources sharing the camera; ``gamma = 0`` or no
    observations reduces exactly to unconditional sampling. ``sched``
    must be the model's own schedule (``None`` means ``model.sched``):
    one of another T or offset raises ``ValueError``.

    All M hypotheses advance together as one (M, 3J) state, and every
    row's arithmetic is independent of the other rows. If a state turns
    non-finite, ``DivergenceError`` reports the step and, in
    ``diagnostics["hypothesis"]``, the lowest-index non-finite row.
    The returned ``diagnostics`` count joint-steps: observed joints
    skipped behind the camera (``behind_camera_skips``) and joints whose
    non-finite gradient was zeroed (``nonfinite_grad_zeroed``).
    """
    if sched is None:
        sched = model.sched
    elif (sched.T, sched.offset) != (model.sched.T, model.sched.offset):
        raise ValueError(f"schedule (T = {sched.T}, offset = {sched.offset}) is not the model's "
                         f"(T = {model.sched.T}, offset = {model.sched.offset})")
    sources = _transformed_sources(obs, cfg, model.joints) if obs is not None else []
    if sources and cam is None:
        raise ValueError("observations given without a camera")
    eval_fn = make_eval_forward(model)

    n, joints = cfg.num_hypotheses, model.joints
    rngs, roots = [], np.zeros((n, 3))
    for m in range(n):
        sid = cfg.stream_offset + m
        rngs.append(RngStream(cfg.seed, sid))
        if root_est is not None:
            roots[m] = sample_root(root_est, RngStream(cfg.seed, _ROOT_STREAM_NS + sid))

    guided = bool(sources) and cfg.gamma > 0.0
    if guided:
        # one copy of each source per hypothesis, matching the stacked (M*J, 3) pose
        sources = [KeypointObservation(np.tile(s.means, (n, 1)), np.tile(s.covs, (n, 1)),
                                       np.tile(s.valid, n)) for s in sources]
        norm_std = np.tile(model.norm_std.reshape(joints, 3), (n, 1))
        f_max = max(cam.fx, cam.fy)
        any_observed = np.logical_or.reduce([s.valid for s in sources])
    counts = {"behind_camera_skips": 0, "nonfinite_grad_zeroed": 0}

    def guidance_step(x_norm, trust_region=True):
        """Guidance displacement gamma * grad(log p) in normalized space."""
        flat_mm = model.denormalize(x_norm).reshape(n, joints, 3)
        abs_joints = (flat_mm + roots[:, None, :]).reshape(n * joints, 3)
        usable = abs_joints[:, 2] > 0.0
        counts["behind_camera_skips"] += int(np.sum(~usable & any_observed))
        pose = Pose(abs_joints, "absolute_camera")
        g_mm = sum_sources([log_likelihood_grad(pose, s, cam) for s in sources])
        bad = ~np.all(np.isfinite(g_mm), axis=1)
        if np.any(bad):
            g_mm[bad] = 0.0
            counts["nonfinite_grad_zeroed"] += int(np.sum(bad))
        with np.errstate(over="ignore"):  # _clip_rows handles overflowed rows
            step_mm = cfg.gamma * g_mm * norm_std * norm_std
            norms = np.linalg.norm(step_mm, axis=1)
        if not trust_region:
            _clip_rows(step_mm, norms, np.nonzero(norms > OVERFLOW_GUARD_MM)[0],
                       OVERFLOW_GUARD_MM, g_mm, norm_std)
            return (step_mm / norm_std).reshape(n, -1)
        live = usable & any_observed & (norms > 0.0)
        if np.any(live):
            proj = project(abs_joints[live], cam)
            residual = np.zeros(int(np.sum(live)))
            for src in sources:
                r = np.linalg.norm(src.means[live] - proj, axis=1)
                residual = np.maximum(residual, np.where(src.valid[live], r, 0.0))
            bound = np.minimum(STEP_CAP_MM, residual * abs_joints[live, 2] / f_max)
            over = norms[live] > bound
            _clip_rows(step_mm, norms, np.nonzero(live)[0][over], bound[over], g_mm, norm_std)
        return (step_mm / norm_std).reshape(n, -1)

    # eq2 draws at t = T..2 and alg1 at t = T..1, each after the initial state
    slabs = sched.T + (cfg.renoise_variant == RENOISE_ALG1)
    noise = _TrajectoryNoise(rngs, model.dim, slabs)
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
    _check_finite(x, "final state", 0)

    pose_mm = model.denormalize(x).reshape(n, joints, 3)
    pose_mm = pose_mm - pose_mm[:, :1]
    return HypothesisSet(poses=[Pose(p, ROOT_RELATIVE) for p in pose_mm], roots=roots,
                         diagnostics=counts)


def sample_unconditional(model: DenoiserModel, sched: DiffusionSchedule | None,
                         rng: RngStream, n: int) -> HypothesisSet:
    """Draw n poses from the prior alone (the zero-guidance path).

    Sample i uses trajectory stream (rng.seed, rng.stream_id + i), so a
    guided run with the same seed and gamma = 0 reproduces these poses
    bit for bit.
    """
    cfg = GuidanceConfig(gamma=0.0, num_hypotheses=n, seed=rng.seed,
                         stream_offset=rng.stream_id)
    return sample_guided(model, sched, None, None, None, cfg)


def complete_pose(model: DenoiserModel, sched: DiffusionSchedule | None,
                  obs, cam: Camera, root_est: RootEstimate | None,
                  cfg: GuidanceConfig) -> HypothesisSet:
    """Guided sampling with masked joints: the prior inpaints the rest.

    Requires at least one joint with no observation in any source;
    masked joints receive zero guidance by construction.
    """
    sources = list(obs) if isinstance(obs, (list, tuple)) else [obs]
    observed_anywhere = np.logical_or.reduce([s.valid for s in sources])
    if np.all(observed_anywhere):
        raise ValueError("pose completion needs at least one masked joint")
    return sample_guided(model, sched, obs, cam, root_est, cfg)


def diversity_sweep(model: DenoiserModel, sched: DiffusionSchedule | None,
                    obs, cam: Camera, root_est: RootEstimate | None,
                    cfg: GuidanceConfig, s_values) -> list:
    """Per-joint spread of the hypothesis set for each covariance scale."""
    rows = []
    for s in s_values:
        hyp = sample_guided(model, sched, obs, cam, root_est, replace(cfg, cov_scale=float(s)))
        rows.append((float(s), per_joint_std(hyp)))
    return rows
