"""Noise schedules and the closed-form forward noising process.

Steps are indexed t = 1..T; index 0 is the clean sample, so
``alphabar[0] = 1`` and arrays are stored with length T+1 (``beta[0]``
is unused and kept at 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numeric import RngStream

__all__ = [
    "DiffusionSchedule",
    "cosine_schedule",
    "forward_sample",
    "estimate_x0",
    "renoise",
]

BETA_MAX = 0.999


@dataclass(frozen=True)
class DiffusionSchedule:
    """Per-step noise levels; immutable once built."""

    T: int
    offset: float
    beta: np.ndarray = field(repr=False)      # (T+1,), beta[0] unused
    alpha: np.ndarray = field(repr=False)     # (T+1,), alpha[t] = 1 - beta[t]
    alphabar: np.ndarray = field(repr=False)  # (T+1,), alphabar[0] = 1

    def _check_t(self, t: int):
        if not 1 <= t <= self.T:
            raise ValueError(f"step {t} outside [1, {self.T}]")


def cosine_schedule(T: int, offset: float = 0.008) -> DiffusionSchedule:
    """Cosine noise schedule with the usual small-offset construction.

    Betas follow the squared-cosine decay profile, clipped at 0.999;
    alphabar is the running product of (1 - beta), which telescopes to
    the analytic cosine curve wherever the clip is inactive. Building
    alphabar from the clipped betas keeps 1/sqrt(alphabar) finite at
    t = T, so the noising/denoising algebra round-trips at every step.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    if not 0.0 < offset < 1.0:
        raise ValueError(f"offset must be in (0, 1), got {offset}")

    grid = (np.arange(T + 1, dtype=np.float64) / T + offset) / (1.0 + offset)
    f = np.cos(grid * (np.pi / 2.0)) ** 2
    beta = np.zeros(T + 1, dtype=np.float64)
    beta[1:] = np.minimum(1.0 - f[1:] / f[:-1], BETA_MAX)
    if np.any(beta[1:] <= 0.0):
        raise ValueError(f"degenerate schedule: non-positive beta for T={T}")

    alpha = 1.0 - beta
    alphabar = np.empty(T + 1, dtype=np.float64)
    alphabar[0] = 1.0
    np.cumprod(alpha[1:], out=alphabar[1:])
    for arr in (beta, alpha, alphabar):
        arr.setflags(write=False)
    return DiffusionSchedule(T=T, offset=offset, beta=beta, alpha=alpha, alphabar=alphabar)


def forward_sample(x0, t: int, eps, sched: DiffusionSchedule) -> np.ndarray:
    """Noise a clean vector up to step t: sqrt(ab_t) x0 + sqrt(1-ab_t) eps."""
    sched._check_t(t)
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ValueError(f"eps shape {eps.shape} != x0 shape {x0.shape}")
    ab = sched.alphabar[t]
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def estimate_x0(x_t, eps_pred, t: int, sched: DiffusionSchedule) -> np.ndarray:
    """Recover the clean-sample estimate from predicted noise at step t."""
    sched._check_t(t)
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_pred = np.asarray(eps_pred, dtype=np.float64)
    ab = sched.alphabar[t]
    if ab == 0.0:
        raise ZeroDivisionError(f"alphabar[{t}] is zero; cannot invert noising")
    return (x_t - np.sqrt(1.0 - ab) * eps_pred) / np.sqrt(ab)


def renoise(x0_hat, t_target: int, rng: RngStream, sched: DiffusionSchedule) -> np.ndarray:
    """Draw a noised sample at step t_target given a clean estimate.

    t_target = 0 returns the input unchanged without consuming
    randomness.
    """
    x0_hat = np.asarray(x0_hat, dtype=np.float64)
    if t_target == 0:
        return x0_hat.copy()
    sched._check_t(t_target)
    ab = sched.alphabar[t_target]
    eps = rng.standard_normal(x0_hat.shape)
    return np.sqrt(ab) * x0_hat + np.sqrt(1.0 - ab) * eps
