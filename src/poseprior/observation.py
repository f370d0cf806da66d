"""2D keypoint observations: Gaussian likelihood, gradients, heatmap fits.

An observation stores a per-joint pixel mean, a 2x2 covariance, and a
validity flag. Invalid joints contribute nothing to the likelihood or
its gradient, which is what makes pose completion work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FitFailureError, InsufficientSupportError
from .geometry import Camera, Pose, project, projection_jacobian
from .numeric import SymMat2, eig_2x2

__all__ = [
    "KeypointObservation",
    "Heatmap",
    "log_likelihood",
    "log_likelihood_grad",
    "sum_sources",
    "fit_gaussian_heatmap",
    "scale_covariance",
    "rotate_covariance",
    "FALLBACK_SIGMA_PX",
    "MIN_EIGENVALUE_PX2",
]

LOG_2PI = np.log(2.0 * np.pi)

# fallback keypoint std-dev (px) when a detector provides no covariance;
# matches the Gaussian target width heatmap detectors are trained with
FALLBACK_SIGMA_PX = 2.0

# eigenvalue clamp applied to fitted covariances (px^2)
MIN_EIGENVALUE_PX2 = 0.25


@dataclass
class KeypointObservation:
    """Per-joint 2D detections: means (J,2) px, covs (J,3) packed [a,b,c], valid (J,)."""

    means: np.ndarray
    covs: np.ndarray
    valid: np.ndarray
    _inv_covs: np.ndarray = field(init=False, repr=False)   # (J,2,2)
    _log_dets: np.ndarray = field(init=False, repr=False)   # (J,)

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covs = np.asarray(self.covs, dtype=np.float64)
        self.valid = np.asarray(self.valid, dtype=bool)
        j = self.means.shape[0]
        if self.means.shape != (j, 2) or self.covs.shape != (j, 3) or self.valid.shape != (j,):
            raise ValueError("inconsistent observation array shapes")
        finite = np.all(np.isfinite(self.means), axis=1) & np.all(np.isfinite(self.covs), axis=1)
        bad = self.valid & ~finite
        if np.any(bad):
            raise ValueError(f"non-finite mean or covariance at joints {np.nonzero(bad)[0].tolist()}")
        a, b, c = self.covs[:, 0], self.covs[:, 1], self.covs[:, 2]
        det = a * c - b * b
        bad = self.valid & ((a <= 0.0) | (det <= 0.0))
        if np.any(bad):
            raise ValueError(f"non positive definite covariance at joints {np.nonzero(bad)[0].tolist()}")
        # precompute inverses and log-dets once; observations are immutable
        inv = np.zeros((j, 2, 2), dtype=np.float64)
        logdet = np.zeros(j, dtype=np.float64)
        v = self.valid
        with np.errstate(divide="ignore", invalid="ignore"):
            inv[v, 0, 0] = c[v] / det[v]
            inv[v, 1, 1] = a[v] / det[v]
            inv[v, 0, 1] = inv[v, 1, 0] = -b[v] / det[v]
            logdet[v] = np.log(det[v])
        self._inv_covs = inv
        self._log_dets = logdet

    @property
    def num_joints(self) -> int:
        return self.means.shape[0]

    def with_covariances(self, covs: np.ndarray) -> "KeypointObservation":
        return KeypointObservation(self.means.copy(), covs, self.valid.copy())

    def with_validity(self, valid: np.ndarray) -> "KeypointObservation":
        return KeypointObservation(self.means.copy(), self.covs.copy(), valid)


@dataclass(frozen=True)
class Heatmap:
    """Non-negative detector grid with a pixel-to-image mapping.

    ``values[v, u]`` is the response at image point
    ``origin + stride * (u, v)``.
    """

    width: int
    height: int
    values: np.ndarray
    origin: np.ndarray = field(default_factory=lambda: np.zeros(2))
    stride: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.height, self.width):
            raise ValueError(f"values shape {values.shape} != (h={self.height}, w={self.width})")
        if np.any(values < 0.0):
            raise ValueError("heatmap values must be non-negative")
        origin = np.asarray(self.origin, dtype=np.float64)
        if origin.shape != (2,):
            raise ValueError("origin must be a 2-vector")
        values.setflags(write=False)
        origin.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "origin", origin)


def _valid_projections(pose: Pose, obs: KeypointObservation, cam: Camera):
    """Project usable joints; returns (joint mask, their projections).

    A valid joint at non-positive depth has no projection and counts as
    unobserved; a NaN depth is kept, so it shows up as a NaN result.
    """
    if pose.frame != "absolute_camera":
        raise ValueError("observation likelihood needs an absolute camera-frame pose")
    if pose.num_joints != obs.num_joints:
        raise ValueError(f"pose has {pose.num_joints} joints, observation {obs.num_joints}")
    mask = obs.valid & ~(pose.joints[:, 2] <= 0.0)
    if not np.any(mask):
        return mask, np.zeros((0, 2))
    return mask, project(pose.joints[mask], cam)


def log_likelihood(pose: Pose, obs: KeypointObservation, cam: Camera) -> float:
    """Total Gaussian log-density of the observed keypoints given a pose.

    Sums, over valid joints in front of the camera, the full log-density
    (normalization constant included) of the observed mean under a
    Gaussian centred on the projected joint. No such joints gives 0.
    """
    mask, proj = _valid_projections(pose, obs, cam)
    if not np.any(mask):
        return 0.0
    r = obs.means[mask] - proj
    maha = np.einsum("ji,jik,jk->j", r, obs._inv_covs[mask], r)
    return float(np.sum(-LOG_2PI - 0.5 * obs._log_dets[mask] - 0.5 * maha))


def log_likelihood_grad(pose: Pose, obs: KeypointObservation, cam: Camera) -> np.ndarray:
    """Gradient of `log_likelihood` w.r.t. joint positions, shape (J, 3).

    Rows for invalid joints and for joints at non-positive depth are zero.
    """
    mask, proj = _valid_projections(pose, obs, cam)
    grad = np.zeros((pose.num_joints, 3), dtype=np.float64)
    if not np.any(mask):
        return grad
    r = obs.means[mask] - proj
    jac = projection_jacobian(pose.joints[mask], cam)         # (n,2,3)
    weighted = np.einsum("jik,ji->jk", obs._inv_covs[mask], r)  # (n,2)
    grad[mask] = np.einsum("jik,ji->jk", jac, weighted)
    return grad


def sum_sources(grads) -> np.ndarray:
    """Element-wise sum of per-source gradients (independent detectors)."""
    grads = [np.asarray(g, dtype=np.float64) for g in grads]
    if not grads:
        raise ValueError("no gradient sources to sum")
    shape = grads[0].shape
    for g in grads[1:]:
        if g.shape != shape:
            raise ValueError(f"gradient shape mismatch: {g.shape} != {shape}")
    return np.sum(grads, axis=0)


def fit_gaussian_heatmap(hm: Heatmap, floor: float = 1e-6):
    """Fit a 2D Gaussian (mean, covariance) to a heatmap.

    The heatmap is normalized to sum to one, then the log of every
    pixel above ``floor`` (a fraction of the peak) is fit against the
    log-Gaussian quadratic form by weighted linear least squares, each
    pixel weighted by its value so the noise-dominated tail does not
    swamp the fit. The quadratic coefficients give the inverse
    covariance and mean directly; the recovered covariance has its
    eigenvalues clamped to at least MIN_EIGENVALUE_PX2.

    Returns (mean (2,) px, SymMat2 covariance px^2).
    """
    total = float(np.sum(hm.values))
    if total <= 0.0:
        raise InsufficientSupportError("heatmap sums to zero")
    values = hm.values / total
    peak = float(np.max(values))
    rows, cols = np.nonzero(values > floor * peak)
    if rows.size < 6:
        raise InsufficientSupportError(
            f"only {rows.size} pixels above floor; need at least 6")

    x = hm.origin[0] + hm.stride * cols
    y = hm.origin[1] + hm.stride * rows
    w = values[rows, cols]
    logv = np.log(w)

    # center coordinates at the weighted centroid for conditioning;
    # the quadratic coefficients are shift-equivariant
    x0 = float(np.average(x, weights=w))
    y0 = float(np.average(y, weights=w))
    xs, ys = x - x0, y - y0

    design = np.column_stack([np.ones_like(xs), xs, ys, xs * xs, xs * ys, ys * ys])
    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(design * sw[:, None], logv * sw, rcond=None)

    prec = np.array([[-2.0 * beta[3], -beta[4]], [-beta[4], -2.0 * beta[5]]])
    det = prec[0, 0] * prec[1, 1] - prec[0, 1] * prec[1, 0]
    if not np.isfinite(det) or abs(det) < 1e-12:
        raise FitFailureError("quadratic fit has a singular precision matrix")
    center = np.linalg.solve(prec, beta[1:3]) + np.array([x0, y0])
    cov = np.linalg.inv(prec)

    evals, evecs = eig_2x2(SymMat2.from_array(cov))
    if not np.all(np.isfinite(evals)):
        raise FitFailureError("fitted covariance has non-finite eigenvalues")
    evals = np.maximum(evals, MIN_EIGENVALUE_PX2)
    cov = evecs.T @ np.diag(evals) @ evecs
    sig = SymMat2.from_array(cov)
    if not sig.is_positive_definite():
        raise FitFailureError(f"covariance not positive definite after clamp: {sig}")
    return center, sig


def scale_covariance(sigma: SymMat2, s: float) -> SymMat2:
    """Scale the diversity magnitude: eigenvalues multiply by s."""
    if s <= 0.0:
        raise ValueError(f"scale must be positive, got {s}")
    return SymMat2(s * sigma.a, s * sigma.b, s * sigma.c)


def rotate_covariance(sigma: SymMat2, theta: float) -> SymMat2:
    """Rotate the diversity axes: eigenvectors rotate by theta, eigenvalues fixed."""
    ct, st = np.cos(theta), np.sin(theta)
    r = np.array([[ct, -st], [st, ct]])
    return SymMat2.from_array(r @ sigma.as_array() @ r.T)
