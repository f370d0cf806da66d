"""Pinhole camera, projection Jacobian, and pose-frame conversions.

Coordinates are millimeters in the camera frame (x right, y down,
z forward); pixels follow the usual image convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCameraError
from .numeric import RngStream

__all__ = [
    "Camera",
    "Pose",
    "RootEstimate",
    "ROOT_RELATIVE",
    "ABSOLUTE_CAMERA",
    "project",
    "projection_jacobian",
    "to_root_relative",
    "to_absolute",
    "sample_root",
    "DEFAULT_ROOT_COV",
]

ROOT_RELATIVE = "root_relative"
ABSOLUTE_CAMERA = "absolute_camera"

# fallback root variance (mm^2) when an observation file carries none;
# depth gets the larger spread
DEFAULT_ROOT_COV = (100.0**2, 100.0**2, 200.0**2)


@dataclass(frozen=True)
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise ValueError(f"camera parameters must be finite: {self}")
        if self.fx <= 0.0 or self.fy <= 0.0:
            raise ValueError(f"focal lengths must be positive: fx={self.fx} fy={self.fy}")


@dataclass(frozen=True)
class Pose:
    """J x 3 joint positions in millimeters with a frame tag; joint 0 is the root."""

    joints: np.ndarray
    frame: str = ROOT_RELATIVE

    def __post_init__(self):
        if self.frame not in (ROOT_RELATIVE, ABSOLUTE_CAMERA):
            raise ValueError(f"unknown frame tag {self.frame!r}")
        object.__setattr__(self, "joints", checked_joints(self.joints, self.frame == ROOT_RELATIVE))

    @property
    def num_joints(self) -> int:
        return self.joints.shape[0]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.joints, dtype=dtype, copy=copy)


def checked_joints(joints, root_relative: bool, batched: bool = False) -> np.ndarray:
    """A read-only float64 copy of a (J, 3) pose, or of (M, J, 3) poses when batched;
    ValueError for another shape, a non-finite value or a root-relative root off the origin."""
    joints = np.array(joints, dtype=np.float64)
    if joints.ndim != 2 + batched or joints.shape[-1] != 3 or 0 in joints.shape:
        raise ValueError(f"joints must be {'(M, J, 3)' if batched else '(J, 3)'}, "
                         f"got {joints.shape}")
    if not np.all(np.isfinite(joints)):
        raise ValueError("non-finite joint coordinates")
    if root_relative and np.any(joints[..., 0, :] != 0.0):
        raise ValueError("root-relative pose must have the root joint at the origin")
    joints.setflags(write=False)
    return joints


@dataclass(frozen=True)
class RootEstimate:
    """Camera-frame root position with per-axis variance (mm, mm^2)."""

    mean: np.ndarray
    cov: np.ndarray = field(default_factory=lambda: np.array(DEFAULT_ROOT_COV))

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov, dtype=np.float64)
        if mean.shape != (3,) or cov.shape != (3,):
            raise ValueError("root estimate needs 3-vector mean and diagonal cov")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov) & (cov >= 0.0))):
            raise ValueError(f"root estimate needs a finite mean and finite cov >= 0: {self}")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def _check_depth(point):
    if np.any(point[..., 2] <= 0.0):
        raise BehindCameraError("point has non-positive depth")


def project(point, cam: Camera) -> np.ndarray:
    """Pinhole projection of camera-frame point(s), shape (..., 3) -> (..., 2)."""
    point = np.asarray(point, dtype=np.float64)
    _check_depth(point)
    z = point[..., 2]
    return np.stack(
        [cam.fx * point[..., 0] / z + cam.cx, cam.fy * point[..., 1] / z + cam.cy],
        axis=-1,
    )


def projection_jacobian(point, cam: Camera) -> np.ndarray:
    """Derivative of the projection w.r.t. the 3D point, shape (..., 2, 3)."""
    point = np.asarray(point, dtype=np.float64)
    _check_depth(point)
    x, y, z = point[..., 0], point[..., 1], point[..., 2]
    jac = np.zeros(point.shape[:-1] + (2, 3), dtype=np.float64)
    jac[..., 0, 0] = cam.fx / z
    jac[..., 0, 2] = -cam.fx * x / (z * z)
    jac[..., 1, 1] = cam.fy / z
    jac[..., 1, 2] = -cam.fy * y / (z * z)
    return jac


def to_root_relative(pose: Pose) -> Pose:
    if pose.frame == ROOT_RELATIVE:
        return pose
    return Pose(pose.joints - pose.joints[0], ROOT_RELATIVE)


def to_absolute(pose: Pose, root) -> Pose:
    """Place a root-relative pose at an absolute camera-frame root position."""
    if pose.frame != ROOT_RELATIVE:
        raise ValueError("to_absolute expects a root-relative pose")
    root = np.asarray(root, dtype=np.float64)
    return Pose(pose.joints + root, ABSOLUTE_CAMERA)


def sample_root(est: RootEstimate, rng: RngStream) -> np.ndarray:
    return est.mean + np.sqrt(est.cov) * rng.standard_normal(3)
