"""Evaluation metrics: MPJPE, PA-MPJPE, PCK, AUC, best-of-M, diversity.

All distances are millimeters. Joint-position metrics root-align both
poses first; the Procrustes variants additionally solve for the best
similarity transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError
from .geometry import Pose, to_root_relative
from .numeric import svd_3x3

__all__ = [
    "SimilarityTransform",
    "mpjpe",
    "procrustes_align",
    "pa_mpjpe",
    "pck",
    "auc",
    "best_of_m",
    "per_joint_std",
]

PCK_THRESHOLD_MM = 150.0
AUC_STEPS = 31


@dataclass(frozen=True)
class SimilarityTransform:
    rotation: np.ndarray   # (3, 3), orthonormal, det +1
    scale: float
    translation: np.ndarray  # (3,)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * points @ self.rotation.T + self.translation


def _paired_joints(pred: Pose, gt: Pose):
    if pred.num_joints != gt.num_joints:
        raise ValueError(f"joint count mismatch: {pred.num_joints} vs {gt.num_joints}")
    return to_root_relative(pred).joints, to_root_relative(gt).joints


def mpjpe(pred: Pose, gt: Pose) -> float:
    """Mean per-joint Euclidean distance after root alignment."""
    p, g = _paired_joints(pred, gt)
    return float(np.mean(np.linalg.norm(p - g, axis=1)))


def procrustes_align(pred: Pose, gt: Pose):
    """Least-squares similarity alignment of pred onto gt.

    Centroids are removed, the rotation comes from the SVD of the
    cross-covariance (with reflection correction so det = +1), and the
    scale is the optimal least-squares factor. Returns the transform
    and the transformed prediction.
    """
    p = np.asarray(pred.joints, dtype=np.float64)
    g = np.asarray(gt.joints, dtype=np.float64)
    if p.shape != g.shape:
        raise ValueError(f"joint count mismatch: {p.shape} vs {g.shape}")
    if p.shape[0] < 3:
        raise AlignmentError("need at least 3 joints for alignment")
    p_mean, g_mean = p.mean(axis=0), g.mean(axis=0)
    p0, g0 = p - p_mean, g - g_mean
    p_var = float(np.sum(p0 * p0))
    if p_var == 0.0:
        raise AlignmentError("prediction joints are all coincident")
    if np.linalg.matrix_rank(g0) < 2:
        raise AlignmentError("ground-truth joints are collinear")
    u, s, v = svd_3x3(p0.T @ g0)
    d = np.sign(np.linalg.det(v @ u.T))
    if d == 0.0:
        d = 1.0
    flip = np.ones(3)
    flip[-1] = d
    rot = v @ np.diag(flip) @ u.T
    scale = float(np.sum(s * flip)) / p_var
    translation = g_mean - scale * rot @ p_mean
    transform = SimilarityTransform(rotation=rot, scale=scale, translation=translation)
    return transform, transform.apply(p)


def pa_mpjpe(pred: Pose, gt: Pose) -> float:
    """Mean per-joint distance after Procrustes alignment."""
    _, aligned = procrustes_align(pred, gt)
    return float(np.mean(np.linalg.norm(aligned - np.asarray(gt.joints), axis=1)))


def _pck_at(pred: Pose, gt: Pose, thresholds) -> np.ndarray:
    """PCK in percent at each threshold after root alignment.

    A threshold is strict (a joint exactly at it does not count), except
    that an exactly correct joint counts at every threshold, zero included.
    """
    p, g = _paired_joints(pred, gt)
    dist = np.linalg.norm(p - g, axis=1)
    return 100.0 * np.mean((dist < thresholds[:, None]) | (dist == 0.0), axis=1)


def pck(pred: Pose, gt: Pose) -> float:
    """Percentage of joints within PCK_THRESHOLD_MM after root alignment."""
    return float(_pck_at(pred, gt, np.array([PCK_THRESHOLD_MM]))[0])


def auc(pred: Pose, gt: Pose) -> float:
    """Mean PCK over AUC_STEPS evenly spaced thresholds from 0 to PCK_THRESHOLD_MM."""
    return float(np.mean(_pck_at(pred, gt, np.linspace(0.0, PCK_THRESHOLD_MM, AUC_STEPS))))


def best_of_m(hypotheses, gt: Pose) -> float:
    """Minimum MPJPE over a hypothesis set."""
    poses = getattr(hypotheses, "poses", hypotheses)
    if len(poses) == 0:
        raise ValueError("empty hypothesis set")
    return min(mpjpe(h, gt) for h in poses)


def per_joint_std(hypotheses) -> float:
    """Mean over joints of the norm of the per-axis standard deviations.

    Positions are root-relative; needs at least two hypotheses.
    """
    poses = getattr(hypotheses, "poses", hypotheses)
    if len(poses) < 2:
        raise ValueError("need at least 2 hypotheses for a spread estimate")
    stacked = np.stack([to_root_relative(p).joints for p in poses])  # (M, J, 3)
    axis_std = stacked.std(axis=0)  # (J, 3), population std
    return float(np.mean(np.linalg.norm(axis_std, axis=1)))

