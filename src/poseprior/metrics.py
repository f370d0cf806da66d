"""Evaluation metrics: MPJPE, PA-MPJPE, PCK, AUC, best-of-M, diversity.

All distances are millimeters. Joint-position metrics root-align both
poses first; the Procrustes variants additionally solve for the best
similarity transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError
from .geometry import Pose
from .numeric import svd_3x3

__all__ = [
    "SimilarityTransform",
    "mpjpe",
    "procrustes_align",
    "check_alignable",
    "pa_mpjpe",
    "hypothesis_errors",
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


def _hypotheses(hypotheses, gt: Pose):
    """An (M, J, 3) array, a `HypothesisSet` or a `Pose` list as one array, checked against gt."""
    stacked = np.asarray(hypotheses, dtype=np.float64)
    if len(stacked) == 0:
        raise ValueError("empty hypothesis set")
    if stacked.shape[1:] != gt.joints.shape:
        raise ValueError(f"joint count mismatch: {stacked.shape[1:]} vs {gt.joints.shape}")
    return stacked


# Below 2^400 mm, no square or sum of products of coordinates overflows float64; a pose at
# or above it is scored in units of 2^k mm (exact powers of two), and its figures scaled back.
_SAFE_EXPONENT = 400


def _units(x, axis=None) -> np.ndarray:
    """The least k >= 0 that puts the magnitudes of ``x`` over ``axis`` below 2^400 in units
    of 2^k mm; 0 for finite values below 2^400 mm. ``axis`` is kept, to broadcast."""
    return np.maximum(np.frexp(np.max(np.abs(x), axis=axis, keepdims=True))[1] - _SAFE_EXPONENT, 0)


def _mm(values, k):
    """Figures in units of 2^k mm back in mm, exactly; inf where a figure exceeds float64."""
    with np.errstate(over="ignore"):
        return np.ldexp(values, k)


def _distances(stacked, gt: Pose) -> np.ndarray:
    """Per-joint distances (M, J) of an (M, J, 3) stack to gt after root alignment, each pose
    and gt in that pose's units; a root-relative pose's root is at the origin, so
    subtracting it changes nothing."""
    k = np.maximum(_units(stacked, axis=(1, 2)), _units(gt.joints))
    p, g = np.ldexp(stacked, -k), np.ldexp(gt.joints, -k)
    return _mm(np.linalg.norm(p - p[:, :1] - (g - g[:, :1]), axis=2), k[:, 0])


def check_alignable(gt: Pose):
    """Raise AlignmentError unless Procrustes can align poses onto ``gt``: it needs at least
    3 joints, and after centering, in gt's own units (`_units`), joints not all on one line."""
    g = np.ldexp(gt.joints, -_units(gt.joints))
    if len(g) < 3:
        raise AlignmentError("need at least 3 joints for alignment")
    if np.linalg.matrix_rank(g - g.mean(axis=0)) < 2:
        raise AlignmentError("ground-truth joints are collinear")


def _procrustes(stacked, gt: Pose):
    """Similarity alignment of each pose of an (M, J, 3) stack onto gt.

    Centroids are removed, the rotation comes from the SVD of the
    cross-covariance (with reflection correction so det = +1), and the
    scale is the optimal least-squares factor. The ground truth is
    checked once, by `check_alignable`. Each pose is solved in its own
    units and gt in its own, which leaves the rotation as it is. Returns
    rotations (M, 3, 3), scales (M,), translations (M, 3), the aligned
    poses (M, J, 3) and their per-joint distances to gt (M, J).
    """
    check_alignable(gt)
    kp, kg = _units(stacked, axis=(1, 2)), _units(gt.joints)
    stacked, g = np.ldexp(stacked, -kp), np.ldexp(gt.joints, -kg)
    m = len(stacked)
    p_mean, g_mean = stacked.mean(axis=1), g.mean(axis=0)
    p0, g0 = stacked - p_mean[:, None, :], g - g_mean
    p_var = np.sum((p0 * p0).reshape(m, -1), axis=1)
    if np.any(p_var == 0.0):
        raise AlignmentError("prediction joints are all coincident")
    u, s, v = svd_3x3(np.swapaxes(p0, 1, 2) @ g0)
    u_t = np.swapaxes(u, 1, 2)
    d = np.sign(np.linalg.det(v @ u_t))
    d[d == 0.0] = 1.0
    flip = np.ones((m, 3))
    flip[:, -1] = d
    diag = np.zeros((m, 3, 3))
    diag[:, [0, 1, 2], [0, 1, 2]] = flip
    rot = v @ diag @ u_t
    scale = np.sum(s * flip, axis=1) / p_var
    # (scale * rot) @ p_mean and (scale * P) @ rot.T, the order of
    # SimilarityTransform, keep the bits of one pose aligned alone
    translation = g_mean - ((scale[:, None, None] * rot) @ p_mean[:, :, None])[:, :, 0]
    aligned = (scale[:, None, None] * stacked) @ np.swapaxes(rot, 1, 2) + translation[:, None, :]
    return (rot, _mm(scale, (kg - kp).ravel()), _mm(translation, kg), _mm(aligned, kg),
            _mm(np.linalg.norm(aligned - g, axis=2), kg))


def hypothesis_errors(hypotheses, gt: Pose):
    """MPJPE and PA-MPJPE of every hypothesis against gt, two (M,) arrays.

    One pass over the (M, J, 3) stack; each value equals `mpjpe` and
    `pa_mpjpe` of that hypothesis alone, bit for bit.
    """
    stacked = _hypotheses(hypotheses, gt)
    pa = np.mean(_procrustes(stacked, gt)[4], axis=1)
    return np.mean(_distances(stacked, gt), axis=1), pa


def mpjpe(pred: Pose, gt: Pose) -> float:
    """Mean per-joint Euclidean distance after root alignment."""
    return float(np.mean(_distances(_hypotheses([pred], gt), gt), axis=1)[0])


def procrustes_align(pred: Pose, gt: Pose):
    """Least-squares similarity alignment of pred onto gt (see `_procrustes`).

    Returns the transform and the transformed prediction.
    """
    rot, scale, translation, aligned, _ = _procrustes(_hypotheses([pred], gt), gt)
    transform = SimilarityTransform(rotation=rot[0], scale=float(scale[0]),
                                    translation=translation[0])
    return transform, aligned[0]


def pa_mpjpe(pred: Pose, gt: Pose) -> float:
    """Mean per-joint distance after Procrustes alignment."""
    return float(hypothesis_errors([pred], gt)[1][0])


def _pck_at(pred: Pose, gt: Pose, thresholds) -> np.ndarray:
    """PCK in percent at each threshold after root alignment.

    A threshold is strict (a joint exactly at it does not count), except
    that an exactly correct joint counts at every threshold, zero included.
    """
    dist = _distances(_hypotheses([pred], gt), gt)[0]
    return 100.0 * np.mean((dist < thresholds[:, None]) | (dist == 0.0), axis=1)


def pck(pred: Pose, gt: Pose) -> float:
    """Percentage of joints within PCK_THRESHOLD_MM after root alignment."""
    return float(_pck_at(pred, gt, np.array([PCK_THRESHOLD_MM]))[0])


def auc(pred: Pose, gt: Pose) -> float:
    """Mean PCK over AUC_STEPS evenly spaced thresholds from 0 to PCK_THRESHOLD_MM."""
    return float(np.mean(_pck_at(pred, gt, np.linspace(0.0, PCK_THRESHOLD_MM, AUC_STEPS))))


def best_of_m(hypotheses, gt: Pose) -> float:
    """Minimum MPJPE over an (M, J, 3) array, a `HypothesisSet` or a list of `Pose`."""
    return float(np.min(np.mean(_distances(_hypotheses(hypotheses, gt), gt), axis=1)))


def per_joint_std(hypotheses) -> float:
    """Mean over joints of the norm of the per-axis standard deviations of the root-relative
    positions of M >= 2 hypotheses: an array, a `HypothesisSet` or a list of `Pose`."""
    stacked = np.asarray(hypotheses, dtype=np.float64)
    if len(stacked) < 2:
        raise ValueError("need at least 2 hypotheses for a spread estimate")
    k = _units(stacked)  # one unit for the whole stack, whose spread is across poses
    stacked = np.ldexp(stacked, -k)
    axis_std = (stacked - stacked[:, :1]).std(axis=0)  # (J, 3), population std
    return float(_mm(np.mean(np.linalg.norm(axis_std, axis=1)), k.item()))

