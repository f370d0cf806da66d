"""File formats, dataset containers, and the synthetic pose world.

Pose and observation files are JSON lines with a header line; heatmaps
and model checkpoints are little-endian binary. The synthetic generator
builds a small articulated skeleton with known ground truth so every
downstream stage can be exercised without licensed mocap data.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import denoiser as dn
from .errors import FormatError, ParseError, SchemaError, VersionError
from .geometry import DEFAULT_ROOT_COV, Camera, Pose, RootEstimate, project
from .numeric import RngStream
from .observation import FALLBACK_SIGMA_PX, Heatmap, KeypointObservation
from .schedule import cosine_schedule

__all__ = [
    "PoseDataset",
    "ObservationRecord",
    "SyntheticSkeletonConfig",
    "DEFAULT_JOINT_NAMES",
    "save_poses",
    "load_poses",
    "save_observations",
    "load_observations",
    "save_heatmap",
    "load_heatmap",
    "save_checkpoint",
    "load_checkpoint",
    "generate_synthetic",
]

POSE_FORMAT = "poseprior/poses"
OBS_FORMAT = "poseprior/observations"
FILE_VERSION = 1

HEATMAP_MAGIC = b"HMP1"
CHECKPOINT_MAGIC = b"PPD1"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIIIdQ")
# Checkpoint tensors are read this many values at a time, so no read
# buffer reaches glibc's initial 128 KB mmap threshold. Freeing a larger
# buffer raises that threshold, and the training arrays that follow then
# come from the heap: train-paper's peak RSS read 398.6 MB with one
# buffer per tensor, against 392-394 MB with a whole-file read or these.
_CKPT_READ_VALUES = 8192

DEFAULT_JOINT_NAMES = (
    "pelvis", "r_hip", "r_knee", "r_ankle", "l_hip", "l_knee", "l_ankle",
    "spine", "thorax", "neck", "head",
    "l_shoulder", "l_elbow", "l_wrist", "r_shoulder", "r_elbow", "r_wrist",
)


@dataclass
class PoseDataset:
    """Root-relative poses (N, J, 3) in millimeters, root joint 0, plus per-record metadata."""

    joint_names: tuple
    poses: np.ndarray
    meta: list = field(default_factory=list)
    header_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.joint_names = tuple(self.joint_names)
        self.poses = np.asarray(self.poses, dtype=np.float64)
        j = len(self.joint_names)
        if self.poses.size == 0:
            self.poses = self.poses.reshape(0, j, 3)
        if self.poses.ndim != 3 or self.poses.shape[1:] != (j, 3):
            raise ValueError(f"poses must be (N, {j}, 3), got {self.poses.shape}")
        if not self.meta:
            self.meta = [{} for _ in range(self.poses.shape[0])]
        if len(self.meta) != self.poses.shape[0]:
            raise ValueError("meta length does not match pose count")

    @property
    def num_poses(self) -> int:
        return self.poses.shape[0]

    @property
    def num_joints(self) -> int:
        return len(self.joint_names)

    def pose_at(self, i: int) -> Pose:
        return Pose(self.poses[i], "root_relative")


@dataclass
class ObservationRecord:
    frame_id: str
    camera: Camera
    keypoints: KeypointObservation
    root: RootEstimate
    gt_pose: Pose | None = None
    cov_fallback_joints: tuple = ()
    root_cov_fallback: bool = False


def save_poses(dataset: PoseDataset, path):
    header = {
        "format": POSE_FORMAT,
        "version": FILE_VERSION,
        "J": dataset.num_joints,
        "joint_names": list(dataset.joint_names),
        "root_index": 0,
    }
    if dataset.header_meta:
        header["meta"] = dict(dataset.header_meta)
    with open(path, "w") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for i in range(dataset.num_poses):
            rec = {"joints": dataset.poses[i].ravel().tolist()}
            if dataset.meta[i]:
                rec["meta"] = dataset.meta[i]
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _read_jsonl(path, expected_format):
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty file: missing header", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad header: {exc}", line=1) from None
    if not isinstance(header, dict) or header.get("format") != expected_format:
        raise SchemaError(f"not a {expected_format} file: {path}")
    if header.get("version") != FILE_VERSION:
        raise VersionError(f"unsupported file version {header.get('version')}")
    records = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            records.append((lineno, json.loads(raw)))
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad record: {exc}", line=lineno) from None
    return header, records


def load_poses(path) -> PoseDataset:
    header, records = _read_jsonl(path, POSE_FORMAT)
    joint_names = tuple(header.get("joint_names") or ())
    j = header.get("J")
    if not joint_names or len(joint_names) != j:
        raise SchemaError(f"header J={j} inconsistent with joint_names")
    if header.get("root_index", 0) != 0:
        raise SchemaError(f"header root_index must be 0, got {header['root_index']!r}")
    poses, meta = [], []
    for lineno, rec in records:
        if not isinstance(rec, dict):
            raise SchemaError(f"line {lineno}: a pose record must be a JSON object")
        coords = rec.get("joints")
        if not isinstance(coords, list) or len(coords) != 3 * j:
            raise SchemaError(f"line {lineno}: expected {3 * j} joint coordinates")
        try:
            arr = np.asarray(coords, dtype=np.float64).reshape(j, 3)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"line {lineno}: bad joint coordinates ({exc})") from None
        if not np.all(np.isfinite(arr)):
            raise SchemaError(f"line {lineno}: non-finite joint coordinates")
        if np.any(arr[0] != 0.0):
            raise SchemaError(f"line {lineno}: root joint not at the origin")
        rec_meta = rec.get("meta", {})
        if not isinstance(rec_meta, dict):
            raise SchemaError(f'line {lineno}: "meta" must be a JSON object')
        poses.append(arr)
        meta.append(rec_meta)
    arr = np.stack(poses) if poses else np.zeros((0, j, 3))
    return PoseDataset(joint_names, arr, meta, header.get("meta", {}))


def _keypoints_to_json(obs: KeypointObservation, fallback: tuple) -> list:
    out = []
    for i in range(obs.num_joints):
        entry = {"mean": obs.means[i].tolist(), "valid": bool(obs.valid[i])}
        if i not in fallback:
            entry["cov"] = obs.covs[i].tolist()
        out.append(entry)
    return out


def save_observations(records, path, joint_names):
    joint_names = list(joint_names)
    header = {
        "format": OBS_FORMAT,
        "version": FILE_VERSION,
        "J": len(joint_names),
        "joint_names": joint_names,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for rec in records:
            cam = rec.camera
            doc = {
                "frame_id": rec.frame_id,
                "camera": {"fx": cam.fx, "fy": cam.fy, "cx": cam.cx, "cy": cam.cy},
                "keypoints": _keypoints_to_json(rec.keypoints, rec.cov_fallback_joints),
                "root": {"mean": rec.root.mean.tolist()},
            }
            if not rec.root_cov_fallback:
                doc["root"]["cov"] = rec.root.cov.tolist()
            if rec.gt_pose is not None:
                doc["gt_pose"] = rec.gt_pose.joints.ravel().tolist()
                doc["gt_frame"] = rec.gt_pose.frame
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def load_observations(path) -> list:
    """Read observation records; missing covariances get the fixed fallback."""
    header, raw_records = _read_jsonl(path, OBS_FORMAT)
    j = header.get("J")
    if not isinstance(j, int) or j < 1:
        raise SchemaError("header missing a valid joint count J")
    records = []
    fallback_cov = [FALLBACK_SIGMA_PX**2, 0.0, FALLBACK_SIGMA_PX**2]
    for lineno, doc in raw_records:
        try:
            cam_doc = doc["camera"]
            cam = Camera(cam_doc["fx"], cam_doc["fy"], cam_doc["cx"], cam_doc["cy"])
            kp_docs = doc["keypoints"]
            if len(kp_docs) != j:
                raise SchemaError(f"line {lineno}: expected {j} keypoints")
            means = np.zeros((j, 2))
            covs = np.tile([1.0, 0.0, 1.0], (j, 1))
            valid = np.zeros(j, dtype=bool)
            fallback = []
            for i, kp in enumerate(kp_docs):
                valid[i] = bool(kp.get("valid", False))
                try:
                    if "mean" in kp:
                        means[i] = kp["mean"]
                    elif valid[i]:
                        raise SchemaError(f"line {lineno}: keypoint {i} is valid but has no mean")
                    if "cov" in kp:
                        covs[i] = kp["cov"]
                    elif valid[i]:
                        covs[i] = fallback_cov
                        fallback.append(i)
                except ValueError as exc:
                    raise ValueError(f"keypoint {i}: {exc}") from None
            keypoints = KeypointObservation(means, covs, valid)
            root_doc = doc["root"]
            root_cov_fallback = "cov" not in root_doc
            root = RootEstimate(root_doc["mean"], root_doc.get("cov", DEFAULT_ROOT_COV))
            gt = None
            if "gt_pose" in doc:
                arr = np.asarray(doc["gt_pose"], dtype=np.float64).reshape(j, 3)
                gt = Pose(arr, doc.get("gt_frame", "absolute_camera"))
            records.append(ObservationRecord(
                frame_id=str(doc["frame_id"]), camera=cam, keypoints=keypoints,
                root=root, gt_pose=gt, cov_fallback_joints=tuple(fallback),
                root_cov_fallback=root_cov_fallback,
            ))
        except (KeyError, TypeError, AttributeError) as exc:
            raise SchemaError(f"line {lineno}: malformed observation record ({exc})") from None
        except ValueError as exc:
            raise SchemaError(f"line {lineno}: {exc}") from None
    return records


def save_heatmap(hm: Heatmap, path):
    with open(path, "wb") as fh:
        fh.write(HEATMAP_MAGIC)
        fh.write(struct.pack("<HH", hm.width, hm.height))
        fh.write(struct.pack("<fff", hm.origin[0], hm.origin[1], hm.stride))
        fh.write(hm.values.astype("<f4").tobytes())


def load_heatmap(path) -> Heatmap:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != HEATMAP_MAGIC:
        raise FormatError(f"bad heatmap magic in {path}")
    if len(blob) < 20:
        raise FormatError("truncated heatmap header")
    w, h = struct.unpack_from("<HH", blob, 4)
    ox, oy, stride = struct.unpack_from("<fff", blob, 8)
    expected = 20 + 4 * w * h
    if len(blob) != expected:
        raise FormatError(f"heatmap payload is {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f4", count=w * h, offset=20)
    values = values.reshape(h, w).astype(np.float64)
    if np.any(values < 0.0):
        raise FormatError("negative heatmap values")
    return Heatmap(width=w, height=h, values=values,
                   origin=np.array([ox, oy], dtype=np.float64), stride=float(stride))


def save_checkpoint(model: dn.DenoiserModel, path):
    """Write the model to a binary checkpoint (parameters as float32)."""
    if model.norm_mean.shape != (model.dim,) or model.norm_std.shape != (model.dim,):
        raise ValueError("model normalization statistics have the wrong shape")
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(
            CHECKPOINT_MAGIC, CHECKPOINT_VERSION, model.joints, model.hidden_dim,
            model.sched.T, model.sched.offset, model.adam_steps,
        ))
        fh.write(model.norm_mean.astype("<f8").tobytes())
        fh.write(model.norm_std.astype("<f8").tobytes())
        for group in (model.params, model.ema_params, model.adam_m, model.adam_v):
            for key in dn.PARAM_KEYS:
                fh.write(group[key].astype("<f4").tobytes())
        for key in dn.STAT_KEYS:
            fh.write(model.bn_stats[key].astype("<f4").tobytes())


def load_checkpoint(path) -> dn.DenoiserModel:
    """Read a checkpoint; rebuilds the schedule from the stored config.

    The file size is checked against the header before any tensor is
    read, and tensors are read one at a time in small pieces, so the
    whole file is never held in memory next to the model it becomes.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_CKPT_HEADER.size)
        if head[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic in {path}")
        if len(head) < _CKPT_HEADER.size:
            raise FormatError("truncated checkpoint header")
        magic, version, joints, hidden, t_steps, offset, adam_steps = _CKPT_HEADER.unpack(head)
        if version != CHECKPOINT_VERSION:
            raise VersionError(f"checkpoint version {version} not supported")

        shapes = dn.param_shapes(joints, hidden)
        d = 3 * joints
        n_param = sum(int(np.prod(shapes[k])) for k in dn.PARAM_KEYS)
        expected = _CKPT_HEADER.size + 2 * 8 * d + 4 * (4 * n_param + len(dn.STAT_KEYS) * hidden)
        if size != expected:
            raise FormatError(f"checkpoint is {size} bytes, expected {expected}")

        def read(dtype, shape):
            out = np.empty(shape)
            flat = out.reshape(-1)
            width = np.dtype(dtype).itemsize
            for i in range(0, flat.size, _CKPT_READ_VALUES):
                part = flat[i:i + _CKPT_READ_VALUES]
                part[:] = np.frombuffer(fh.read(width * part.size), dtype)
            return out

        norm_mean = read("<f8", d)
        norm_std = read("<f8", d)
        params, ema, adam_m, adam_v = (
            {key: read("<f4", shapes[key]) for key in dn.PARAM_KEYS} for _ in range(4))
        stats = {key: read("<f4", hidden) for key in dn.STAT_KEYS}

    return dn.DenoiserModel(
        joints=joints, hidden_dim=hidden, sched=cosine_schedule(t_steps, offset),
        params=params, ema_params=ema, bn_stats=stats,
        norm_mean=norm_mean, norm_std=norm_std,
        adam_m=adam_m, adam_v=adam_v, adam_steps=adam_steps,
    )


# -- synthetic skeleton world ------------------------------------------------

_DEFAULT_PARENTS = (-1, 0, 1, 2, 0, 4, 5, 0, 7, 8, 9, 8, 11, 12, 8, 14, 15)
_DEFAULT_BONES = (0.0, 130.0, 450.0, 440.0, 130.0, 450.0, 440.0,
                  230.0, 250.0, 120.0, 120.0,
                  160.0, 280.0, 250.0, 160.0, 280.0, 250.0)
_DEFAULT_REST_DIRS = (
    (0.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
    (0.0, -1.0, 0.0), (0.0, -1.0, 0.0), (0.0, -1.0, 0.0), (0.0, -1.0, 0.0),
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
    (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
)
_DEFAULT_ANGLE_LIMITS = (
    (0.3, 0.9, 0.3),
    (0.8, 0.4, 0.4), (1.2, 0.2, 0.2), (0.4, 0.2, 0.2),
    (0.8, 0.4, 0.4), (1.2, 0.2, 0.2), (0.4, 0.2, 0.2),
    (0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.4, 0.4, 0.3),
    (1.2, 0.8, 0.8), (1.5, 0.3, 0.3), (0.5, 0.3, 0.3),
    (1.2, 0.8, 0.8), (1.5, 0.3, 0.3), (0.5, 0.3, 0.3),
)


@dataclass(frozen=True)
class SyntheticSkeletonConfig:
    """Articulated chain sampled by uniform joint angles within limits."""

    parents: tuple = _DEFAULT_PARENTS
    bone_lengths: tuple = _DEFAULT_BONES
    rest_dirs: tuple = _DEFAULT_REST_DIRS
    angle_limits: tuple = _DEFAULT_ANGLE_LIMITS
    joint_names: tuple = DEFAULT_JOINT_NAMES
    n_train: int = 2000
    n_eval: int = 16
    seed: int = 0
    camera: Camera = field(default_factory=lambda: Camera(1100.0, 1100.0, 500.0, 500.0))
    root_mean: tuple = (0.0, 0.0, 4200.0)
    root_box: tuple = (400.0, 200.0, 600.0)
    obs_sigma_px: float = 2.0
    root_est_cov: tuple = DEFAULT_ROOT_COV

    def __post_init__(self):
        j = len(self.parents)
        if not (len(self.bone_lengths) == len(self.rest_dirs)
                == len(self.angle_limits) == len(self.joint_names) == j):
            raise ValueError("skeleton config arrays disagree on joint count")
        roots = [i for i, p in enumerate(self.parents) if p < 0]
        if roots != [0]:
            raise ValueError("kinematic tree must have exactly joint 0 as root")
        for i, p in enumerate(self.parents[1:], start=1):
            if not 0 <= p < i:
                raise ValueError(f"parent of joint {i} must precede it, got {p}")
            if self.bone_lengths[i] <= 0.0:
                raise ValueError(f"bone length of joint {i} must be positive")

    @property
    def num_joints(self) -> int:
        return len(self.parents)


def _euler_rotation(angles) -> np.ndarray:
    ax, ay, az = angles
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _forward_kinematics(cfg: SyntheticSkeletonConfig, angles: np.ndarray) -> np.ndarray:
    j = cfg.num_joints
    pos = np.zeros((j, 3))
    rot = [None] * j
    rot[0] = _euler_rotation(angles[0])
    for i in range(1, j):
        p = cfg.parents[i]
        rot[i] = rot[p] @ _euler_rotation(angles[i])
        offset = cfg.bone_lengths[i] * np.asarray(cfg.rest_dirs[i], dtype=np.float64)
        pos[i] = pos[p] + rot[i] @ offset
    return pos


def _sample_poses(cfg: SyntheticSkeletonConfig, n: int, rng: RngStream) -> np.ndarray:
    limits = np.asarray(cfg.angle_limits, dtype=np.float64)
    poses = np.zeros((n, cfg.num_joints, 3))
    for k in range(n):
        angles = rng.uniform(-1.0, 1.0, limits.shape) * limits
        poses[k] = _forward_kinematics(cfg, angles)
    return poses


def generate_synthetic(cfg: SyntheticSkeletonConfig):
    """Build (train poses, held-out poses, observation records).

    Held-out poses are rendered through the config camera at a root
    position drawn inside ``root_box``; observed means carry Gaussian
    noise matching the declared per-joint covariance, and the root
    estimate carries noise matching its declared covariance.
    """
    train = PoseDataset(cfg.joint_names, _sample_poses(cfg, cfg.n_train, RngStream(cfg.seed, 1)))
    eval_poses = _sample_poses(cfg, cfg.n_eval, RngStream(cfg.seed, 2))
    heldout = PoseDataset(
        cfg.joint_names, eval_poses,
        meta=[{"frame_id": f"synth{k:05d}"} for k in range(cfg.n_eval)],
    )

    obs_rng = RngStream(cfg.seed, 3)
    sigma2 = cfg.obs_sigma_px**2
    root_mean = np.asarray(cfg.root_mean, dtype=np.float64)
    root_box = np.asarray(cfg.root_box, dtype=np.float64)
    root_cov = np.asarray(cfg.root_est_cov, dtype=np.float64)
    records = []
    for k in range(cfg.n_eval):
        root = root_mean + obs_rng.uniform(-1.0, 1.0, 3) * root_box
        gt_abs = Pose(eval_poses[k] + root, "absolute_camera")
        if np.any(gt_abs.joints[:, 2] <= 0.0):
            raise ValueError("synthetic root placement put joints behind the camera")
        proj = project(gt_abs.joints, cfg.camera)
        means = proj + cfg.obs_sigma_px * obs_rng.standard_normal(proj.shape)
        covs = np.tile([sigma2, 0.0, sigma2], (cfg.num_joints, 1))
        keypoints = KeypointObservation(means, covs, np.ones(cfg.num_joints, dtype=bool))
        root_est = RootEstimate(
            root + np.sqrt(root_cov) * obs_rng.standard_normal(3), root_cov)
        records.append(ObservationRecord(
            frame_id=f"synth{k:05d}", camera=cfg.camera, keypoints=keypoints,
            root=root_est, gt_pose=gt_abs,
        ))
    return train, heldout, records
