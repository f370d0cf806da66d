"""File formats, dataset containers, and the synthetic pose world.

Pose and observation files are JSON lines with a header line; heatmaps
and model checkpoints are little-endian binary. The synthetic generator
builds a small articulated skeleton with known ground truth so every
downstream stage can be exercised without licensed mocap data.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import denoiser as dn
from .errors import FormatError, ParseError, PosePriorError, SchemaError, VersionError
from .geometry import (ABSOLUTE_CAMERA, DEFAULT_ROOT_COV, ROOT_RELATIVE, Camera, Pose,
                       RootEstimate, project)
from .numeric import SYNTH_HELDOUT_STREAM, SYNTH_OBS_STREAM, SYNTH_TRAIN_STREAM, RngStream
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
CAMERA_KEYS = ("fx", "fy", "cx", "cy")

HEATMAP_MAGIC = b"HMP1"
CHECKPOINT_MAGIC = b"PPD1"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIIIdQ")
# Checkpoint tensors that change dtype on the way (float64 in memory,
# float32 on disk) are read and written this many values at a time,
# so no I/O buffer reaches glibc's initial 128 KB mmap threshold.
# Freeing a larger buffer raises that threshold, and the training arrays
# that follow then come from the heap: train-paper's peak RSS read
# 398.6 MB with one read buffer per tensor, against 392-394 MB with a
# whole-file read or these.
_CKPT_IO_VALUES = 8192

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


@dataclass
class ObservationRecord:
    frame_id: str
    camera: Camera
    keypoints: KeypointObservation
    root: RootEstimate
    gt_pose: Pose | None = None


def _write_jsonl(path, file_format, joint_names, extra, docs):
    """Write the header (format, version, J, joint names, then ``extra``) and one compact
    JSON line per doc of ``docs``."""
    header = {"format": file_format, "version": FILE_VERSION, "J": len(joint_names),
              "joint_names": list(joint_names), **extra}
    with open(path, "w") as fh:
        for doc in itertools.chain([header], docs):
            fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def _naming_file(load):
    """A JSON-lines loader whose `PosePriorError` messages start with the file's path."""
    @functools.wraps(load)
    def loader(path):
        try:
            return load(path)
        except PosePriorError as exc:
            exc.args = (f"{path}: {exc}",)
            raise
    return loader


def _read_jsonl(path, expected_format):
    """The header and (line number, record) pairs of a file `_write_jsonl` writes, with the
    header's format, version, J and joint names checked."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    if not lines:
        raise ParseError("empty file: missing header", line=1)
    try:
        header = json.loads(lines[0])
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise ParseError(f"bad header: {exc}", line=1) from None
    if not isinstance(header, dict) or header.get("format") != expected_format:
        raise SchemaError(f'line 1: not a {expected_format} file: header "format" must be '
                          f'"{expected_format}"')
    version = header.get("version")
    if type(version) is not int or version != FILE_VERSION:  # JSON true is not 1 here
        raise VersionError(f'line 1: header "version" must be {FILE_VERSION}, '
                           f"got {json.dumps(version)}")
    j, joint_names = header.get("J"), header.get("joint_names")
    if type(j) is not int or j < 1:
        raise SchemaError(f"line 1: header J must be an integer >= 1, got {json.dumps(j)}")
    if (type(joint_names) is not list or len(joint_names) != j
            or not all(type(name) is str for name in joint_names)):
        raise SchemaError(f'line 1: header "joint_names" must be a list of {j} strings')
    records = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            records.append((lineno, json.loads(raw)))
        except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
            raise ParseError(f"bad record: {exc}", line=lineno) from None
    return header, records


def _numbers(value, n, field, finite=True):
    """``value`` as float64 if it is a JSON list of exactly ``n`` numbers, or with ``n`` None
    as a float if it is one number, each finite unless ``finite`` is false; else SchemaError
    naming ``field``. Strings, booleans, null, nested lists and integers beyond float64 are
    not numbers; NaN and the infinities are numbers that are not finite."""
    items, count = ([value], 1) if n is None else (value, n)
    kind = "a number" if n is None else f"a list of {n} numbers"
    if type(items) is list and len(items) == count and set(map(type, items)) <= {int, float}:
        try:
            arr = np.array(items, dtype=np.float64)
        except OverflowError:
            pass
        else:
            if not finite or np.all(np.isfinite(arr)):
                return float(arr[0]) if n is None else arr
            kind = "finite"
    got = json.dumps(value)
    raise SchemaError(f"{field} must be {kind}, got {got if len(got) <= 40 else got[:37] + '...'}")


def save_poses(dataset: PoseDataset, path):
    extra = {"root_index": 0}
    if dataset.header_meta:
        extra["meta"] = dict(dataset.header_meta)
    _write_jsonl(path, POSE_FORMAT, dataset.joint_names, extra, (
        {"joints": pose.ravel().tolist(), **({"meta": meta} if meta else {})}
        for pose, meta in zip(dataset.poses, dataset.meta)))


@_naming_file
def load_poses(path) -> PoseDataset:
    header, records = _read_jsonl(path, POSE_FORMAT)
    j = header["J"]
    root_index = header.get("root_index", 0)
    if type(root_index) is not int or root_index != 0:
        raise SchemaError(f'line 1: header "root_index" must be 0, got {json.dumps(root_index)}')
    poses, meta = [], []
    for lineno, rec in records:
        if not isinstance(rec, dict):
            raise SchemaError(f"line {lineno}: a pose record must be a JSON object")
        arr = _numbers(rec.get("joints"), 3 * j, f'line {lineno}: "joints"').reshape(j, 3)
        if np.any(arr[0] != 0.0):
            raise SchemaError(f"line {lineno}: root joint not at the origin")
        rec_meta = rec.get("meta", {})
        if not isinstance(rec_meta, dict):
            raise SchemaError(f'line {lineno}: "meta" must be a JSON object')
        poses.append(arr)
        meta.append(rec_meta)
    arr = np.stack(poses) if poses else np.zeros((0, j, 3))
    return PoseDataset(header["joint_names"], arr, meta, header.get("meta", {}))


def save_observations(records, path, joint_names):
    _write_jsonl(path, OBS_FORMAT, joint_names, {}, ({
        "frame_id": rec.frame_id,
        "camera": {key: getattr(rec.camera, key) for key in CAMERA_KEYS},
        "keypoints": [{"mean": mean.tolist(), "valid": bool(valid), "cov": cov.tolist()}
                      for mean, valid, cov in zip(rec.keypoints.means, rec.keypoints.valid,
                                                  rec.keypoints.covs)],
        "root": {"mean": rec.root.mean.tolist(), "cov": rec.root.cov.tolist()},
        **({"gt_pose": rec.gt_pose.joints.ravel().tolist(), "gt_frame": rec.gt_pose.frame}
           if rec.gt_pose is not None else {}),
    } for rec in records))


@_naming_file
def load_observations(path) -> list:
    """Read observation records; missing covariances get the fixed fallback.

    Frame ids are strings or integers, compared as strings, so ``1`` and
    ``"1"`` are one id, and a repeated id raises. A keypoint's ``"valid"``
    is JSON true or false; an absent flag means false.
    """
    header, raw_records = _read_jsonl(path, OBS_FORMAT)
    j = header["J"]
    records, frame_lines = [], {}
    fallback_cov = [FALLBACK_SIGMA_PX**2, 0.0, FALLBACK_SIGMA_PX**2]
    for lineno, doc in raw_records:
        try:
            cam = Camera(*(_numbers(doc["camera"][key], None, f'camera "{key}"')
                           for key in CAMERA_KEYS))
            kp_docs = doc["keypoints"]
            if len(kp_docs) != j:
                raise SchemaError(f"expected {j} keypoints")
            means = np.zeros((j, 2))
            covs = np.tile([1.0, 0.0, 1.0], (j, 1))
            valid = np.zeros(j, dtype=bool)
            for i, kp in enumerate(kp_docs):
                flag = kp.get("valid", False)
                if not isinstance(flag, bool):
                    raise SchemaError(f'keypoint {i}: "valid" must be true or false, got {flag!r}')
                valid[i] = flag
                if "mean" in kp:
                    means[i] = _numbers(kp["mean"], 2, f'keypoint {i}: "mean"', finite=flag)
                elif flag:
                    raise SchemaError(f"keypoint {i} is valid but has no mean")
                if "cov" in kp:
                    covs[i] = _numbers(kp["cov"], 3, f'keypoint {i}: "cov"', finite=flag)
                elif flag:
                    covs[i] = fallback_cov
            keypoints = KeypointObservation(means, covs, valid)
            root_doc = doc["root"]
            root = RootEstimate(_numbers(root_doc["mean"], 3, 'root "mean"'),
                                _numbers(root_doc["cov"], 3, 'root "cov"')
                                if "cov" in root_doc else DEFAULT_ROOT_COV)
            gt_frame = doc.get("gt_frame", ABSOLUTE_CAMERA)
            if gt_frame not in (ABSOLUTE_CAMERA, ROOT_RELATIVE):
                raise SchemaError(f'"gt_frame" must be "{ABSOLUTE_CAMERA}" or "{ROOT_RELATIVE}", '
                                  f"got {json.dumps(gt_frame)}")
            gt = Pose(_numbers(doc["gt_pose"], 3 * j, '"gt_pose"').reshape(j, 3),
                      gt_frame) if "gt_pose" in doc else None
            frame_id = doc["frame_id"]
            if type(frame_id) not in (str, int):  # so 1.0, true and null name no frame
                raise SchemaError(f'"frame_id" must be a string or an integer, '
                                  f"got {json.dumps(frame_id)}")
            frame_id = str(frame_id)
            if frame_id in frame_lines:
                raise SchemaError(f"frame_id {frame_id} repeats line {frame_lines[frame_id]}")
            frame_lines[frame_id] = lineno
            records.append(ObservationRecord(
                frame_id=frame_id, camera=cam, keypoints=keypoints,
                root=root, gt_pose=gt))
        except (KeyError, TypeError, AttributeError) as exc:
            raise SchemaError(f"line {lineno}: malformed observation record ({exc})") from None
        except (SchemaError, ValueError) as exc:
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
        raise FormatError(f"truncated heatmap header in {path}")
    w, h = struct.unpack_from("<HH", blob, 4)
    ox, oy, stride = struct.unpack_from("<fff", blob, 8)
    if not (np.isfinite(ox) and np.isfinite(oy)):
        raise FormatError(f"heatmap origin must be finite, got ({ox}, {oy}) in {path}")
    if not (np.isfinite(stride) and stride > 0.0):
        raise FormatError(f"heatmap stride must be finite and > 0, got {stride} in {path}")
    expected = 20 + 4 * w * h
    if len(blob) != expected:
        raise FormatError(f"heatmap payload of {path} is {len(blob)} bytes, expected {expected}")
    values = np.frombuffer(blob, dtype="<f4", count=w * h, offset=20)
    values = values.reshape(h, w).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise FormatError(f"non-finite heatmap values in {path}")
    if np.any(values < 0.0):
        raise FormatError(f"negative heatmap values in {path}")
    return Heatmap(width=w, height=h, values=values,
                   origin=np.array([ox, oy], dtype=np.float64), stride=float(stride))


def save_checkpoint(model: dn.DenoiserModel, path):
    """Write the model to a binary checkpoint (weights as float32; the
    EMA shadows and Adam moments straight from their float32 buffers)."""
    groups = (model.params, model.ema_params, model.adam_m, model.adam_v)  # a Prior opens no file
    d = 3 * model.joints
    if model.norm_mean.shape != (d,) or model.norm_std.shape != (d,):
        raise ValueError("model normalization statistics have the wrong shape")
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(
            CHECKPOINT_MAGIC, CHECKPOINT_VERSION, model.joints, model.hidden_dim,
            model.sched.T, model.sched.offset, model.adam_steps,
        ))
        fh.write(model.norm_mean.astype("<f8").tobytes())
        fh.write(model.norm_std.astype("<f8").tobytes())
        for group in groups:
            for i in range(0, group.flat.size, _CKPT_IO_VALUES):
                fh.write(group.flat[i:i + _CKPT_IO_VALUES].astype("<f4", copy=False))
        for key in dn.STAT_KEYS:
            fh.write(model.bn_stats[key].astype("<f4").tobytes())


def load_checkpoint(path, train_state=True) -> dn.DenoiserModel | dn.Prior:
    """Read a checkpoint into a ``DenoiserModel``, or with ``train_state=False`` into the
    ``Prior`` that sampling reads; either way the schedule is rebuilt from the stored config.

    The file size is checked against the header before any tensor is
    read. The batch-norm statistics, stored last, are read first. A model
    then reads each weight group straight into its ``ParamGroup`` buffer,
    so the whole file is never held in memory next to the model: the
    float32 groups (EMA shadows, Adam moments) in one read with no
    conversion, the float64 parameters in small pieces. A prior seeks
    past the parameters and streams the EMA tensors one at a time,
    through one float32 buffer the size of the largest, into
    ``denoiser.build_eval_form``, and reads no other weight group. It
    samples as the model's ``prior()`` does, bit for bit.

    Both loads reject, with FormatError naming the file and the tensor,
    a non-finite normalization statistic, EMA tensor or batch-norm
    statistic, a ``norm_std`` entry <= 0 and a negative running variance.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_CKPT_HEADER.size)
        if head[:4] != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic in {path}")
        if len(head) < _CKPT_HEADER.size:
            raise FormatError(f"truncated checkpoint header in {path}")
        magic, version, joints, hidden, t_steps, offset, adam_steps = _CKPT_HEADER.unpack(head)
        if version != CHECKPOINT_VERSION:
            raise VersionError(f"checkpoint version {version} of {path} not supported")
        if joints < 1 or hidden < 4 or hidden % 2:
            raise FormatError(f"checkpoint {path} header: need joints >= 1 and an even "
                              f"hidden width >= 4, got joints {joints}, hidden {hidden}")
        try:
            sched = cosine_schedule(t_steps, offset)
        except ValueError as exc:
            raise FormatError(f"checkpoint {path} header: {exc}") from None

        shapes = dn.param_shapes(joints, hidden)
        d = 3 * joints
        n_param = sum(int(np.prod(shapes[k])) for k in dn.PARAM_KEYS)
        stats_bytes = 4 * len(dn.STAT_KEYS) * hidden
        expected = _CKPT_HEADER.size + 2 * 8 * d + 4 * 4 * n_param + stats_bytes
        if size != expected:
            raise FormatError(f"checkpoint {path} is {size} bytes, expected {expected}")

        def fill(flat, dtype):
            """Read the next ``flat.size`` values of ``dtype`` into the 1-D ``flat``."""
            if flat.dtype == np.dtype(dtype):
                if fh.readinto(flat) != flat.nbytes:
                    raise FormatError(f"checkpoint {path} ended early")
                return flat
            width = np.dtype(dtype).itemsize
            for i in range(0, flat.size, _CKPT_IO_VALUES):
                part = flat[i:i + _CKPT_IO_VALUES]
                part[:] = np.frombuffer(fh.read(width * part.size), dtype)
            return flat

        def checked(name, arr):
            # min and max propagate NaN, and need no tensor-sized temporary
            if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise FormatError(f"non-finite {name} in checkpoint {path}")
            return arr

        def ema_tensors():
            """The EMA tensors in PARAM_KEYS order, each read into one reused buffer."""
            buf = np.empty(max(math.prod(shape) for shape in shapes.values()), np.float32)
            for key in dn.PARAM_KEYS:
                tensor = fill(buf[:math.prod(shapes[key])], "<f4").reshape(shapes[key])
                yield checked(f"EMA {key}", tensor)

        norm_mean = checked("norm_mean", fill(np.empty(d), "<f8"))
        norm_std = checked("norm_std", fill(np.empty(d), "<f8"))
        if np.any(norm_std <= 0.0):
            raise FormatError(f"norm_std has an entry <= 0 in checkpoint {path}")
        weights_at = fh.tell()
        fh.seek(size - stats_bytes)
        stats = dn.ParamGroup(dn.stat_shapes(hidden))
        fill(stats.flat, "<f4")
        for key, arr in stats.items():
            checked(key, arr)
            if key.endswith("_v") and np.any(arr < 0.0):
                raise FormatError(f"negative running variance {key} in checkpoint {path}")
        fh.seek(weights_at)

        if not train_state:
            fh.seek(4 * n_param, os.SEEK_CUR)
            return dn.Prior(joints, hidden, sched, norm_mean, norm_std,
                            *dn.build_eval_form(ema_tensors(), stats, t_steps))
        groups = {}
        for name, dtype in dn.GROUP_DTYPES.items():
            groups[name] = dn.ParamGroup(shapes, dtype=dtype)
            fill(groups[name].flat, "<f4")
        for key in dn.PARAM_KEYS:
            checked(f"EMA {key}", groups["ema_params"][key])

    return dn.DenoiserModel(
        joints=joints, hidden_dim=hidden, sched=sched, bn_stats=stats,
        norm_mean=norm_mean, norm_std=norm_std, adam_steps=adam_steps, **groups,
    )


# -- synthetic skeleton world ------------------------------------------------

# the synthetic skeleton: joint 0 is the root and every parent precedes its child
_PARENTS = (-1, 0, 1, 2, 0, 4, 5, 0, 7, 8, 9, 8, 11, 12, 8, 14, 15)
_BONE_LENGTHS = (0.0, 130.0, 450.0, 440.0, 130.0, 450.0, 440.0,
                 230.0, 250.0, 120.0, 120.0,
                 160.0, 280.0, 250.0, 160.0, 280.0, 250.0)
_REST_DIRS = (
    (0.0, 0.0, 0.0),
    (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
    (0.0, -1.0, 0.0), (0.0, -1.0, 0.0), (0.0, -1.0, 0.0), (0.0, -1.0, 0.0),
    (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
    (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 1.0, 0.0),
)
_ANGLE_LIMITS = (
    (0.3, 0.9, 0.3),
    (0.8, 0.4, 0.4), (1.2, 0.2, 0.2), (0.4, 0.2, 0.2),
    (0.8, 0.4, 0.4), (1.2, 0.2, 0.2), (0.4, 0.2, 0.2),
    (0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.3, 0.3, 0.3), (0.4, 0.4, 0.3),
    (1.2, 0.8, 0.8), (1.5, 0.3, 0.3), (0.5, 0.3, 0.3),
    (1.2, 0.8, 0.8), (1.5, 0.3, 0.3), (0.5, 0.3, 0.3),
)

# the synthetic world's camera, and the box (mm) held-out roots are drawn in
_SYNTH_CAMERA = Camera(1100.0, 1100.0, 500.0, 500.0)
_ROOT_MEAN = np.array([0.0, 0.0, 4200.0])
_ROOT_BOX = np.array([400.0, 200.0, 600.0])

@dataclass(frozen=True)
class SyntheticSkeletonConfig:
    """Sizes, seed and keypoint noise of the synthetic world. Its skeleton is
    fixed (``_PARENTS``, ``_BONE_LENGTHS``, ``_REST_DIRS``, ``_ANGLE_LIMITS``);
    ``joint_names`` and ``num_joints`` are class constants, not fields."""

    joint_names = DEFAULT_JOINT_NAMES
    num_joints = len(DEFAULT_JOINT_NAMES)
    n_train: int = 2000
    n_eval: int = 16
    seed: int = 0
    obs_sigma_px: float = 2.0

    def __post_init__(self):
        if not (np.isfinite(self.obs_sigma_px) and self.obs_sigma_px > 0.0):
            raise ValueError(f"obs_sigma_px must be finite and > 0, got {self.obs_sigma_px!r}")


def _rotations(angles: np.ndarray) -> np.ndarray:
    """``rz @ ry @ rx`` for every Euler angle triple: (..., 3) -> (..., 3, 3)."""
    cx, cy, cz = np.moveaxis(np.cos(angles), -1, 0)
    sx, sy, sz = np.moveaxis(np.sin(angles), -1, 0)
    one, zero = np.ones_like(cx), np.zeros_like(cx)
    shape = angles.shape[:-1] + (3, 3)
    rx = np.stack((one, zero, zero, zero, cx, -sx, zero, sx, cx), axis=-1).reshape(shape)
    ry = np.stack((cy, zero, sy, zero, one, zero, -sy, zero, cy), axis=-1).reshape(shape)
    rz = np.stack((cz, -sz, zero, sz, cz, zero, zero, zero, one), axis=-1).reshape(shape)
    return rz @ ry @ rx


def _sample_poses(n: int, rng: RngStream) -> np.ndarray:
    """``n`` poses (n, J, 3): uniform joint angles within limits, then forward kinematics.

    One pass over the joints serves every pose and gives the bytes of a
    per-pose loop: the (n, J, 3) uniform block holds the doubles that n
    per-pose draws take, in the same order, and ``matmul`` on a stack runs
    the same 3x3 routine on each matrix as on a single one.
    """
    limits = np.asarray(_ANGLE_LIMITS, dtype=np.float64)
    local = _rotations(rng.uniform(-1.0, 1.0, (n,) + limits.shape) * limits)
    poses = np.zeros((n, len(_PARENTS), 3))
    rot = [local[:, 0]]
    for i in range(1, len(_PARENTS)):
        p = _PARENTS[i]
        rot.append(rot[p] @ local[:, i])
        offset = _BONE_LENGTHS[i] * np.asarray(_REST_DIRS[i], dtype=np.float64)
        poses[:, i] = poses[:, p] + rot[i] @ offset
    return poses


def generate_synthetic(cfg: SyntheticSkeletonConfig):
    """Build (train poses, held-out poses, observation records).

    Held-out poses are rendered through _SYNTH_CAMERA at a root position
    drawn inside the root box; observed means carry Gaussian noise
    matching the declared per-joint covariance, and the root estimate
    carries noise matching its declared covariance, DEFAULT_ROOT_COV.
    """
    train_poses = _sample_poses(cfg.n_train, RngStream(cfg.seed, SYNTH_TRAIN_STREAM))
    eval_poses = _sample_poses(cfg.n_eval, RngStream(cfg.seed, SYNTH_HELDOUT_STREAM))
    heldout = PoseDataset(
        cfg.joint_names, eval_poses,
        meta=[{"frame_id": f"synth{k:05d}"} for k in range(cfg.n_eval)],
    )

    obs_rng = RngStream(cfg.seed, SYNTH_OBS_STREAM)
    sigma2 = cfg.obs_sigma_px**2
    root_cov = np.asarray(DEFAULT_ROOT_COV, dtype=np.float64)
    records = []
    for k in range(cfg.n_eval):
        root = _ROOT_MEAN + obs_rng.uniform(-1.0, 1.0, 3) * _ROOT_BOX
        gt_abs = Pose(eval_poses[k] + root, "absolute_camera")
        if np.any(gt_abs.joints[:, 2] <= 0.0):
            raise ValueError("synthetic root placement put joints behind the camera")
        proj = project(gt_abs.joints, _SYNTH_CAMERA)
        means = proj + cfg.obs_sigma_px * obs_rng.standard_normal(proj.shape)
        covs = np.tile([sigma2, 0.0, sigma2], (cfg.num_joints, 1))
        keypoints = KeypointObservation(means, covs, np.ones(cfg.num_joints, dtype=bool))
        root_est = RootEstimate(
            root + np.sqrt(root_cov) * obs_rng.standard_normal(3), root_cov)
        records.append(ObservationRecord(
            frame_id=f"synth{k:05d}", camera=_SYNTH_CAMERA, keypoints=keypoints,
            root=root_est, gt_pose=gt_abs,
        ))
    return PoseDataset(cfg.joint_names, train_poses), heldout, records
