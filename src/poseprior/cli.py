"""Command-line front end: one binary, subcommand per task.

Every command prints its fully resolved configuration to standard
error, writes machine-readable output to files, and is deterministic
given its flags and files. The commands that draw random numbers
(synth, train, estimate, complete, sample, sweep) also take --seed and
echo it with the configuration; evaluate and fit-heatmap draw none and
do not take it. Exit codes: 0 success, 2 an input error (a `PosePriorError`,
or an `OSError` such as an unreadable file), 3 numerical divergence. Any
other exception is a bug: it ends in a traceback, exit code 1.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections import Counter
from dataclasses import replace

import numpy as np

from . import dataio, denoiser, metrics, numeric, sampler
from .errors import AlignmentError, DivergenceError, PosePriorError, SchemaError
from .geometry import Pose, project
from .numeric import RngStream
from .observation import fit_gaussian_heatmap
from .schedule import cosine_schedule

# Not called in this module: the benchmark tracer (perfbench/tracing.py)
# patches this name here, so it stays importable until it is re-pointed.
from .geometry import to_absolute  # noqa: F401

EXIT_INPUT = 2
EXIT_DIVERGED = 3

_METRIC_COLUMNS = ("mpjpe", "pa_mpjpe", "pck150", "auc", "reprojection_px")


def _echo_config(args):
    """Print the parsed flags to stderr as the run's resolved configuration."""
    resolved = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    print(f"resolved-config: {json.dumps(resolved, default=str)}", file=sys.stderr)


class _Ruled:
    """A flag's argparse ``type=``: ``convert`` the text, and raise naming ``flag`` and ``rule``
    if ``ok`` fails. A class, not a closure, so the flag's ``rule`` can be read back from it."""
    __slots__ = ("flag", "convert", "ok", "rule", "__name__")

    def __init__(self, flag, convert, ok, rule):
        self.flag, self.convert, self.ok, self.rule = flag, convert, ok, rule
        self.__name__ = convert.__name__  # argparse's "invalid int value" names it

    def __call__(self, text):
        value = self.convert(text)
        if not self.ok(value):
            raise PosePriorError(f"{self.flag} must be {self.rule}, got {value!r}")
        return value


def _add_ruled(p, flag, convert, ok, rule, **kwargs):
    """``p.add_argument(flag, ...)`` checked by `_Ruled` as argparse parses, ``rule`` ending its
    help. Checks that need another flag, a file or the checkpoint stay in the commands."""
    kwargs["help"] += f"; must be {rule}"
    return p.add_argument(flag, type=_Ruled(flag, convert, ok, rule), **kwargs)


def _at_least(low):
    return int, (lambda value: value >= low), f">= {low}"


def _hypotheses_from(low):
    """A count of one frame's trajectories, which the stream map caps at MAX_HYPOTHESES."""
    cap = numeric.MAX_HYPOTHESES
    return int, (lambda value: low <= value <= cap), f"in [{low}, 2^{cap.bit_length() - 1}]"


_POSITIVE = (float, lambda value: 0.0 < value < math.inf, "finite and > 0")
_FRACTION = (float, lambda value: 0.0 <= value < 1.0, "in [0, 1)")


def _add_seed(p):
    _add_ruled(p, "--seed", int, lambda value: 0 <= value < 1 << 64, "in [0, 2^64)",
               default=0, help="random seed (default %(default)s)")  # RngStream's key range


def _guidance_config(args) -> sampler.GuidanceConfig:
    """The run's sampler settings; `sweep`'s --gamma, None when not given, takes the default."""
    flags = dict(gamma=args.gamma, renoise_variant=args.renoise, num_hypotheses=args.M,
                 seed=args.seed, grad_space=args.grad_space)
    return sampler.GuidanceConfig(**{k: v for k, v in flags.items() if v is not None})


def cmd_train(args) -> int:
    _echo_config(args)
    dataset = dataio.load_poses(args.poses)
    if dataset.num_poses == 0:
        raise PosePriorError(f"{args.poses}: training pose file holds no records")
    sched = cosine_schedule(args.T, args.offset)
    model = denoiser.DenoiserModel.initialize(
        dataset.num_joints, args.hidden, sched, RngStream(args.seed, numeric.INIT_STREAM))

    loss_path = args.loss_log or args.out + ".loss.csv"
    sink = (lambda m, step: dataio.save_checkpoint(m, args.out)) \
        if args.checkpoint_every else None
    with open(loss_path, "w") as log:
        log.write("step,loss,grad_norm\n")
        denoiser.train(
            model, dataset.poses, args.steps, args.batch, args.lr, args.ema,
            RngStream(args.seed, numeric.TRAIN_STREAM),
            checkpoint_sink=sink, checkpoint_every=args.checkpoint_every,
            loss_log=lambda line: log.write(line + "\n"),
        )
    dataio.save_checkpoint(model, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _load_model_for(model_path, records):
    """The checkpoint's sampling `Prior`, checked against the observations' joint count."""
    model = dataio.load_checkpoint(model_path, train_state=False)
    for rec in records:
        if rec.keypoints.num_joints != model.joints:
            raise SchemaError(
                f"observation file has {rec.keypoints.num_joints} joints, "
                f"checkpoint expects {model.joints}")
    return model


def _job(idx, rec, keypoints, cfg, cov_scale, cov_rotate):
    """Frame ``idx``'s (record, keypoints, config) job: ``keypoints`` with the covariance edit,
    and ``cfg`` on the frame's streams. An edit out of float64's range raises, naming the frame."""
    try:
        keypoints = keypoints.edited(cov_scale, cov_rotate)
    except ValueError as exc:
        raise PosePriorError(f"{exc} (frame {rec.frame_id})") from None
    offset = numeric.TRAJECTORY_STREAMS + idx * numeric.MAX_HYPOTHESES
    return rec, keypoints, replace(cfg, stream_offset=offset)


def _check_stream_ranges(frames: int):
    """Keep a run's trajectory streams within the stream map's frame limit (-M's rule caps M)."""
    if frames > numeric.MAX_FRAMES:
        raise PosePriorError(f"{frames} frames exceed the stream-id range: at most "
                             f"{numeric.MAX_FRAMES} frames")


def _check_ground_truth(path, records):
    """Refuse, naming the file and the frame, a ``gt_pose`` that Procrustes cannot align
    (`metrics.check_alignable`): before the model is loaded, not after sampling its frame."""
    for rec in records:
        if rec.gt_pose is not None:
            try:
                metrics.check_alignable(rec.gt_pose)
            except AlignmentError as exc:
                raise AlignmentError(f"{path}: frame {rec.frame_id}: {exc}") from None


def _joint_names(joints: int) -> tuple:
    """Joint labels: the built-in names for 17 joints, else joint0, joint1, ..."""
    if joints == len(dataio.DEFAULT_JOINT_NAMES):
        return dataio.DEFAULT_JOINT_NAMES
    return tuple(f"joint{i}" for i in range(joints))


def _mask_indices(spec: str, joints: int) -> set:
    """Joints named by `complete --mask`: 'all', or labels of `_joint_names` and indices."""
    if spec.strip().lower() == "all":
        return set(range(joints))
    names = _joint_names(joints)
    mask = set()
    for token in spec.split(","):
        token = token.strip()
        if token.isdecimal():
            if int(token) >= joints:
                raise PosePriorError(f"mask index {token} out of range for {joints} joints")
            mask.add(int(token))
        elif token in names:
            mask.add(names.index(token))
        else:
            raise PosePriorError(f"unknown joint name {token!r}; the {joints} joint labels "
                                 f"are {', '.join(names)}")
    return mask


def _write_hypotheses(path, joint_names, per_frame, header_meta):
    meta = [{"frame_id": frame_id, "hypothesis": m, "root": root.tolist()}
            for frame_id, hyp in per_frame for m, root in enumerate(hyp.roots)]
    arr = np.concatenate([hyp.joints for _, hyp in per_frame]) if per_frame else np.zeros(0)
    dataio.save_poses(dataio.PoseDataset(joint_names, arr, meta, header_meta), path)


def _mean_reprojection(hyp, keypoints, cam):
    """Mean pixel residual over all (hypothesis, joint) pairs in front of the camera; inf
    where a projection or a residual is beyond float64.

    One projection over the stacked (M, J, 3) absolute joints; each
    hypothesis's residuals are summed on their own, in hypothesis order.
    A residual whose square overflows is taken from its offset scaled by its largest entry.
    """
    joints = hyp.joints + hyp.roots[:, None, :]
    ok = keypoints.valid & (joints[..., 2] > 0.0)
    if not np.any(ok):
        return float("nan")
    means = np.broadcast_to(keypoints.means, joints.shape[:2] + (2,))
    with np.errstate(over="ignore"):  # the inf of the docstring
        offset = project(joints[ok], cam) - means[ok]
        residual = np.linalg.norm(offset, axis=1)
        big = np.isinf(residual) & np.isfinite(offset).all(axis=1)
        scale = np.max(np.abs(offset[big]), axis=1, keepdims=True)
        residual[big] = np.linalg.norm(offset[big] / scale, axis=1) * scale[:, 0]
    total = 0.0
    for part in np.split(residual, np.cumsum(ok.sum(axis=1))[:-1]):
        total += float(part.sum())
    return total / residual.size


def _metric_row(joints, gt, reprojection_px, frame_id):
    """Best-of-M metrics of one frame's (M, J, 3) hypotheses: a `_write_metrics_csv` row. A
    pose Procrustes cannot align (collinear, or coincident joints) raises naming the frame."""
    try:
        errors, pa_errors = metrics.hypothesis_errors(joints, gt)
    except AlignmentError as exc:
        raise AlignmentError(f"frame {frame_id}: {exc}") from None
    best = Pose(joints[int(np.argmin(errors))])
    return {
        "mpjpe": float(np.min(errors)),
        "pa_mpjpe": float(np.min(pa_errors)),
        "pck150": metrics.pck(best, gt),
        "auc": metrics.auc(best, gt),
        "reprojection_px": reprojection_px,
    }


def _write_metrics_csv(path, rows):
    """Rows of (frame id, hypothesis count M, `_metric_row`), then their mean.

    The aggregate row's M is the largest count among the rows.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_id", "M", *_METRIC_COLUMNS])
        for frame_id, m, vals in rows:
            writer.writerow([frame_id, m] + [f"{vals[k]:.6f}" for k in _METRIC_COLUMNS])
        if rows:
            agg = {k: float(np.mean([v[k] for _, _, v in rows])) for k in _METRIC_COLUMNS}
            writer.writerow(["aggregate", max(m for _, m, _ in rows)]
                            + [f"{agg[k]:.6f}" for k in _METRIC_COLUMNS])


def cmd_estimate(args) -> int:
    """`estimate`, and `complete`, whose parsed flags hold a --mask."""
    records = dataio.load_observations(args.obs)
    mask = getattr(args, "mask", None)
    _echo_config(args)
    _check_stream_ranges(len(records))
    if args.report and all(rec.gt_pose is None for rec in records):
        raise PosePriorError(f"--report {args.report}: no observation record has a gt_pose, "
                             f"so there are no metrics to report")
    _check_ground_truth(args.obs, records)
    gcfg = _guidance_config(args)
    model = _load_model_for(args.model, records)
    mask_indices = _mask_indices(mask, model.joints) if mask else set()
    keep = np.ones(model.joints, dtype=bool)
    keep[list(mask_indices)] = False
    jobs = [_job(idx, rec, rec.keypoints.with_validity(rec.keypoints.valid & keep)
                 if mask_indices else rec.keypoints, gcfg, args.cov_scale, args.cov_rotate)
            for idx, rec in enumerate(records)]
    per_frame, metric_rows, diagnostics = [], [], Counter()
    for rec, keypoints, cfg in jobs:
        hyp = sampler.sample_guided(model, model.sched, keypoints, rec.camera, rec.root, cfg)
        per_frame.append((rec.frame_id, hyp))
        diagnostics.update(hyp.diagnostics)
        if rec.gt_pose is not None:
            reprojection = _mean_reprojection(hyp, keypoints, rec.camera)
            metric_rows.append((rec.frame_id, len(hyp),
                                _metric_row(hyp.joints, rec.gt_pose, reprojection,
                                            rec.frame_id)))

    header_meta = {"seed": args.seed, "gamma": args.gamma,
                   "cov_scale": args.cov_scale, "cov_rotate": args.cov_rotate,
                   "M": args.M, "renoise_variant": args.renoise,
                   "grad_space": args.grad_space}
    if mask_indices:
        header_meta["masked_joints"] = sorted(mask_indices)
    _write_hypotheses(args.out, _joint_names(model.joints), per_frame, header_meta)
    print(f"diagnostics: {json.dumps(diagnostics)}", file=sys.stderr)
    if metric_rows:
        report = args.report or args.out + ".metrics.csv"
        _write_metrics_csv(report, metric_rows)
        print(f"wrote {args.out} and {report}", file=sys.stderr)
    else:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_sample(args) -> int:
    _echo_config(args)
    model = dataio.load_checkpoint(args.model, train_state=False)
    joints = np.zeros(0)
    if args.n > 0:
        rng = RngStream(args.seed, numeric.TRAJECTORY_STREAMS)
        joints = sampler.sample_unconditional(model, model.sched, rng, args.n).joints
    dataset = dataio.PoseDataset(_joint_names(model.joints), joints,
                                 [{"sample": i} for i in range(len(joints))],
                                 {"seed": args.seed, "n": args.n})
    dataio.save_poses(dataset, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _sweep_values(spec: str, convert) -> list:
    """The comma-separated items of `sweep --values`, each through the swept flag's ``convert``."""
    values = []
    for item in spec.split(","):
        try:
            values.append(convert(item))
        except PosePriorError as exc:
            raise PosePriorError(f"--values: {exc}") from None
        except ValueError:
            raise PosePriorError(f"--values: {item!r} is not a number") from None
    return values


def cmd_sweep(args, swept) -> int:
    """`sweep`; ``swept`` is the parser's action of the swept flag, --cov-scale or --gamma."""
    _echo_config(args)
    if getattr(args, swept.dest) is not None:
        raise PosePriorError(f"{swept.option_strings[0]} is the swept setting: "
                             f"give its values with --values")
    values = _sweep_values(args.values, swept.type)
    if args.sweep == "cov-scale" and args.M < 2:
        raise PosePriorError(f"-M must be >= 2 for a cov-scale sweep, got {args.M}")
    gcfg = _guidance_config(args)
    records = dataio.load_observations(args.obs)
    _check_stream_ranges(len(records))
    model = _load_model_for(args.model, records)
    frames = range(len(records))
    scale = 1.0 if args.cov_scale is None else args.cov_scale  # a gamma sweep's --cov-scale
    if args.sweep == "cov-scale":  # (frame, value, config, scale): the values within each frame
        grid = [(idx, value, gcfg, value) for idx in frames for value in values]
        fields = ["frame_id", "value", "per_joint_std_mm"]
    else:  # the frames within each value
        grid = [(idx, value, replace(gcfg, gamma=value), scale)
                for value in values for idx in frames]
        fields = ["frame_id", "value", "reprojection_px", "best_of_m_mpjpe"]
    jobs = [_job(idx, records[idx], records[idx].keypoints, cfg, cov_scale, args.cov_rotate)
            for idx, _, cfg, cov_scale in grid]
    rows, diagnostics = [], Counter()
    for (_, value, _, _), (rec, keypoints, cfg) in zip(grid, jobs):
        hyp = sampler.sample_guided(model, model.sched, keypoints, rec.camera, rec.root, cfg)
        diagnostics.update(hyp.diagnostics)
        row = {"frame_id": rec.frame_id, "value": value}
        if args.sweep == "cov-scale":
            row["per_joint_std_mm"] = metrics.per_joint_std(hyp.joints)
        else:
            row["reprojection_px"] = _mean_reprojection(hyp, keypoints, rec.camera)
            if rec.gt_pose is not None:
                row["best_of_m_mpjpe"] = metrics.best_of_m(hyp, rec.gt_pose)
        rows.append(row)
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)
    print(f"diagnostics: {json.dumps(diagnostics)}", file=sys.stderr)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_fit_heatmap(args) -> int:
    _echo_config(args)
    heatmaps = [dataio.load_heatmap(path) for path in args.heatmaps]
    with open(args.out, "w") as fh:
        for joint_idx, (path, hm) in enumerate(zip(args.heatmaps, heatmaps)):
            try:
                mean, cov = fit_gaussian_heatmap(hm, floor=args.floor)
                rec = {"joint": joint_idx, "file": path, "valid": True,
                       "mean": mean.tolist(), "cov": [cov.a, cov.b, cov.c]}
            except PosePriorError as exc:
                print(f"warning: {path}: {exc}", file=sys.stderr)
                rec = {"joint": joint_idx, "file": path, "valid": False}
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _frame_of(path, i, meta, default) -> str:
    """Pose record i's frame id as a string, ``default`` when it has none.
    A present id must be a JSON string or integer, as in an observation
    file, so 1.0, true and null name no frame."""
    frame_id = meta.get("frame_id", default)
    if "frame_id" in meta and type(frame_id) not in (str, int):
        raise SchemaError(f'{path}: record {i + 1}: "frame_id" must be a string or an '
                          f"integer, got {json.dumps(frame_id)}")
    return str(frame_id)


def cmd_evaluate(args) -> int:
    _echo_config(args)
    hyp_data = dataio.load_poses(args.hyp)
    gt_data = dataio.load_poses(args.gt)
    if hyp_data.num_joints != gt_data.num_joints:
        raise SchemaError(f"{args.hyp} has {hyp_data.num_joints} joints "
                          f"but {args.gt} has {gt_data.num_joints}")

    gt_frames = [_frame_of(args.gt, i, meta, i) for i, meta in enumerate(gt_data.meta)]
    # frame id -> {hypothesis index: record row}
    by_frame: dict[str, dict] = {}
    for i, frame_id in enumerate(gt_frames):
        if frame_id in by_frame:
            raise SchemaError(f"{args.gt}: record {i + 1}: repeats frame {frame_id} of record "
                              f"{gt_frames.index(frame_id) + 1}")
        by_frame[frame_id] = {}
    for i in range(hyp_data.num_poses):
        meta = hyp_data.meta[i]
        index = meta.get("hypothesis", 0)
        if type(index) is not int or index < 0:
            raise SchemaError(f"{args.hyp}: record {i + 1}: \"hypothesis\" must be a "
                              f"non-negative integer, got {json.dumps(index)}")
        frame_id = _frame_of(args.hyp, i, meta, None)
        if frame_id not in by_frame:
            raise SchemaError(f"{args.hyp}: record {i + 1}: frame {frame_id} is not in {args.gt}")
        frame = by_frame[frame_id]
        if index in frame:
            raise SchemaError(f"{args.hyp}: record {i + 1}: repeats hypothesis {index} "
                              f"of frame {frame_id}")
        frame[index] = i

    rows = []
    for frame_id, gt_pose in zip(gt_frames[::args.stride], gt_data.poses[::args.stride]):
        frame = by_frame[frame_id]
        if not frame:
            raise SchemaError(f"no hypotheses for frame {frame_id}")
        joints = hyp_data.poses[[frame[index] for index in sorted(frame)]]
        rows.append((frame_id, len(frame),
                     _metric_row(joints, Pose(gt_pose), float("nan"), frame_id)))
    _write_metrics_csv(args.out, rows)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    _echo_config(args)
    skel = dataio.SyntheticSkeletonConfig(
        n_train=args.n_train, n_eval=args.n_eval, seed=args.seed,
        obs_sigma_px=args.obs_sigma)
    train, heldout, records = dataio.generate_synthetic(skel)
    dataio.save_poses(train, args.out_train)
    if args.out_gt:
        dataio.save_poses(heldout, args.out_gt)
    if args.out_obs:
        dataio.save_observations(records, args.out_obs, skel.joint_names)
    print(f"wrote {args.out_train}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poseprior",
        description="Train a diffusion pose prior and sample 2D-guided 3D pose hypotheses.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the denoising prior on a pose file")
    p.add_argument("--poses", required=True, help="training pose file (JSONL)")
    p.add_argument("--out", required=True, help="checkpoint file to write")
    _add_ruled(p, "--steps", *_at_least(0), default=100000,
               help="training steps [PAPER-default %(default)s]")
    _add_ruled(p, "--batch", *_at_least(1), default=128, help="batch size (default %(default)s)")
    _add_ruled(p, "--lr", *_POSITIVE, default=1e-4,
               help="Adam learning rate [PAPER-default %(default)s]")
    _add_ruled(p, "--ema", *_FRACTION, default=0.995, help="EMA decay [PAPER-default %(default)s]")
    _add_ruled(p, "--hidden", int, lambda value: value % 2 == 0 and value >= 4, "even and >= 4",
               default=1024, help="hidden width [PAPER-default %(default)s]")
    _add_ruled(p, "--T", *_at_least(1), default=1000,
               help="diffusion steps [PAPER-default %(default)s]")
    _add_ruled(p, "--offset", float, lambda value: 0.0 < value < 1.0, "in (0, 1)", default=0.008,
               help="cosine schedule offset [PAPER-default %(default)s]")
    _add_ruled(p, "--checkpoint-every", *_at_least(0), default=0,
               help="also save the checkpoint every k steps, 0 never (default %(default)s)")
    p.add_argument("--loss-log", default=None, help="loss CSV (default <out>.loss.csv)")
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    guidance = sampler.GuidanceConfig()

    def estimation_flags(p):
        """Add the flags `estimate`, `complete` and `sweep` share; return the actions of the
        two a sweep can sweep."""
        p.add_argument("--model", required=True, help="checkpoint file written by train")
        p.add_argument("--obs", required=True, help="observation file (JSONL)")
        p.add_argument("--out", required=True,
                       help="file to write: the hypotheses (JSONL), or a sweep's CSV")
        _add_ruled(p, "-M", *_hypotheses_from(1), default=guidance.num_hypotheses,
                   help="hypotheses per frame [PAPER-default %(default)s]")
        gamma = _add_ruled(p, "--gamma", float, lambda value: 0.0 <= value < math.inf,
                           "finite and >= 0", default=guidance.gamma,
                           help=f"guidance scale [PAPER-default {guidance.gamma}]")
        # a literal default in --cov-scale's help: sweep's set_defaults makes %(default)s None
        cov_scale = _add_ruled(
            p, "--cov-scale", *_POSITIVE, default=1.0,
            help="multiply every keypoint covariance by this scale (default 1.0)")
        _add_ruled(p, "--cov-rotate", float, math.isfinite, "finite", default=0.0,
                   help="rotate every keypoint covariance by this many radians "
                        "(default %(default)s)")
        p.add_argument("--renoise", choices=[sampler.RENOISE_EQ2, sampler.RENOISE_ALG1],
                       default=guidance.renoise_variant,
                       help="renoise x_{t-1} by the closed-form noising of x0hat (eq2) or "
                            "the pipeline's literal line (alg1) (default %(default)s)")
        p.add_argument("--grad-space", choices=[sampler.GRAD_X0HAT, sampler.GRAD_XT],
                       default=guidance.grad_space,
                       help="apply guidance to the clean estimate x0hat or the noisy iterate xt "
                            "(default %(default)s)")
        _add_seed(p)
        return cov_scale, gamma

    p = sub.add_parser("estimate", help="sample guided hypotheses for each observation")
    estimation_flags(p)
    p.add_argument("--report", default=None, help="metrics CSV (default <out>.metrics.csv)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("complete", help="estimate with masked joints inpainted by the prior")
    estimation_flags(p)
    p.add_argument("--report", default=None, help="metrics CSV (default <out>.metrics.csv)")
    _add_ruled(p, "--mask", str, lambda value: bool(value.strip()),
               "joint names or indices, or 'all'", required=True,
               help="the joints to inpaint, comma-separated")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("sample", help="unconditional pose generation")
    p.add_argument("--model", required=True, help="checkpoint file written by train")
    p.add_argument("--out", required=True, help="pose file to write (JSONL)")
    _add_ruled(p, "-n", *_hypotheses_from(0), default=16,
               help="poses to draw (default %(default)s)")
    _add_seed(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="sweep covariance scale or guidance scale")
    swept = {action.option_strings[0][2:]: action for action in estimation_flags(p)}
    p.add_argument("--sweep", choices=list(swept), required=True,
                   help="the setting that --values sets, one run per value")
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    # None tells a flag given on the command line from one left unset; the
    # swept one must be unset, the other takes its default (cmd_sweep)
    p.set_defaults(func=lambda args: cmd_sweep(args, swept[args.sweep]),
                   gamma=None, cov_scale=None)

    p = sub.add_parser("fit-heatmap", help="fit Gaussians to heatmap files")
    p.add_argument("heatmaps", nargs="+", help="heatmap files, one per joint in joint order")
    p.add_argument("--out", required=True, help="fit file to write (JSONL), one line per joint")
    _add_ruled(p, "--floor", *_FRACTION, default=1e-6,
               help="fit only pixels above this fraction of the peak (default %(default)s)")
    p.set_defaults(func=cmd_fit_heatmap)

    p = sub.add_parser("evaluate", help="score a hypothesis file against ground truth")
    p.add_argument("--hyp", required=True, help="hypothesis file written by estimate or complete")
    p.add_argument("--gt", required=True, help="ground-truth pose file (JSONL)")
    p.add_argument("--out", required=True, help="metrics CSV to write")
    _add_ruled(p, "--stride", *_at_least(1), default=1,
               help="evaluate every k-th ground-truth frame (default %(default)s)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate the synthetic benchmark world")
    p.add_argument("--out-train", required=True, help="training pose file to write (JSONL)")
    p.add_argument("--out-obs", default=None, help="observation file (default: not written)")
    p.add_argument("--out-gt", default=None, help="held-out pose file (default: not written)")
    _add_ruled(p, "--n-train", *_at_least(1), default=2000,
               help="training poses (default %(default)s)")
    _add_ruled(p, "--n-eval", *_at_least(1), default=16,
               help="held-out poses, one observed frame each (default %(default)s)")
    _add_ruled(p, "--obs-sigma", *_POSITIVE, default=2.0,
               help="keypoint noise standard deviation in pixels (default %(default)s)")
    _add_seed(p)
    p.set_defaults(func=cmd_synth)

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:  # `build_parser` gives other callers a new one
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: diverged: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_DIVERGED
    except (PosePriorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
