"""Command-line front end: one binary, subcommand per task.

Every command prints its fully resolved configuration to standard
error, writes machine-readable output to files, and is deterministic
given its flags and files. The commands that draw random numbers
(synth, train, estimate, complete, sample, sweep) also take --seed and
echo it with the configuration; evaluate and fit-heatmap draw none and
do not take it. Exit codes: 0 success, 2 input or schema error
(unreadable files included), 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import replace

import numpy as np

from . import dataio, denoiser, metrics, sampler
from .errors import DivergenceError, PosePriorError, SchemaError
from .geometry import project, to_absolute
from .numeric import RngStream
from .observation import fit_gaussian_heatmap
from .schedule import cosine_schedule

EXIT_INPUT = 2
EXIT_DIVERGED = 3

# stream-id namespaces: trajectories get (frame_index << 24) + hypothesis,
# training and weight init use ids far above any frame namespace
_FRAME_SHIFT = 24
_INIT_STREAM = 1 << 40
_TRAIN_STREAM = (1 << 40) + 1

_METRIC_COLUMNS = ("mpjpe", "pa_mpjpe", "pck150", "auc", "reprojection_px")


def _echo_config(args):
    """Print the parsed flags to stderr as the run's resolved configuration."""
    resolved = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    print(f"resolved-config: {json.dumps(resolved, default=str)}", file=sys.stderr)


def _add_seed(p):
    p.add_argument("--seed", type=int, default=0, help="random seed (default %(default)s)")


def _guidance_config(args) -> sampler.GuidanceConfig:
    """The run's sampler settings, checked before any work; frames set `stream_offset`."""
    return sampler.GuidanceConfig(
        gamma=args.gamma, cov_scale=args.cov_scale, cov_rotate=args.cov_rotate,
        renoise_variant=args.renoise, num_hypotheses=args.M, seed=args.seed,
        grad_space=args.grad_space,
    )


def _frame_config(gcfg: sampler.GuidanceConfig, frame_idx: int) -> sampler.GuidanceConfig:
    return replace(gcfg, stream_offset=frame_idx << _FRAME_SHIFT)


def cmd_train(args) -> int:
    _echo_config(args)
    for flag, value in (("--steps", args.steps), ("--checkpoint-every", args.checkpoint_every)):
        if value < 0:
            raise PosePriorError(f"{flag} must be >= 0, got {value}")
    if args.batch < 1:
        raise PosePriorError(f"--batch must be >= 1, got {args.batch}")
    if not 0.0 <= args.ema < 1.0:
        raise PosePriorError(f"--ema must be in [0, 1), got {args.ema}")
    if not (math.isfinite(args.lr) and args.lr > 0.0):
        raise PosePriorError(f"--lr must be finite and > 0, got {args.lr}")
    dataset = dataio.load_poses(args.poses)
    if dataset.num_poses == 0:
        raise PosePriorError("training pose file holds no records")
    sched = cosine_schedule(args.T, args.offset)
    model = denoiser.DenoiserModel.initialize(
        dataset.num_joints, args.hidden, sched, RngStream(args.seed, _INIT_STREAM))

    loss_path = args.loss_log or args.out + ".loss.csv"
    sink = (lambda m, step: dataio.save_checkpoint(m, args.out)) \
        if args.checkpoint_every else None
    with open(loss_path, "w") as log:
        log.write("step,loss,grad_norm\n")
        denoiser.train(
            model, dataset.poses, args.steps, args.batch, args.lr, args.ema,
            RngStream(args.seed, _TRAIN_STREAM),
            checkpoint_sink=sink, checkpoint_every=args.checkpoint_every,
            loss_log=lambda line: log.write(line + "\n"),
        )
    dataio.save_checkpoint(model, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _load_model_for(model_path, records):
    model = dataio.load_checkpoint(model_path)
    for rec in records:
        if rec.keypoints.num_joints != model.joints:
            raise SchemaError(
                f"observation file has {rec.keypoints.num_joints} joints, "
                f"checkpoint expects {model.joints}")
    return model


def _check_stream_ranges(frames: int, m: int):
    """Keep the stream ids (frame << 24) + hypothesis of a run below the training streams."""
    if m > 1 << _FRAME_SHIFT or frames > _INIT_STREAM >> _FRAME_SHIFT:
        raise PosePriorError(f"{frames} frames at M = {m} exceed the stream-id ranges: at most "
                             f"{_INIT_STREAM >> _FRAME_SHIFT} frames and M = {1 << _FRAME_SHIFT}")


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
        if token.isdigit():
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
    poses, meta = [], []
    for frame_id, hyp in per_frame:
        for m, pose in enumerate(hyp.poses):
            poses.append(pose.joints)
            meta.append({"frame_id": frame_id, "hypothesis": m,
                         "root": hyp.roots[m].tolist()})
    arr = np.stack(poses) if poses else np.zeros((0, len(joint_names), 3))
    dataio.save_poses(dataio.PoseDataset(joint_names, arr, meta, header_meta), path)


def _mean_reprojection(hyp, keypoints, cam):
    """Mean pixel residual over all (hypothesis, joint) pairs in front of the camera."""
    total, count = 0.0, 0
    for pose, root in zip(hyp.poses, hyp.roots):
        joints = to_absolute(pose, root).joints
        ok = keypoints.valid & (joints[:, 2] > 0.0)
        if not np.any(ok):
            continue
        residual = np.linalg.norm(project(joints[ok], cam) - keypoints.means[ok], axis=1)
        total += float(residual.sum())
        count += residual.size
    return total / count if count else float("nan")


def _metric_row(poses, gt, reprojection_px):
    """Best-of-M metrics for one frame: the row written by `_write_metrics_csv`."""
    errors = [metrics.mpjpe(p, gt) for p in poses]
    best = int(np.argmin(errors))
    return {
        "mpjpe": min(errors),
        "pa_mpjpe": min(metrics.pa_mpjpe(p, gt) for p in poses),
        "pck150": metrics.pck(poses[best], gt),
        "auc": metrics.auc(poses[best], gt),
        "reprojection_px": reprojection_px,
    }


def _write_metrics_csv(path, rows, m):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame_id", "M", *_METRIC_COLUMNS])
        for frame_id, vals in rows:
            writer.writerow([frame_id, m] + [f"{vals[k]:.6f}" for k in _METRIC_COLUMNS])
        if rows:
            agg = {k: float(np.mean([v[k] for _, v in rows])) for k in _METRIC_COLUMNS}
            writer.writerow(["aggregate", m] + [f"{agg[k]:.6f}" for k in _METRIC_COLUMNS])


def _run_estimation(args, records, mask=None) -> int:
    _echo_config(args)
    _check_stream_ranges(len(records), args.M)
    gcfg = _guidance_config(args)
    model = _load_model_for(args.model, records)
    mask_indices = _mask_indices(mask, model.joints) if mask else None
    sample = sampler.complete_pose if mask_indices else sampler.sample_guided
    per_frame, metric_rows = [], []
    for idx, rec in enumerate(records):
        keypoints = rec.keypoints
        if mask_indices:
            valid = keypoints.valid.copy()
            valid[list(mask_indices)] = False
            keypoints = keypoints.with_validity(valid)
        hyp = sample(model, model.sched, keypoints, rec.camera, rec.root,
                     _frame_config(gcfg, idx))
        per_frame.append((rec.frame_id, hyp))
        if rec.gt_pose is not None:
            reprojection = _mean_reprojection(hyp, keypoints, rec.camera)
            metric_rows.append((rec.frame_id, _metric_row(hyp.poses, rec.gt_pose, reprojection)))

    header_meta = {"seed": args.seed, "gamma": args.gamma,
                   "cov_scale": args.cov_scale, "cov_rotate": args.cov_rotate,
                   "M": args.M, "renoise_variant": args.renoise,
                   "grad_space": args.grad_space}
    if mask_indices:
        header_meta["masked_joints"] = sorted(mask_indices)
    _write_hypotheses(args.out, _joint_names(model.joints), per_frame, header_meta)
    if metric_rows:
        report = args.report or args.out + ".metrics.csv"
        _write_metrics_csv(report, metric_rows, args.M)
        print(f"wrote {args.out} and {report}", file=sys.stderr)
    else:
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_estimate(args) -> int:
    return _run_estimation(args, dataio.load_observations(args.obs))


def cmd_complete(args) -> int:
    if not args.mask.strip():
        raise PosePriorError("--mask is empty: name at least one joint, or 'all'")
    return _run_estimation(args, dataio.load_observations(args.obs), mask=args.mask)


def cmd_sample(args) -> int:
    _echo_config(args)
    model = dataio.load_checkpoint(args.model)
    if args.n < 0:
        raise PosePriorError(f"sample count must be >= 0, got {args.n}")
    poses = []
    if args.n > 0:
        hyp = sampler.sample_unconditional(model, model.sched,
                                           RngStream(args.seed, 0), args.n)
        poses = hyp.poses
    arr = np.stack([p.joints for p in poses]) if poses else np.zeros((0, model.joints, 3))
    dataset = dataio.PoseDataset(_joint_names(model.joints), arr,
                                 [{"sample": i} for i in range(len(poses))],
                                 {"seed": args.seed, "n": args.n})
    dataio.save_poses(dataset, args.out)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _sweep_values(spec: str) -> list:
    """The comma-separated numbers of `sweep --values`; each must be finite."""
    values = []
    for item in spec.split(","):
        try:
            value = float(item)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise PosePriorError(f"--values: {item!r} is not a finite number")
        values.append(value)
    return values


def cmd_sweep(args) -> int:
    _echo_config(args)
    values = _sweep_values(args.values)
    if args.sweep == "cov-scale" and args.M < 2:
        raise PosePriorError(f"-M must be >= 2 for a cov-scale sweep, got {args.M}")
    records = dataio.load_observations(args.obs)
    _check_stream_ranges(len(records), args.M)
    gcfg = _guidance_config(args)
    model = _load_model_for(args.model, records)
    rows = []
    if args.sweep == "cov-scale":
        for idx, rec in enumerate(records):
            for s, std in sampler.diversity_sweep(model, model.sched, rec.keypoints, rec.camera,
                                                  rec.root, _frame_config(gcfg, idx), values):
                rows.append({"frame_id": rec.frame_id, "value": s, "per_joint_std_mm": std})
        fields = ["frame_id", "value", "per_joint_std_mm"]
    else:  # gamma sweep
        for value in values:
            for idx, rec in enumerate(records):
                hyp = sampler.sample_guided(model, model.sched, rec.keypoints, rec.camera,
                                            rec.root, replace(_frame_config(gcfg, idx),
                                                              gamma=value))
                row = {"frame_id": rec.frame_id, "value": value}
                row["reprojection_px"] = _mean_reprojection(hyp, rec.keypoints, rec.camera)
                if rec.gt_pose is not None:
                    row["best_of_m_mpjpe"] = metrics.best_of_m(hyp, rec.gt_pose)
                rows.append(row)
        fields = ["frame_id", "value", "reprojection_px", "best_of_m_mpjpe"]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def cmd_fit_heatmap(args) -> int:
    _echo_config(args)
    with open(args.out, "w") as fh:
        for joint_idx, path in enumerate(args.heatmaps):
            hm = dataio.load_heatmap(path)
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


def cmd_evaluate(args) -> int:
    _echo_config(args)
    if args.stride < 1:
        raise PosePriorError(f"--stride must be >= 1, got {args.stride}")
    hyp_data = dataio.load_poses(args.hyp)
    gt_data = dataio.load_poses(args.gt)

    by_frame: dict[str, list] = {}
    for i in range(hyp_data.num_poses):
        meta = hyp_data.meta[i]
        index = meta.get("hypothesis", 0)
        if type(index) is not int or index < 0:
            raise SchemaError(f"{args.hyp}: record {i + 1}: \"hypothesis\" must be a "
                              f"non-negative integer, got {json.dumps(index)}")
        by_frame.setdefault(str(meta.get("frame_id")), []).append((index, hyp_data.pose_at(i)))

    gt_frames = [(str(gt_data.meta[i].get("frame_id", i)), gt_data.pose_at(i))
                 for i in range(gt_data.num_poses)]
    gt_frames = gt_frames[::args.stride]

    rows = []
    for frame_id, gt_pose in gt_frames:
        if frame_id not in by_frame:
            raise dataio.SchemaError(f"no hypotheses for frame {frame_id}")
        poses = [p for _, p in sorted(by_frame[frame_id], key=lambda kv: kv[0])]
        rows.append((frame_id, _metric_row(poses, gt_pose, float("nan"))))
    m = max(len(v) for v in by_frame.values()) if by_frame else 0
    _write_metrics_csv(args.out, rows, m)
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
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--steps", type=int, default=100000,
                   help="training steps [PAPER-default %(default)s]")
    p.add_argument("--batch", type=int, default=128, help="batch size (default %(default)s)")
    p.add_argument("--lr", type=float, default=1e-4,
                   help="Adam learning rate [PAPER-default %(default)s]")
    p.add_argument("--ema", type=float, default=0.995,
                   help="EMA decay [PAPER-default %(default)s]")
    p.add_argument("--hidden", type=int, default=1024,
                   help="hidden width [PAPER-default %(default)s]")
    p.add_argument("--T", type=int, default=1000,
                   help="diffusion steps [PAPER-default %(default)s]")
    p.add_argument("--offset", type=float, default=0.008,
                   help="cosine schedule offset [PAPER-default %(default)s]")
    p.add_argument("--checkpoint-every", type=int, default=0)
    p.add_argument("--loss-log", default=None)
    _add_seed(p)
    p.set_defaults(func=cmd_train)

    guidance = sampler.GuidanceConfig()

    def estimation_flags(p):
        p.add_argument("--model", required=True)
        p.add_argument("--obs", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("-M", type=int, default=guidance.num_hypotheses,
                       help="hypotheses per frame [PAPER-default %(default)s]")
        p.add_argument("--gamma", type=float, default=guidance.gamma,
                       help="guidance scale [PAPER-default %(default)s]")
        p.add_argument("--cov-scale", dest="cov_scale", type=float, default=guidance.cov_scale)
        p.add_argument("--cov-rotate", dest="cov_rotate", type=float, default=guidance.cov_rotate)
        p.add_argument("--renoise", choices=[sampler.RENOISE_EQ2, sampler.RENOISE_ALG1],
                       default=guidance.renoise_variant)
        p.add_argument("--grad-space", dest="grad_space",
                       choices=[sampler.GRAD_X0HAT, sampler.GRAD_XT], default=guidance.grad_space,
                       help="apply guidance to the clean estimate x0hat or the noisy iterate xt "
                            "(default %(default)s)")
        p.add_argument("--report", default=None)
        _add_seed(p)

    p = sub.add_parser("estimate", help="sample guided hypotheses for each observation")
    estimation_flags(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("complete", help="estimate with masked joints inpainted by the prior")
    estimation_flags(p)
    p.add_argument("--mask", required=True,
                   help="comma-separated joint names/indices, or 'all'")
    p.set_defaults(func=cmd_complete)

    p = sub.add_parser("sample", help="unconditional pose generation")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("-n", type=int, default=16)
    _add_seed(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("sweep", help="sweep covariance scale or guidance scale")
    estimation_flags(p)
    p.add_argument("--sweep", choices=["cov-scale", "gamma"], required=True)
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit-heatmap", help="fit Gaussians to heatmap files")
    p.add_argument("heatmaps", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--floor", type=float, default=1e-6)
    p.set_defaults(func=cmd_fit_heatmap)

    p = sub.add_parser("evaluate", help="score a hypothesis file against ground truth")
    p.add_argument("--hyp", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stride", type=int, default=1,
                   help="evaluate every k-th ground-truth frame")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("synth", help="generate the synthetic benchmark world")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-obs", default=None)
    p.add_argument("--out-gt", default=None)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-eval", type=int, default=16)
    p.add_argument("--obs-sigma", type=float, default=2.0)
    _add_seed(p)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: diverged: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_DIVERGED
    except (PosePriorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
