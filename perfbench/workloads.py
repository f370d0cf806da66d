"""The three workloads: their generated inputs, the measured call, and its output checks.

Inputs come only from the workload seed. ``setup`` writes them to a
directory (it runs in a child process, so its memory peak stays out of
the measured process); the workload object then runs the measured call
in the benchmark process and checks what the call produced. An estimate
call is one frame, so that a run times many short calls and its median
is not at the mercy of one slow stretch of the machine; the calls cycle
through the held-out frames, and ``final_checks`` gates on their mean.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
import traceback

import numpy as np

_clock = time.perf_counter

# stream ids of the CLI's weight init and training draws
INIT_STREAM = 1 << 40
TRAIN_STREAM = (1 << 40) + 1
EMA_DECAY = 0.995
OBS_SIGMA_PX = 2.0

# "full" is what the benchmark measures; "tiny" only exercises every path
# for the smoke test. max_* are quality gates on the toy world, set well
# above what every seed gives so that only a broken sampler trips them.
SIZES = {
    "full": {
        "estimate-toy": dict(n_train=2000, frames=8, hidden=64, T=100, train_steps=2000,
                             batch=128, lr=1e-3, M=50, max_mpjpe_mm=185.0,
                             max_reprojection_px=45.0),
        "estimate-paper": dict(n_train=2000, frames=1, hidden=1024, T=1000, train_steps=3,
                               batch=128, lr=1e-4, M=2),
        "train-paper": dict(n_train=2000, hidden=1024, T=1000, batch=128, lr=1e-4,
                            steps_per_call=4),
    },
    "tiny": {
        "estimate-toy": dict(n_train=200, frames=2, hidden=16, T=10, train_steps=20,
                             batch=32, lr=1e-3, M=3),
        "estimate-paper": dict(n_train=200, frames=1, hidden=32, T=20, train_steps=2,
                               batch=32, lr=1e-4, M=2),
        "train-paper": dict(n_train=200, hidden=32, T=20, batch=32, lr=1e-4, steps_per_call=2),
    },
}

# the kinds of work that bound each workload, which its calibration loops
# repeat (run.Calibration); train-paper's step is about half matrix
# products (loss_and_grads) and half memory-bound updates (Adam, EMA)
CALIBRATION = {
    "estimate-toy": ("interpreter",),
    "estimate-paper": ("bandwidth",),
    "train-paper": ("compute", "bandwidth"),
}

CSV_FIELDS = ("mpjpe", "pa_mpjpe", "pck150", "auc", "reprojection_px")


def setup(pp, workload: str, size: str, seed: int, out_dir: str) -> float:
    """Generate the workload's inputs into ``out_dir``; returns the seconds it took."""
    p = SIZES[size][workload]
    dataio, denoiser = pp.dataio, pp.denoiser
    t0 = _clock()
    skel = dataio.SyntheticSkeletonConfig(
        n_train=p["n_train"], n_eval=p.get("frames", 1), seed=seed, obs_sigma_px=OBS_SIGMA_PX)
    train, _, records = dataio.generate_synthetic(skel)
    model = denoiser.DenoiserModel.initialize(
        skel.num_joints, p["hidden"], pp.schedule.cosine_schedule(p["T"], 0.008),
        pp.numeric.RngStream(seed, INIT_STREAM))
    os.makedirs(out_dir)
    if workload == "train-paper":
        np.save(os.path.join(out_dir, "poses.npy"), train.poses)
        dataio.save_checkpoint(model, os.path.join(out_dir, "init.ckpt"))
    else:
        denoiser.train(model, train.poses, p["train_steps"], p["batch"], p["lr"], EMA_DECAY,
                       pp.numeric.RngStream(seed, TRAIN_STREAM))
        dataio.save_checkpoint(model, os.path.join(out_dir, "model.ckpt"))
        for k, rec in enumerate(records):
            dataio.save_observations([rec], frame_obs_path(out_dir, k), skel.joint_names)
    return _clock() - t0


def frame_obs_path(inputs: str, k: int) -> str:
    """The observations of held-out frame ``k``, one frame per file."""
    return os.path.join(inputs, f"obs{k}.jsonl")


def dir_digest(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def same_model(a, b) -> bool:
    """Bit-exact equality of everything a checkpoint stores."""
    if (a.joints, a.hidden_dim, a.adam_steps, a.sched.T, a.sched.offset) != \
            (b.joints, b.hidden_dim, b.adam_steps, b.sched.T, b.sched.offset):
        return False
    groups = [(a.params, b.params), (a.ema_params, b.ema_params), (a.adam_m, b.adam_m),
              (a.adam_v, b.adam_v), (a.bn_stats, b.bn_stats)]
    for ga, gb in groups:
        if ga.keys() != gb.keys():
            return False
        if not all(np.array_equal(ga[k], gb[k]) for k in ga):
            return False
    return np.array_equal(a.norm_mean, b.norm_mean) and np.array_equal(a.norm_std, b.norm_std)


def roundtrip(pp, model, path):
    """Save and reload ``model``; returns (seconds, bit-exact?)."""
    t0 = _clock()
    pp.dataio.save_checkpoint(model, path)
    back = pp.dataio.load_checkpoint(path)
    return _clock() - t0, same_model(model, back)


class Estimate:
    """``poseprior estimate`` in process on one frame: model load, sampling, metrics, output.

    Successive calls cycle through the held-out frames.
    """

    ops_per_call = 1

    def __init__(self, pp, workload, size, seed, inputs, work):
        self.pp, self.name = pp, workload
        self.p = p = SIZES[size][workload]
        self.frames = self.cycle = self.min_calls = p["frames"]
        self.ckpt = os.path.join(inputs, "model.ckpt")
        self.hyp = os.path.join(work, "hyp.jsonl")
        self.report = os.path.join(work, "metrics.csv")
        self.argv = [["estimate", "--model", self.ckpt, "--obs", frame_obs_path(inputs, k),
                      "--out", self.hyp, "--report", self.report, "-M", str(p["M"]),
                      "--seed", str(seed)] for k in range(self.frames)]
        self.calls = 0
        self.digests = {}
        self.frame_quality = {}
        self.quality = {}

    def roundtrip_model(self):
        return self.pp.dataio.load_checkpoint(self.ckpt)

    def call(self, tracer=None):
        """Estimate the next frame; returns (wall seconds, list of problems)."""
        k = self.calls % self.frames
        self.calls += 1
        main = self.pp.cli.main
        if tracer is not None:
            main = tracer.wrap("cli.main", main)
        t0 = _clock()
        try:
            rc = main(self.argv[k])
        except Exception:
            traceback.print_exc()
            return _clock() - t0, ["estimate raised"]
        wall = _clock() - t0
        if rc != 0:
            return wall, [f"estimate exited {rc}"]
        return wall, self.check_hypotheses(k) + self.check_report(k)

    def check_hypotheses(self, k):
        with open(self.hyp, "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        if self.digests.setdefault(k, digest) != digest:
            return [f"identical estimate calls on frame {k} wrote different hypotheses"]
        lines = blob.decode().splitlines()
        header = json.loads(lines[0])
        joints, root = header["J"], header.get("root_index", 0)
        records = [json.loads(line) for line in lines[1:] if line.strip()]
        want = self.p["M"]
        if len(records) != want:
            return [f"frame {k}: {len(records)} hypothesis records, expected {want}"]
        for i, rec in enumerate(records):
            pose = np.asarray(rec["joints"], dtype=np.float64)
            if pose.shape != (3 * joints,) or not np.all(np.isfinite(pose)):
                return [f"frame {k}: hypothesis record {i} is not {joints} finite joints"]
            if np.any(pose.reshape(joints, 3)[root] != 0.0):
                return [f"frame {k}: hypothesis record {i} has its root off the origin"]
        return []

    def check_report(self, k):
        with open(self.report, newline="") as fh:
            rows = list(csv.DictReader(fh))
        frames = [r for r in rows if r["frame_id"] != "aggregate"]
        agg = [r for r in rows if r["frame_id"] == "aggregate"]
        if len(frames) != 1 or len(agg) != 1:
            return [f"frame {k}: metrics CSV has {len(frames)} frame rows and "
                    f"{len(agg)} aggregate rows"]
        for row in rows:
            try:
                values = [float(row[f]) for f in CSV_FIELDS]
            except (KeyError, TypeError, ValueError):
                return [f"frame {k}: metrics CSV row {row.get('frame_id')} lacks a metric"]
            if not all(np.isfinite(values)):
                return [f"frame {k}: metrics CSV row {row['frame_id']} is not finite"]
        self.frame_quality[k] = (float(agg[0]["mpjpe"]), float(agg[0]["reprojection_px"]))
        return []

    def final_checks(self):
        """The quality gate on the mean over the frames; call once every frame has run."""
        if len(self.frame_quality) != self.frames:
            return [f"{len(self.frame_quality)} of {self.frames} frames estimated"]
        mpjpe, reproj = np.mean(list(self.frame_quality.values()), axis=0)
        self.quality = {"mpjpe_best_mm": float(mpjpe), "reprojection_px": float(reproj)}
        problems = []
        if mpjpe > self.p.get("max_mpjpe_mm", np.inf):
            problems.append(f"best-of-M MPJPE {mpjpe:.1f} mm above {self.p['max_mpjpe_mm']} mm")
        if reproj > self.p.get("max_reprojection_px", np.inf):
            problems.append(f"reprojection {reproj:.2f} px above "
                            f"{self.p['max_reprojection_px']} px")
        return problems

    def output_bytes(self):
        return os.path.getsize(self.hyp)


class Train:
    """``denoiser.train`` on the paper-size model, in calls of a fixed number of steps."""

    min_calls = 3
    cycle = 1

    def __init__(self, pp, workload, size, seed, inputs, work):
        self.pp, self.name = pp, workload
        self.p = SIZES[size][workload]
        self.ops_per_call = self.p["steps_per_call"]
        self.model = pp.dataio.load_checkpoint(os.path.join(inputs, "init.ckpt"))
        self.poses = np.load(os.path.join(inputs, "poses.npy"))
        self.rng = pp.numeric.RngStream(seed, TRAIN_STREAM)
        self.quality = {}

    def roundtrip_model(self):
        return self.model

    def call(self, tracer=None):
        train = self.pp.denoiser.train
        if tracer is not None:
            train = tracer.wrap("denoiser.train", train)
        lines = []
        t0 = _clock()
        try:
            train(self.model, self.poses, self.ops_per_call, self.p["batch"], self.p["lr"],
                  EMA_DECAY, self.rng, loss_log=lines.append)
        except Exception:
            traceback.print_exc()
            return _clock() - t0, ["train raised"]
        wall = _clock() - t0
        if len(lines) != self.ops_per_call:
            return wall, [f"{len(lines)} loss lines for {self.ops_per_call} steps"]
        losses = [float(line.split(",")[1]) for line in lines]
        if not all(np.isfinite(losses)):
            return wall, ["non-finite training loss"]
        self.quality = {"final_loss": losses[-1]}
        return wall, []

    def final_checks(self):
        return [] if self.quality else ["no training call finished"]

    def output_bytes(self):
        return 0


def make(pp, workload, size, seed, inputs, work):
    cls = Train if workload.startswith("train") else Estimate
    return cls(pp, workload, size, seed, inputs, work)
