"""What the benchmark measures: workloads, metrics, and which metric each layer moves.

``BENCHMARK.json`` at the repository root is this file rendered as JSON;
``python3 perfbench/spec.py`` prints it, and the smoke test checks that
the two agree. ``LAYER_TARGETS`` records, for every per-layer metric,
the end-to-end metric and workload it is expected to move, so that a
change to one layer can be checked against the trace.
"""

from __future__ import annotations

import json

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

WORKLOADS = {
    "estimate-toy": (
        "Toy world (17 joints, hidden 64, T=100), 8 frames one per call at M=50: bound by "
        "guidance and Python overhead around 1-row denoiser calls; setup is toy training."),
    "estimate-paper": (
        "Paper-size denoiser (hidden 1024, T=1000), 1 frame at M=2: bound by denoiser "
        "evaluation and memory bandwidth, about 35 MB of weights read per 1-row call."),
    "train-paper": (
        "denoiser.train at hidden 1024, T=1000, B=128, then a bit-exact checkpoint round "
        "trip: forward, exact backward, Adam and EMA; the sampler does no work here."),
}

# An operation is one estimated frame or one training step.
END_TO_END = [
    {"name": "op_ms_norm", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]

_EST = "op_ms_norm on estimate-toy and estimate-paper; nothing on train-paper"
_EVAL = ("op_ms_norm on estimate-paper (most of it) and estimate-toy (about a fifth); "
         "nothing on train-paper")
_TOY = ("op_ms_norm on estimate-toy (most of it) and a little on estimate-paper; "
        "nothing on train-paper")
_TRAIN = "op_ms_norm on train-paper and setup_s on estimate-toy; nothing on the estimate op_ms_norm"
_IO = "op_ms_norm slightly on estimate-paper; the checkpoint round trip of every workload"
_MET = "op_ms_norm on estimate-toy (under 1 % today)"
_NONE = "no end-to-end metric; explains the others"

# (name, unit, better, what it should move)
PER_LAYER = [
    ("denoiser.eval_calls", "count", "lower", _EVAL),
    ("denoiser.eval_rows", "count", "lower", _EST),
    ("denoiser.rows_per_call", "rows", "higher",
     "op_ms_norm on estimate-paper and estimate-toy; a batched engine raises it from 1 to M"),
    ("denoiser.eval_s", "s", "lower", _EVAL),
    ("denoiser.make_eval_forward_s", "s", "lower", "op_ms_norm on estimate-paper"),
    ("denoiser.eval_flops", "flop/row", "lower", _EST + " (computed from the shapes)"),
    ("denoiser.eval_bytes", "B/row", "lower", _EST + " (computed from the shapes)"),
    ("denoiser.eval_gflops", "GFLOP/s", "higher", _EST),
    ("denoiser.eval_gbps", "GB/s", "higher", _EST),
    ("observation.grad_calls", "count", "lower", _TOY),
    ("observation.grad_s", "s", "lower", _TOY),
    ("observation.sum_sources_s", "s", "lower", _TOY),
    ("observation.live_joint_frac", "frac", "higher", _TOY + " (useful share of guidance work)"),
    ("geometry.project_calls", "count", "lower", _TOY),
    ("geometry.project_s", "s", "lower", _TOY),
    ("geometry.pose_s", "s", "lower", _TOY),
    ("schedule.estimate_x0_s", "s", "lower", _TOY),
    ("schedule.renoise_s", "s", "lower", _TOY),
    ("numeric.rng_calls", "count", "lower", _TOY),
    ("numeric.rng_s", "s", "lower", _TOY),
    ("numeric.streams_created", "count", "lower", _TOY),
    ("sampler.sample_guided_s", "s", "lower", _EST),
    ("sampler.hyp_steps", "count", "lower", _EST),
    ("sampler.us_per_hyp_step", "us", "lower", _EST),
    ("sampler.frames", "count", "higher", _NONE + " (sample count of the frame percentiles)"),
    ("sampler.frame_p50_s", "s", "lower", _EST),
    ("sampler.frame_max_s", "s", "lower", _EST),
    ("sampler.behind_camera_skips", "count", "lower", _EST),
    ("denoiser.train_steps", "count", "higher", _NONE),
    ("denoiser.loss_and_grads_s", "s", "lower", _TRAIN),
    ("denoiser.loss_and_grads_gflops", "GFLOP/s", "higher", _TRAIN),
    ("denoiser.adam_s", "s", "lower", _TRAIN),
    ("denoiser.adam_flops", "flop/step", "lower", _TRAIN + " (computed from the shapes)"),
    ("denoiser.adam_bytes", "B/step", "lower", _TRAIN + " (computed from the shapes)"),
    ("denoiser.adam_gbps", "GB/s", "higher", _TRAIN),
    ("denoiser.ema_s", "s", "lower", _TRAIN),
    ("denoiser.ema_flops", "flop/step", "lower", _TRAIN + " (computed from the shapes)"),
    ("denoiser.ema_bytes", "B/step", "lower", _TRAIN + " (computed from the shapes)"),
    ("denoiser.ema_gbps", "GB/s", "higher", _TRAIN),
    ("dataio.save_checkpoint_s", "s", "lower", _IO),
    ("dataio.load_checkpoint_s", "s", "lower", _IO),
    ("dataio.checkpoint_bytes", "B", "lower", _IO),
    ("dataio.load_observations_s", "s", "lower", "op_ms_norm slightly on both estimate workloads"),
    ("dataio.save_poses_s", "s", "lower", "op_ms_norm slightly on both estimate workloads"),
    ("dataio.hyp_bytes", "B", "lower", "op_ms_norm slightly on both estimate workloads"),
    ("metrics.mpjpe_calls", "count", "lower", _MET),
    ("metrics.pa_mpjpe_calls", "count", "lower", _MET),
    ("metrics.pck_calls", "count", "lower", _MET + "; auc makes 31 pck calls"),
    ("metrics.auc_calls", "count", "lower", _MET),
    ("numeric.self_s", "s", "lower", _TOY),
    ("schedule.self_s", "s", "lower", _TOY),
    ("denoiser.self_s", "s", "lower", "op_ms_norm on all three workloads"),
    ("geometry.self_s", "s", "lower", _TOY),
    ("observation.self_s", "s", "lower", _TOY),
    ("sampler.self_s", "s", "lower", _EST + " (sample_guided minus its traced children)"),
    ("metrics.self_s", "s", "lower", _MET),
    ("dataio.self_s", "s", "lower", _IO),
    ("cli.self_s", "s", "lower",
     "op_ms_norm on both estimate workloads (cli.main minus its children)"),
    ("output.mpjpe_best_mm", "mm", "lower",
     "guards op_ms_norm gains on estimate-toy against worse samples"),
    ("output.reprojection_px", "px", "lower", "guards op_ms_norm gains on the estimate workloads"),
    ("output.final_loss", "loss", "lower", "guards op_ms_norm gains on train-paper"),
    ("trace.wall_s", "s", "lower", _NONE + " (traced iteration)"),
    ("trace.overhead_s", "s", "lower", _NONE + " (traced minus untraced wall time)"),
    ("trace.accounted_frac", "frac", "higher", _NONE + " (layer self times over traced wall time)"),
]

LAYER_TARGETS = {name: moves for name, _, _, moves in PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
