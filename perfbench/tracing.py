"""Layer spans recorded from outside the poseprior package.

``Tracer.install`` replaces the names that each calling module imported
(``sampler.project``, ``cli.to_absolute``, ``dataio.load_checkpoint`` as
the CLI reaches it, the ``RngStream`` methods on the class, ...) with
timing wrappers, and ``Tracer.uninstall`` puts the originals back.
Nothing inside ``src/`` changes. Spans are kept in memory as
``[name, start, end, parent, child_seconds]`` and written out at the
end; a span's self time is its duration minus its children's.

The wrappers assume one thread (the benchmark runs with one worker):
the span stack is not per thread.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter

LAYERS = ("numeric", "schedule", "denoiser", "geometry", "observation", "sampler",
          "metrics", "dataio", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.info = {}
        self.hook_s = 0.0
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, after=None):
        """Time every call of ``fn`` as span ``name``.

        ``after(args, kwargs, result)`` gathers counts once the span has
        closed; its time is charged to the parent as a child, so hooks
        do not inflate the caller's self time; ``hook_s`` sums it.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = end = _clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += end - rec[1]
            if after is not None:
                after(args, kwargs, result)
                if parent >= 0:
                    hook = _clock() - end
                    spans[parent][4] += hook
                    self.hook_s += hook
            return result

        return traced

    def _patch(self, owner, attr, name, after=None):
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def install(self, pp):
        """Wrap the public calls between poseprior's modules; ``pp`` is the package."""
        cli, dataio, denoiser, metrics = pp.cli, pp.dataio, pp.denoiser, pp.metrics
        sampler, rng_cls = pp.sampler, pp.numeric.RngStream
        counts, info = self.counts, self.info
        wrap = self.wrap

        guided_sig = inspect.signature(sampler.sample_guided)

        def after_guided(args, kwargs, hyp):
            bound = guided_sig.bind(*args, **kwargs).arguments
            model, cfg = bound["model"], bound["cfg"]
            sched = bound["sched"] or model.sched
            counts["hyp_steps"] += cfg.num_hypotheses * sched.T
            counts["behind_camera_skips"] += hyp.diagnostics.get("behind_camera_skips", 0)

        def after_eval(args, kwargs, out):
            counts["eval_rows"] += 1 if np.ndim(args[0]) == 1 else np.shape(args[0])[0]

        def after_make_eval(args, kwargs, eval_fn):
            info["eval_shape"] = (args[0].joints, args[0].hidden_dim)

        original_make_eval = vars(sampler)["make_eval_forward"]
        make_eval = wrap("denoiser.make_eval_forward", original_make_eval, after_make_eval)

        def make_eval_forward(*args, **kwargs):
            return wrap("denoiser.eval", make_eval(*args, **kwargs), after_eval)

        self._patched.append((sampler, "make_eval_forward", original_make_eval))
        sampler.make_eval_forward = make_eval_forward

        def after_grad(args, kwargs, grad):
            counts["grad_rows"] += grad.shape[0]
            counts["grad_live_rows"] += int(np.count_nonzero(np.any(grad != 0.0, axis=1)))

        def after_train_call(args, kwargs, result):
            info["train_shape"] = (args[0].joints, args[0].hidden_dim)
            info["train_params"] = sum(v.size for v in args[0].params.values())

        def after_loss(args, kwargs, result):
            counts["train_rows"] += np.shape(args[1])[0]
            after_train_call(args, kwargs, result)

        self._patch(sampler, "sample_guided", "sampler.sample_guided", after_guided)
        self._patch(sampler, "log_likelihood_grad", "observation.log_likelihood_grad", after_grad)
        self._patch(sampler, "sum_sources", "observation.sum_sources")
        self._patch(sampler, "project", "geometry.project")
        self._patch(sampler, "Pose", "geometry.pose")
        self._patch(sampler, "sample_root", "geometry.sample_root")
        self._patch(sampler, "estimate_x0", "schedule.estimate_x0")
        self._patch(sampler, "renoise", "schedule.renoise")
        self._patch(cli, "project", "geometry.project")
        self._patch(cli, "to_absolute", "geometry.to_absolute")
        for fn in ("load_checkpoint", "save_checkpoint", "load_observations", "save_poses"):
            self._patch(dataio, fn, f"dataio.{fn}")
        for fn in ("mpjpe", "pa_mpjpe", "pck", "auc"):
            self._patch(metrics, fn, f"metrics.{fn}")
        self._patch(denoiser, "loss_and_grads", "denoiser.loss_and_grads", after_loss)
        self._patch(denoiser, "adam_step", "denoiser.adam_step", after_train_call)
        self._patch(denoiser, "ema_update", "denoiser.ema_update", after_train_call)
        for fn in ("standard_normal", "integers", "uniform"):
            self._patch(rng_cls, fn, "numeric.rng")
        self._patch(rng_cls, "__init__", "numeric.stream_init")

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def module_state(pp) -> dict:
    """Identity of every attribute of each poseprior module and of RngStream."""
    owners = [getattr(pp, name) for name in LAYERS] + [pp.numeric.RngStream]
    return {repr(owner): {k: id(v) for k, v in vars(owner).items()} for owner in owners}


def _computed(info: dict) -> dict:
    """Flops and bytes from the parameter shapes (float64 throughout)."""
    out = {}
    if "eval_shape" in info:
        joints, h = info["eval_shape"]
        d = 3 * joints
        weights = d * h + 4 * h * h + h * d           # six linears, temb precomputed
        small = 5 * h + d + 4 * 2 * h + h              # biases, BN scale/shift, temb row
        # multiply-adds of the linears, then the elementwise ops on the
        # hidden activations (step-embedding adds, biases, BN, ReLU, residuals)
        out["eval_flops_row"] = 2 * weights + 24 * h + d
        out["eval_weight_bytes"] = 8 * (weights + small)
        out["eval_act_bytes_row"] = 8 * (2 * d + 12 * h)
    if "train_shape" in info:
        joints, h = info["train_shape"]
        d = 3 * joints
        p = info["train_params"]
        matmul = 2 * (2 * h * h + d * h + 4 * h * h + h * d)   # temb, in, blocks, out
        out["loss_flops_row"] = 3 * matmul                     # forward + backward
        out["adam_flops"] = 14 * p
        out["adam_bytes"] = 8 * 7 * p      # read g, m, v, p; write m, v, p
        out["ema_flops"] = 3 * p
        out["ema_bytes"] = 8 * 3 * p       # read ema, p; write ema
    return out


def _rate(amount, seconds, scale=1e9):
    return amount / seconds / scale if seconds > 0.0 else 0.0


def layer_metrics(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer figures from the spans; every name in spec.PER_LAYER that tracing owns."""
    calls = defaultdict(int)
    incl = defaultdict(float)
    self_s = defaultdict(float)
    frame_s = []
    for name, start, end, _, child in tracer.spans:
        dur = end - start
        calls[name] += 1
        incl[name] += dur
        self_s[name.split(".", 1)[0]] += dur - child
        if name == "sampler.sample_guided":
            frame_s.append(dur)
    counts, comp = tracer.counts, _computed(tracer.info)

    eval_calls, eval_rows = calls["denoiser.eval"], counts["eval_rows"]
    eval_s = incl["denoiser.eval"]
    eval_bytes_total = (eval_calls * comp.get("eval_weight_bytes", 0)
                        + eval_rows * comp.get("eval_act_bytes_row", 0))
    steps = calls["denoiser.adam_step"]
    hyp_steps = counts["hyp_steps"]
    m = {
        "denoiser.eval_calls": eval_calls,
        "denoiser.eval_rows": eval_rows,
        "denoiser.rows_per_call": eval_rows / eval_calls if eval_calls else 0.0,
        "denoiser.eval_s": eval_s,
        "denoiser.make_eval_forward_s": incl["denoiser.make_eval_forward"],
        "denoiser.eval_flops": comp.get("eval_flops_row", 0),
        "denoiser.eval_bytes": eval_bytes_total / eval_rows if eval_rows else 0.0,
        "denoiser.eval_gflops": _rate(eval_rows * comp.get("eval_flops_row", 0), eval_s),
        "denoiser.eval_gbps": _rate(eval_bytes_total, eval_s),
        "observation.grad_calls": calls["observation.log_likelihood_grad"],
        "observation.grad_s": incl["observation.log_likelihood_grad"],
        "observation.sum_sources_s": incl["observation.sum_sources"],
        "observation.live_joint_frac": (counts["grad_live_rows"] / counts["grad_rows"]
                                        if counts["grad_rows"] else 0.0),
        "geometry.project_calls": calls["geometry.project"],
        "geometry.project_s": incl["geometry.project"],
        "geometry.pose_s": incl["geometry.pose"],
        "schedule.estimate_x0_s": incl["schedule.estimate_x0"],
        "schedule.renoise_s": incl["schedule.renoise"],
        "numeric.rng_calls": calls["numeric.rng"],
        "numeric.rng_s": incl["numeric.rng"],
        "numeric.streams_created": calls["numeric.stream_init"],
        "sampler.sample_guided_s": incl["sampler.sample_guided"],
        "sampler.hyp_steps": hyp_steps,
        "sampler.us_per_hyp_step": (1e6 * incl["sampler.sample_guided"] / hyp_steps
                                    if hyp_steps else 0.0),
        "sampler.frames": len(frame_s),
        "sampler.frame_p50_s": float(np.median(frame_s)) if frame_s else 0.0,
        "sampler.frame_max_s": max(frame_s, default=0.0),
        "sampler.behind_camera_skips": counts["behind_camera_skips"],
        "denoiser.train_steps": steps,
        "denoiser.loss_and_grads_s": incl["denoiser.loss_and_grads"],
        "denoiser.loss_and_grads_gflops": _rate(
            counts["train_rows"] * comp.get("loss_flops_row", 0), incl["denoiser.loss_and_grads"]),
        "denoiser.adam_s": incl["denoiser.adam_step"],
        "denoiser.adam_flops": comp.get("adam_flops", 0),
        "denoiser.adam_bytes": comp.get("adam_bytes", 0),
        "denoiser.adam_gbps": _rate(steps * comp.get("adam_bytes", 0), incl["denoiser.adam_step"]),
        "denoiser.ema_s": incl["denoiser.ema_update"],
        "denoiser.ema_flops": comp.get("ema_flops", 0),
        "denoiser.ema_bytes": comp.get("ema_bytes", 0),
        "denoiser.ema_gbps": _rate(calls["denoiser.ema_update"] * comp.get("ema_bytes", 0),
                                   incl["denoiser.ema_update"]),
        "dataio.save_checkpoint_s": incl["dataio.save_checkpoint"],
        "dataio.load_checkpoint_s": incl["dataio.load_checkpoint"],
        "dataio.load_observations_s": incl["dataio.load_observations"],
        "dataio.save_poses_s": incl["dataio.save_poses"],
        "metrics.mpjpe_calls": calls["metrics.mpjpe"],
        "metrics.pa_mpjpe_calls": calls["metrics.pa_mpjpe"],
        "metrics.pck_calls": calls["metrics.pck"],
        "metrics.auc_calls": calls["metrics.auc"],
        "trace.wall_s": wall_s,
        "trace.accounted_frac": ((sum(self_s.values()) + tracer.hook_s) / wall_s
                                 if wall_s > 0.0 else 0.0),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_s[layer]
    return {k: float(v) for k, v in m.items()}
