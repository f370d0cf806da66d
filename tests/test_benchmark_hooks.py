"""The benchmark's tracer patches names in poseprior's modules from outside.

If a refactor drops or moves one of those names, installing the tracer
fails, and if it changes how the sampler or trainer calls them, the
traced counts drift; these tests make both show up in the unit suite.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import poseprior
import poseprior.cli  # noqa: F401  (imports every module the tracer patches)
from poseprior import dataio, denoiser, numeric, sampler
from poseprior.numeric import RngStream
from poseprior.schedule import cosine_schedule

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` by path (``perfbench`` is not a package)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_modules():
    tracing = load_perfbench("tracing")
    before = tracing.module_state(poseprior)
    tracer = tracing.Tracer()
    try:
        tracer.install(poseprior)
        assert tracing.module_state(poseprior) != before
    finally:
        tracer.uninstall()
    assert tracing.module_state(poseprior) == before


def run_pipeline():
    """A 2-step training run, then guided sampling of M = 3 hypotheses over T = 10 steps."""
    skel = dataio.SyntheticSkeletonConfig(n_train=40, n_eval=1, seed=6)
    train, _, records = dataio.generate_synthetic(skel)
    model = denoiser.DenoiserModel.initialize(
        train.num_joints, 8, cosine_schedule(10, 0.008), RngStream(6, 0))
    denoiser.train(model, train.poses, steps=2, batch_size=8, lr=1e-3, ema_decay=0.99,
                   rng=RngStream(6, 1))
    rec = records[0]
    cfg = sampler.GuidanceConfig(num_hypotheses=3, seed=6)
    hyp = sampler.sample_guided(model, None, rec.keypoints, rec.camera, rec.root, cfg)
    return model, hyp


def calls_within(spans, outer):
    """Count the spans of each name that run inside a span named ``outer``."""
    counts = {}
    for name, _, _, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != outer:
            parent = spans[parent][3]
        if parent >= 0:
            counts[name] = counts.get(name, 0) + 1
    return counts


def test_traced_run_counts_layers_and_changes_no_output():
    tracing = load_perfbench("tracing")
    before = tracing.module_state(poseprior)
    model, hyp = run_pipeline()
    tracer = tracing.Tracer()
    try:
        tracer.install(poseprior)
        traced_model, traced_hyp = run_pipeline()
    finally:
        tracer.uninstall()
    assert tracing.module_state(poseprior) == before

    counts = tracing.layer_metrics(tracer, 1.0)
    assert counts["denoiser.eval_calls"] == 10
    assert counts["denoiser.eval_rows"] == 3 * 10
    assert counts["denoiser.train_steps"] == 2
    # the tracer wraps loss_and_grads by its module name and reads the batch
    # from its second argument: 2 steps of batch 8
    assert sum(span[0] == "denoiser.loss_and_grads" for span in tracer.spans) == 2
    assert tracer.counts["train_rows"] == 2 * 8

    # one block renoise per step; each trajectory stream is drawn in chunks
    # of NOISE_CHUNK steps (initial state included), plus one root draw
    m, steps = 3, 10
    sampling = calls_within(tracer.spans, "sampler.sample_guided")
    assert sampling["schedule.renoise"] == steps
    chunks = -(-steps // sampler.NOISE_CHUNK)
    assert sampling["numeric.rng"] == m * chunks + m

    for key in denoiser.PARAM_KEYS:
        assert np.array_equal(traced_model.params[key], model.params[key])
        assert np.array_equal(traced_model.ema_params[key], model.ema_params[key])
    assert np.array_equal(traced_hyp.roots, hyp.roots)
    assert np.array_equal(traced_hyp.joints, hyp.joints)
    assert traced_hyp.diagnostics == hyp.diagnostics


def test_traced_estimate_command_samples_the_loaded_prior(tmp_path):
    # the CLI samples the Prior that the checkpoint's sampling-state load returns:
    # the tracer reads its shape from make_eval_forward's first argument, and the
    # schedule from sample_guided's "model"
    tracing = load_perfbench("tracing")
    skel = dataio.SyntheticSkeletonConfig(n_train=40, n_eval=1, seed=7)
    train, _, records = dataio.generate_synthetic(skel)
    model = denoiser.DenoiserModel.initialize(
        train.num_joints, 8, cosine_schedule(10, 0.008), RngStream(7, 0))
    denoiser.train(model, train.poses, steps=2, batch_size=8, lr=1e-3, ema_decay=0.99,
                   rng=RngStream(7, 1))
    ckpt, obs = tmp_path / "model.ckpt", tmp_path / "obs.jsonl"
    dataio.save_checkpoint(model, ckpt)
    dataio.save_observations(records, obs, skel.joint_names)
    before = tracing.module_state(poseprior)
    tracer = tracing.Tracer()
    try:
        tracer.install(poseprior)
        assert poseprior.cli.main(["estimate", "--model", str(ckpt), "--obs", str(obs),
                                   "--out", str(tmp_path / "hyp.jsonl"), "-M", "3"]) == 0
    finally:
        tracer.uninstall()
    assert tracing.module_state(poseprior) == before

    counts = tracing.layer_metrics(tracer, 1.0)
    assert counts["denoiser.eval_calls"] == 10
    assert counts["denoiser.eval_rows"] == 3 * 10
    assert counts["sampler.hyp_steps"] == 3 * 10
    assert tracer.info["eval_shape"] == (train.num_joints, 8)


@pytest.mark.parametrize("workload", ["estimate-toy", "estimate-paper", "train-paper"])
def test_workload_runs_untraced_at_tiny_size(tmp_path, workload):
    # what the benchmark calls on the package: setup, the measured call,
    # the final output checks and the checkpoint round trip
    workloads = load_perfbench("workloads")
    inputs, work = tmp_path / "inputs", tmp_path / "work"
    workloads.setup(poseprior, workload, "tiny", 11, str(inputs))
    work.mkdir()
    wl = workloads.make(poseprior, workload, "tiny", 11, str(inputs), str(work))
    problems = []
    for _ in range(wl.min_calls):
        problems += wl.call()[1]
    problems += wl.final_checks()
    assert problems == []
    _, exact = workloads.roundtrip(poseprior, wl.roundtrip_model(), str(work / "roundtrip.ckpt"))
    assert exact


def test_benchmark_stream_ids_are_the_stream_map_ids():
    # the benchmark keeps its own copies of the CLI's init and train stream ids;
    # if the stream map moves them, the benchmark would train another model
    workloads = load_perfbench("workloads")
    assert workloads.INIT_STREAM == numeric.INIT_STREAM
    assert workloads.TRAIN_STREAM == numeric.TRAIN_STREAM
