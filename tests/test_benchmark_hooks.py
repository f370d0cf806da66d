"""The benchmark's tracer patches names in poseprior's modules from outside.

If a refactor drops or moves one of those names, installing the tracer
fails, and if it changes how the sampler or trainer calls them, the
traced counts drift; these tests make both show up in the unit suite.
"""

import importlib.util
from pathlib import Path

import numpy as np

import poseprior
import poseprior.cli  # noqa: F401  (imports every module the tracer patches)
from poseprior import dataio, denoiser, sampler
from poseprior.numeric import RngStream
from poseprior.schedule import cosine_schedule

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_modules():
    tracing = load_tracing()
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
    tracing = load_tracing()
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
    for traced_pose, pose in zip(traced_hyp.poses, hyp.poses):
        assert np.array_equal(traced_pose.joints, pose.joints)
    assert traced_hyp.diagnostics == hyp.diagnostics
