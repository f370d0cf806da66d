"""Smoke test of the benchmark: every workload at a tiny size, in both modes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spec  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def test_benchmark_json_is_the_spec():
    assert _benchmark() == spec.benchmark_json()
    assert set(spec.LAYER_TARGETS) == {m["name"] for m in _benchmark()["per_layer"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_every_metric_is_emitted(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = _benchmark()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "--workload", "estimate-toy", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")


def test_tracing_changes_no_output_and_leaves_modules_as_found(tmp_path):
    import poseprior
    import poseprior.cli  # noqa: F401

    workloads.setup(poseprior, "estimate-toy", "tiny", 5, str(tmp_path / "in"))
    model = poseprior.dataio.load_checkpoint(str(tmp_path / "in" / "model.ckpt"))
    obs = workloads.frame_obs_path(str(tmp_path / "in"), 0)
    rec = poseprior.dataio.load_observations(obs)[0]
    cfg = poseprior.sampler.GuidanceConfig(num_hypotheses=3, seed=5)

    def sample():
        hyp = poseprior.sampler.sample_guided(model, None, rec.keypoints, rec.camera,
                                              rec.root, cfg)
        return np.stack([p.joints for p in hyp.poses])

    plain = sample()
    before = tracing.module_state(poseprior)
    tracer = tracing.Tracer()
    tracer.install(poseprior)
    try:
        assert tracing.module_state(poseprior) != before
        traced = sample()
    finally:
        tracer.uninstall()
    assert tracing.module_state(poseprior) == before
    assert np.array_equal(plain, traced)

    metrics = tracing.layer_metrics(tracer, wall_s=1.0)
    steps = cfg.num_hypotheses * model.sched.T
    assert metrics["denoiser.eval_calls"] == steps
    assert metrics["sampler.hyp_steps"] == steps
    assert metrics["sampler.frames"] == 1
    assert metrics["numeric.streams_created"] == 2 * cfg.num_hypotheses
    self_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) + tracer.hook_s
    assert self_total == pytest.approx(metrics["sampler.sample_guided_s"], rel=1e-9)
