"""Shared toy-world fixture: synthetic skeleton data plus a trained prior.

Built once per session. Everything is seeded, so every run of the suite
sees bit-identical data, model, and samples.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from poseprior import dataio, denoiser
from poseprior.numeric import INIT_STREAM, TRAIN_STREAM, RngStream
from poseprior.schedule import cosine_schedule

TOY_DATA_SEED = 11
TOY_TRAIN_SEED = 5
TOY_STEPS = 2000
TOY_BATCH = 128
TOY_LR = 1e-3
TOY_EMA = 0.995
TOY_HIDDEN = 64
TOY_T = 100


@dataclass
class ToyWorld:
    skel: dataio.SyntheticSkeletonConfig
    train: dataio.PoseDataset
    heldout: dataio.PoseDataset
    records: list            # sigma = 2 px observations, 8 frames
    soft_records: list       # sigma = 8 px observations for diversity sweeps
    model: denoiser.DenoiserModel
    paths: dict


@pytest.fixture(scope="session")
def toy_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("toyworld")
    skel = dataio.SyntheticSkeletonConfig(
        n_train=2000, n_eval=8, seed=TOY_DATA_SEED, obs_sigma_px=2.0)
    train, heldout, records = dataio.generate_synthetic(skel)
    soft_skel = dataio.SyntheticSkeletonConfig(
        n_train=2000, n_eval=8, seed=TOY_DATA_SEED, obs_sigma_px=8.0)
    _, _, soft_records = dataio.generate_synthetic(soft_skel)

    sched = cosine_schedule(TOY_T, 0.008)
    model = denoiser.DenoiserModel.initialize(
        skel.num_joints, TOY_HIDDEN, sched, RngStream(TOY_TRAIN_SEED, INIT_STREAM))
    denoiser.train(model, train.poses, steps=TOY_STEPS, batch_size=TOY_BATCH,
                   lr=TOY_LR, ema_decay=TOY_EMA,
                   rng=RngStream(TOY_TRAIN_SEED, TRAIN_STREAM))

    paths = {
        "train_poses": root / "train_poses.jsonl",
        "gt_poses": root / "gt_poses.jsonl",
        "observations": root / "observations.jsonl",
        "soft_observations": root / "soft_observations.jsonl",
        "checkpoint": root / "model.ckpt",
    }
    dataio.save_poses(train, paths["train_poses"])
    dataio.save_poses(heldout, paths["gt_poses"])
    dataio.save_observations(records, paths["observations"], skel.joint_names)
    dataio.save_observations(soft_records, paths["soft_observations"], skel.joint_names)
    dataio.save_checkpoint(model, paths["checkpoint"])

    return ToyWorld(skel=skel, train=train, heldout=heldout, records=records,
                    soft_records=soft_records, model=model, paths=paths)


@pytest.fixture(scope="session")
def tiny_model():
    """Small untrained-ish model for cheap structural tests."""
    sched = cosine_schedule(20, 0.008)
    model = denoiser.DenoiserModel.initialize(3, 8, sched, RngStream(900, 0))
    model.norm_mean = np.zeros(9)
    model.norm_std = np.full(9, 50.0)
    return model


@pytest.fixture
def unchecked_model():
    """Build a DenoiserModel of any joint count and hidden width, with zero
    weights, bypassing ``initialize``'s checks (for checkpoints a reader must refuse)."""
    def build(joints, hidden, t_steps=20):
        shapes = denoiser.param_shapes(joints, hidden)
        groups = {name: denoiser.ParamGroup(shapes, dtype=dtype)
                  for name, dtype in denoiser.GROUP_DTYPES.items()}
        stats = denoiser.ParamGroup(denoiser.stat_shapes(hidden))
        stats.flat[:] = 1.0
        return denoiser.DenoiserModel(
            joints=joints, hidden_dim=hidden, sched=cosine_schedule(t_steps, 0.008),
            bn_stats=stats,
            norm_mean=np.zeros(3 * joints), norm_std=np.ones(3 * joints), **groups)
    return build
