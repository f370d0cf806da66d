import copy
import dataclasses
import json
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from poseprior import dataio, denoiser
from poseprior.denoiser import (
    PARAM_KEYS,
    STAT_KEYS,
    DenoiserModel,
    ParamGroup,
    adam_step,
    ema_update,
    loss_and_grads,
    make_eval_forward,
    sinusoidal_embedding,
    train,
)
from poseprior.errors import DivergenceError
from poseprior.numeric import RngStream
from poseprior.schedule import cosine_schedule


def small_model(joints=2, hidden=8, t_steps=50, seed=7):
    sched = cosine_schedule(t_steps, 0.008)
    return DenoiserModel.initialize(joints, hidden, sched, RngStream(seed, 1))


class TestForward:
    def test_zero_network_outputs_zero(self):
        model = small_model()
        for key in PARAM_KEYS:
            model.ema_params[key] = np.zeros_like(model.ema_params[key])
        out = make_eval_forward(model.prior())(np.ones((1, 6)), 3)
        assert np.all(out == 0.0)

    def test_eval_deterministic(self):
        model = small_model()
        x = RngStream(8, 0).standard_normal((3, 6))
        assert np.array_equal(make_eval_forward(model.prior())(x, 5),
                              make_eval_forward(model.prior())(x, 5))

    def test_shapes_and_finiteness(self):
        model = small_model(joints=17, hidden=64, t_steps=100)
        eval_fn = make_eval_forward(model.prior())
        out = eval_fn(RngStream(9, 0).standard_normal((1, 51)), 42)
        assert out.shape == (1, 51)
        assert np.all(np.isfinite(out))
        out = eval_fn(RngStream(9, 1).standard_normal((5, 51)), 42)
        assert out.shape == (5, 51)
        assert np.all(np.isfinite(out))

    def test_train_mode_uses_batch_statistics(self):
        model = small_model()
        batch = RngStream(10, 0).standard_normal((4, 6))
        train_out, _ = denoiser._forward_core(
            model.params, model.bn_stats, batch, np.full(4, 3), train=True)
        # a fresh model's EMA weights equal its parameters
        assert not np.allclose(train_out, make_eval_forward(model.prior())(batch, 3))

    def test_odd_hidden_rejected(self):
        with pytest.raises(ValueError):
            small_model(hidden=9)

    def test_timestep_embeddings_distinct(self):
        emb = sinusoidal_embedding(np.arange(1, 101), 64)
        assert len({tuple(np.round(row, 12)) for row in emb}) == 100

    def test_ema_weights_are_separate(self):
        # eval reads only the EMA shadows, never the training parameters
        model = small_model()
        x = RngStream(11, 0).standard_normal((2, 6))
        base = make_eval_forward(model.prior())(x, 2)
        model.params.flat[:] = 0.0
        assert np.array_equal(make_eval_forward(model.prior())(x, 2), base)


class TestLossAndGrads:
    def test_zero_network_loss_is_dimension(self):
        model = small_model(joints=3, hidden=8, t_steps=30)
        for key in PARAM_KEYS:
            model.params[key] = np.zeros_like(model.params[key])
        rng = RngStream(12, 0)
        x0 = RngStream(12, 1).standard_normal((2000, 9))
        losses = []
        for i in range(0, 2000, 100):
            loss, _ = loss_and_grads(model, x0[i:i + 100], rng)
            losses.append(loss)
        # E||eps||^2 equals the flat pose dimension
        assert np.mean(losses) == pytest.approx(9.0, rel=0.05)

    def test_gradients_match_finite_differences(self):
        model = small_model(joints=2, hidden=8, t_steps=50)
        rng = RngStream(13, 0)
        b = 4
        x0 = RngStream(13, 1).standard_normal((b, 6))
        t = rng.integers(1, 51, b)
        eps = rng.standard_normal((b, 6))
        ab = model.sched.alphabar[t]
        x_t = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps

        def loss_of():
            out, _ = denoiser._forward_core(model.params, model.bn_stats, x_t, t, train=True)
            d = out - eps
            return float(np.mean(np.sum(d * d, axis=1)))

        out, cache = denoiser._forward_core(model.params, model.bn_stats, x_t, t, train=True)
        grads = denoiser._backward_core(model.params, cache, (2.0 / b) * (out - eps))

        h = 1e-4
        probe_rng = RngStream(13, 2)
        for key in PARAM_KEYS:
            p = model.params[key]
            picks = probe_rng.integers(0, p.size, min(p.size, 20))
            for flat in np.unique(picks):
                idx = np.unravel_index(flat, p.shape)
                orig = p[idx]
                p[idx] = orig + h
                up = loss_of()
                p[idx] = orig - h
                dn = loss_of()
                p[idx] = orig
                fd = (up - dn) / (2 * h)
                assert abs(grads[key][idx] - fd) <= max(1e-4 * abs(fd), 1e-7), key

    def test_duplicated_pose_same_contribution(self):
        model = small_model()
        pose = RngStream(14, 0).standard_normal(6)
        x0 = np.stack([pose, pose, pose])
        t = np.array([7, 7, 7])
        eps = np.tile(RngStream(14, 1).standard_normal(6), (3, 1))
        ab = model.sched.alphabar[t]
        x_t = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps
        out, _ = denoiser._forward_core(model.params, model.bn_stats, x_t, t, train=True)
        assert np.array_equal(out[0], out[1])
        assert np.array_equal(out[0], out[2])

    def test_rejects_empty_batch(self):
        model = small_model()
        with pytest.raises(ValueError):
            loss_and_grads(model, np.zeros((0, 6)), RngStream(0, 0))


def grads_of(model, value=0.0):
    """A float64 gradient group shaped like the model's parameters, filled with ``value``."""
    grads = ParamGroup(model.params.shapes())
    grads.flat[:] = value
    return grads


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        model = small_model()
        before = {k: v.copy() for k, v in model.params.items()}
        adam_step(model, grads_of(model), lr=1e-2)
        for key in PARAM_KEYS:
            assert np.array_equal(model.params[key], before[key])

    def test_first_step_is_signed_lr(self):
        model = small_model()
        grads = grads_of(model)
        grads["out_b"] = np.full_like(model.params["out_b"], 3.7)
        before = model.params["out_b"].copy()
        adam_step(model, grads, lr=1e-3)
        moved = model.params["out_b"] - before
        # bias-corrected first step: -lr * g / (|g| + ADAM_EPS) = -lr * sign(g)
        assert np.allclose(moved, -1e-3, rtol=1e-4)

    def test_deterministic(self):
        m1, m2 = small_model(seed=3), small_model(seed=3)
        grads = grads_of(m1, 0.01)
        adam_step(m1, grads, lr=1e-3)
        adam_step(m2, grads, lr=1e-3)
        for key in PARAM_KEYS:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_step_counts_from_the_model(self):
        # a model resumed at step k continues bias correction at k + 1
        resumed, fresh = small_model(seed=3), small_model(seed=3)
        grads = grads_of(resumed, 0.01)
        resumed.adam_steps = 9
        adam_step(resumed, grads, lr=1e-3)
        adam_step(fresh, grads, lr=1e-3)
        assert resumed.adam_steps == 10 and fresh.adam_steps == 1
        assert not np.array_equal(resumed.params["out_b"], fresh.params["out_b"])


class TestEma:
    def test_zero_decay_copies_params(self):
        model = small_model()
        model.ema_params.flat[:] = 0.0
        ema_update(model, 0.0)
        for key in PARAM_KEYS:
            assert np.array_equal(model.ema_params[key], model.params[key])

    def test_single_step_value(self):
        model = small_model()
        model.params["out_b"] = np.ones_like(model.params["out_b"])
        model.ema_params["out_b"] = np.zeros_like(model.params["out_b"])
        ema_update(model, 0.995)
        assert np.allclose(model.ema_params["out_b"], 0.005, rtol=1e-5)

    def test_geometric_convergence(self):
        model = small_model()
        model.params["out_b"] = np.ones_like(model.params["out_b"])
        model.ema_params["out_b"] = np.zeros_like(model.params["out_b"])
        decay = 0.9
        gaps = []
        for _ in range(10):
            ema_update(model, decay)
            gaps.append(1.0 - model.ema_params["out_b"][0])
        for k in range(9):
            assert gaps[k + 1] == pytest.approx(decay * gaps[k], rel=1e-5)

    def test_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            ema_update(small_model(), 1.0)


def synthetic_flat_poses(n, joints=17, seed=1):
    cfg = dataio.SyntheticSkeletonConfig(n_train=n, n_eval=1, seed=seed)
    train_ds, _, _ = dataio.generate_synthetic(cfg)
    return train_ds.poses


class TestTrain:
    def test_loss_decreases(self):
        poses = synthetic_flat_poses(500)
        sched = cosine_schedule(100, 0.008)
        model = DenoiserModel.initialize(17, 64, sched, RngStream(20, 0))
        losses = []
        train(model, poses, steps=200, batch_size=64, lr=1e-3, ema_decay=0.99,
              rng=RngStream(20, 1), loss_log=lambda line: losses.append(float(line.split(",")[1])))
        assert np.mean(losses[-50:]) < np.mean(losses[:50])

    def test_zero_steps_leaves_params(self):
        poses = synthetic_flat_poses(50)
        sched = cosine_schedule(20, 0.008)
        model = DenoiserModel.initialize(17, 16, sched, RngStream(21, 0))
        before = {k: v.copy() for k, v in model.params.items()}
        train(model, poses, steps=0, batch_size=8, lr=1e-3, ema_decay=0.99,
              rng=RngStream(21, 1))
        for key in PARAM_KEYS:
            assert np.array_equal(model.params[key], before[key])
        # normalization statistics are set from the data even without steps
        assert np.any(model.norm_std != 1.0)

    def test_same_seed_bit_identical(self, tmp_path):
        poses = synthetic_flat_poses(100)
        sched = cosine_schedule(20, 0.008)
        files = []
        for run in range(2):
            model = DenoiserModel.initialize(17, 16, sched, RngStream(22, 0))
            train(model, poses, steps=40, batch_size=16, lr=1e-3, ema_decay=0.995,
                  rng=RngStream(22, 1))
            path = tmp_path / f"run{run}.ckpt"
            dataio.save_checkpoint(model, path)
            files.append(path.read_bytes())
        assert files[0] == files[1]

    def test_ema_does_not_affect_training(self):
        poses = synthetic_flat_poses(100)
        sched = cosine_schedule(20, 0.008)
        trajs = []
        for decay in (0.0, 0.999):
            model = DenoiserModel.initialize(17, 16, sched, RngStream(23, 0))
            train(model, poses, steps=30, batch_size=16, lr=1e-3, ema_decay=decay,
                  rng=RngStream(23, 1))
            trajs.append({k: v.copy() for k, v in model.params.items()})
        for key in PARAM_KEYS:
            assert np.array_equal(trajs[0][key], trajs[1][key])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_detected(self):
        poses = synthetic_flat_poses(50)
        sched = cosine_schedule(20, 0.008)
        model = DenoiserModel.initialize(17, 16, sched, RngStream(24, 0))
        with pytest.raises(DivergenceError):
            train(model, poses, steps=50, batch_size=8, lr=1e18, ema_decay=0.99,
                  rng=RngStream(24, 1))


def _snap(arr):
    return arr.astype(np.float32).astype(np.float64)


def reference_adam_ema(model, grads, lr, decay):
    """The per-key Adam and EMA formulas, one numpy expression per key, on
    plain-dict float64 copies of the model's groups; the flat passes must
    match them bit for bit. (A float32 copy would compute in float32: a
    float32 array times a Python float stays float32.)"""
    groups = (model.params, model.ema_params, model.adam_m, model.adam_v)
    params, ema, adam_m, adam_v = ({k: v.astype(np.float64) for k, v in group.items()}
                                   for group in groups)
    step = model.adam_steps + 1
    bc1 = 1.0 - denoiser.ADAM_BETA1**step
    bc2 = 1.0 - denoiser.ADAM_BETA2**step
    for key in PARAM_KEYS:
        g = grads[key]
        m = denoiser.ADAM_BETA1 * adam_m[key] + (1.0 - denoiser.ADAM_BETA1) * g
        v = denoiser.ADAM_BETA2 * adam_v[key] + (1.0 - denoiser.ADAM_BETA2) * g * g
        adam_m[key] = _snap(m)
        adam_v[key] = _snap(v)
        update = lr * (m / bc1) / (np.sqrt(v / bc2) + denoiser.ADAM_EPS)
        params[key] = _snap(params[key] - update)
    for key in PARAM_KEYS:
        ema[key] = _snap(decay * ema[key] + (1.0 - decay) * params[key])
    return params, ema, adam_m, adam_v


class TestFlatGroups:
    @pytest.mark.parametrize("hidden", [128, 64])
    def test_flat_passes_equal_per_key_formulas_bitwise(self, hidden):
        # hidden 128 holds 113,331 parameters: three full UPDATE_CHUNK
        # chunks and a ragged tail; hidden 64 fits in one chunk
        model = small_model(joints=17, hidden=hidden, t_steps=20)
        rng = RngStream(40, hidden)
        n = model.params.flat.size
        assert (n > 3 * denoiser.UPDATE_CHUNK) == (hidden == 128)
        # resumed at step 9, with moments and shadows that differ from
        # the parameters
        model.adam_steps = 9
        model.adam_m.flat[:] = _snap(0.1 * rng.standard_normal(n))
        model.adam_v.flat[:] = _snap(0.01 * rng.standard_normal(n) ** 2)
        model.ema_params.flat[:] = _snap(model.params.flat + 0.01 * rng.standard_normal(n))
        for _ in range(3):
            grads = grads_of(model, rng.standard_normal(n))
            grads["out_b"][:3] = 0.0
            want = reference_adam_ema(model, grads, 1e-3, 0.99)
            adam_step(model, grads, 1e-3)
            ema_update(model, 0.99)
            got = (model.params, model.ema_params, model.adam_m, model.adam_v)
            for group, ref in zip(got, want):
                for key in PARAM_KEYS:
                    assert np.array_equal(group[key], ref[key]), key
        assert model.adam_steps == 12

    def test_assigning_a_key_writes_into_the_buffer(self):
        group = small_model().params
        value = np.full(group["out_b"].shape, 2.5)
        group["out_b"] = value
        assert np.shares_memory(group["out_b"], group.flat)
        assert np.count_nonzero(group.flat == 2.5) == value.size
        with pytest.raises(ValueError, match="out_b has shape"):
            group["out_b"] = np.ones(value.size + 1)
        with pytest.raises(KeyError):
            group["nope"] = value

    def test_copies_have_their_own_buffers(self):
        model = small_model()
        for clone in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
            for name in ("params", "ema_params", "adam_m", "adam_v"):
                ours, theirs = getattr(clone, name), getattr(model, name)
                assert isinstance(ours, ParamGroup)
                assert np.array_equal(ours.flat, theirs.flat)
                assert not np.shares_memory(ours.flat, theirs.flat)
                assert all(np.shares_memory(ours[k], ours.flat) for k in PARAM_KEYS)
            before = model.params.flat.copy()
            adam_step(clone, grads_of(clone, 1.0), lr=1e-2)
            assert np.array_equal(model.params.flat, before)
            assert not np.array_equal(clone.params.flat, before)

    def test_shadows_and_moments_are_float32_wherever_the_model_comes_from(self, tmp_path):
        model = small_model()
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(model, path)
        models = [model, dataio.load_checkpoint(path), copy.deepcopy(model),
                  pickle.loads(pickle.dumps(model))]
        for m in models:
            for name, dtype in (("params", np.float64), ("ema_params", np.float32),
                                ("adam_m", np.float32), ("adam_v", np.float32)):
                group = getattr(m, name)
                assert group.flat.dtype == dtype, name
                assert all(v.dtype == dtype for v in group.values()), name
        # a prior, loaded or built, holds the eval form instead of the EMA group
        for prior in (dataio.load_checkpoint(path, train_state=False), model.prior()):
            assert not hasattr(prior, "ema_params")
            arrays = [prior.temb, *prior.weights.values(),
                      *(a for pair in prior.bn_pairs.values() for a in pair),
                      prior.norm_mean, prior.norm_std]
            assert len(arrays) == 1 + 12 + 8 + 2
            assert all(a.dtype == np.float64 for a in arrays)

    def test_model_without_training_groups_is_refused(self, tmp_path):
        # a Prior is frozen and holds no weight group: train raises before it
        # sets the normalization statistics, and save_checkpoint opens no file
        prior = small_model().prior()
        norm_mean = prior.norm_mean.copy()
        with pytest.raises(AttributeError, match="'Prior' object has no attribute 'params'"):
            train(prior, np.zeros((4, 2, 3)), steps=1, batch_size=2, lr=1e-3,
                  ema_decay=0.5, rng=RngStream(41, 0))
        with pytest.raises(AttributeError, match="'Prior' object has no attribute 'params'"):
            dataio.save_checkpoint(prior, tmp_path / "m.ckpt")
        assert not (tmp_path / "m.ckpt").exists()
        assert np.array_equal(prior.norm_mean, norm_mean)
        with pytest.raises(dataclasses.FrozenInstanceError):
            prior.norm_mean = np.ones(6)

    def test_training_allocates_under_twice_the_parameters(self):
        # the gradient group is allocated once per call and reused, and
        # the gradient norm and the Adam/EMA passes work in small
        # scratch, so no step allocates parameter-sized temporaries
        poses = synthetic_flat_poses(100)
        model = DenoiserModel.initialize(17, 256, cosine_schedule(20, 0.008),
                                         RngStream(42, 0))
        param_bytes = model.params.flat.nbytes
        tracemalloc.start()
        try:
            train(model, poses, steps=3, batch_size=32, lr=1e-3, ema_decay=0.99,
                  rng=RngStream(42, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.adam_steps == 3
        assert peak < 2 * param_bytes


def reference_train_step(model, x0, rng):
    """One train step by the per-key formulas: ``np.mean``/``np.var`` batch
    norm, a fresh array per operation, each running statistic snapped on
    its own, the loss as ``np.mean(np.sum(...))`` and the gradient norm as
    a sum of per-key ``np.sum``, on float64 copies of the model's state.
    Returns (loss, gradients, running statistics, gradient norm); the
    train pass must match it bit for bit."""
    p = {key: value.copy() for key, value in model.params.items()}
    stats = {key: value.copy() for key, value in model.bn_stats.items()}
    b = x0.shape[0]
    t = rng.integers(1, model.sched.T + 1, b)
    eps = rng.standard_normal((b, 3 * model.joints))
    ab = model.sched.alphabar[t]
    x_t = np.sqrt(ab)[:, None] * x0 + np.sqrt(1.0 - ab)[:, None] * eps

    e_sin = sinusoidal_embedding(t, model.hidden_dim)
    r1 = np.maximum(e_sin @ p["te1_w"] + p["te1_b"], 0.0)
    e = r1 @ p["te2_w"] + p["te2_b"]
    h = x_t @ p["in_w"] + p["in_b"]
    layers = []
    for blk in ("b1", "b2"):
        h_skip = h
        for lin, bn in (("l1", "bn1"), ("l2", "bn2")):
            a = h + e
            z = a @ p[f"{blk}_{lin}_w"] + p[f"{blk}_{lin}_b"]
            mu, var = z.mean(axis=0), z.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + denoiser.BN_EPS)
            zhat = (z - mu) * inv_std
            n = p[f"{blk}_{bn}_g"] * zhat + p[f"{blk}_{bn}_b"]
            h = np.maximum(n, 0.0)
            layers.append((f"{blk}_{lin}", f"{blk}_{bn}", a, zhat, inv_std, n))
            for key, batch_val in ((f"{blk}_{bn}_m", mu), (f"{blk}_{bn}_v", var)):
                stats[key] = _snap((1.0 - denoiser.BN_MOMENTUM) * stats[key]
                                   + denoiser.BN_MOMENTUM * batch_val)
        h = h_skip + h
    a_out = h + e
    diff = a_out @ p["out_w"] + p["out_b"] - eps
    loss = float(np.mean(np.sum(diff * diff, axis=1)))

    dout = (2.0 / b) * diff
    grads = {"out_w": a_out.T @ dout, "out_b": dout.sum(axis=0)}
    dh = dout @ p["out_w"].T
    de = dh.copy()
    for k in (3, 2, 1, 0):
        lin, bn, a, zhat, inv_std, n = layers[k]
        if k % 2:
            dh_skip, dr = dh.copy(), dh
        dn = dr * (n > 0.0)
        grads[f"{bn}_g"] = (dn * zhat).sum(axis=0)
        grads[f"{bn}_b"] = dn.sum(axis=0)
        dzhat = dn * p[f"{bn}_g"]
        dz = (inv_std / b) * (b * dzhat - dzhat.sum(axis=0) - zhat * (dzhat * zhat).sum(axis=0))
        grads[f"{lin}_w"] = a.T @ dz
        grads[f"{lin}_b"] = dz.sum(axis=0)
        dr = dz @ p[f"{lin}_w"].T
        de += dr
        if k % 2 == 0:
            dh = dr + dh_skip
    grads["in_w"], grads["in_b"] = x_t.T @ dh, dh.sum(axis=0)
    grads["te2_w"], grads["te2_b"] = r1.T @ de, de.sum(axis=0)
    dz1 = (de @ p["te2_w"].T) * (r1 > 0.0)
    grads["te1_w"], grads["te1_b"] = e_sin.T @ dz1, dz1.sum(axis=0)
    grad_norm = float(np.sqrt(sum(float(np.sum(grads[key] * grads[key])) for key in PARAM_KEYS)))
    return loss, grads, stats, grad_norm


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestTrainStep:
    @pytest.mark.parametrize("joints,hidden,batch", [(17, 64, 128), (2, 8, 3)])
    def test_train_pass_equals_per_key_formulas_bitwise(self, joints, hidden, batch):
        # several steps, with Adam and EMA in between, so the batch norms
        # run with gains, shifts and statistics away from their initial values
        model = small_model(joints=joints, hidden=hidden, t_steps=100, seed=45)
        data = RngStream(45, 1).standard_normal((50, 3 * joints))
        draws, rng, ref_rng = RngStream(45, 2), RngStream(45, 3), RngStream(45, 3)
        grads = ParamGroup(model.params.shapes())
        sums = denoiser._SquareSums(grads)
        for _ in range(4):
            x0 = data[draws.integers(0, len(data), batch)]
            want_loss, want_grads, want_stats, want_norm = reference_train_step(
                model, x0, ref_rng)
            loss, got = loss_and_grads(model, x0, rng, grads)
            assert got is grads
            assert same_bits(loss, want_loss)
            for key in PARAM_KEYS:
                assert same_bits(grads[key], want_grads[key]), key
            for key in STAT_KEYS:
                assert same_bits(model.bn_stats[key], want_stats[key]), key
            assert same_bits(sums.norm(), want_norm)
            adam_step(model, grads, 1e-2)
            ema_update(model, 0.9)
        assert np.all(model.bn_stats.flat != np.repeat([0.0, 1.0] * 4, hidden))

    @pytest.mark.parametrize("group", ["params", "ema_params", "adam_m", "adam_v", "bn_stats"])
    @pytest.mark.parametrize("case", ["none", "dict", "wide", "order", "dtype"])
    def test_model_refuses_a_group_not_its_param_group(self, case, group):
        # every group must be a ParamGroup of its keys' shapes, in order, and of its
        # dtype; a plain dict of running statistics used to save, then fail in train
        model = small_model()
        groups = {name: getattr(model, name)
                  for name in ("params", "ema_params", "adam_m", "adam_v", "bn_stats")}
        shapes, dtype = groups[group].shapes(), groups[group].flat.dtype
        keys = STAT_KEYS if group == "bn_stats" else PARAM_KEYS
        wide = (denoiser.stat_shapes(9) if group == "bn_stats"
                else denoiser.param_shapes(2, 10))
        groups[group] = {
            "none": None,
            "dict": {key: np.ones(shape, dtype) for key, shape in shapes.items()},
            "wide": ParamGroup(wide, dtype=dtype),
            "order": ParamGroup({key: shapes[key] for key in reversed(keys)}, dtype=dtype),
            "dtype": ParamGroup(shapes, dtype=np.float32 if dtype == np.float64 else np.float64),
        }[case]
        with pytest.raises(ValueError, match=rf"^{group} must be a \w+ ParamGroup over "):
            DenoiserModel(joints=2, hidden_dim=8, sched=model.sched, norm_mean=model.norm_mean,
                          norm_std=model.norm_std, **groups)

    def test_running_statistics_are_views_of_one_buffer(self):
        stats = small_model().bn_stats
        assert tuple(stats) == STAT_KEYS
        assert all(np.shares_memory(stats[key], stats.flat) for key in STAT_KEYS)
        stats["b2_bn1_v"] = np.full(stats["b2_bn1_v"].shape, 2.5)
        assert np.count_nonzero(stats.flat == 2.5) == stats["b2_bn1_v"].size


def tile_product(a, w):
    """``a @ w`` as the eval forward makes it: the rows of ``a`` in tiles of
    ``denoiser.TILE_ROWS``, the last tile padded with zero rows, and each tile
    times each column panel of the 2-D float64 weight ``w`` as one 2-D
    product. The panels are PANEL_COLS wide when N is a multiple of
    PANEL_COLS larger than it; else the one panel is the whole weight.
    """
    rows, (k, n) = denoiser.TILE_ROWS, w.shape
    cols = denoiser.PANEL_COLS if n > denoiser.PANEL_COLS and n % denoiser.PANEL_COLS == 0 else n
    padded = np.zeros((-(-len(a) // rows) * rows, k))
    padded[:len(a)] = a
    tiles = [padded[i:i + rows] for i in range(0, len(padded), rows)]
    return np.concatenate([np.concatenate([tile @ w[:, c:c + cols] for c in range(0, n, cols)], 1)
                           for tile in tiles])[:len(a)]


def reference_eval_rows(model, block, emb):
    """The eval forward of each row of ``block`` on its own, from the unfolded formulas.

    Each linear is ``tile_product`` of the row alone, its tile padded with
    zero rows, over the 2-D float64 EMA weight, and each batch norm is
    ``z * scale + (b - mean * scale)`` with ``scale = g / sqrt(var + eps)``
    from the model's running statistics.
    """
    ema = {key: value.astype(np.float64) for key, value in model.ema_params.items()}

    def linear(a, key):
        return tile_product(a, ema[f"{key}_w"]) + ema[f"{key}_b"]

    rows = []
    for x in block:
        h = linear(x[None], "in")
        for blk in ("b1", "b2"):
            h_skip = h
            for lin, bn in (("l1", "bn1"), ("l2", "bn2")):
                z = linear(h + emb, f"{blk}_{lin}")
                g, b = ema[f"{blk}_{bn}_g"], ema[f"{blk}_{bn}_b"]
                mean, var = model.bn_stats[f"{blk}_{bn}_m"], model.bn_stats[f"{blk}_{bn}_v"]
                scale = g / np.sqrt(var + denoiser.BN_EPS)
                h = np.maximum(z * scale + (b - mean * scale), 0.0)
            h = h_skip + h
        rows.append(linear(h + emb, "out"))
    return np.concatenate(rows)


class TestEvalForwardClosure:
    def test_table_matches_per_step_projection(self):
        # the closure projects all T step embeddings with training's GEMM;
        # row t - 1 of that table must match step t projected alone, and
        # each step's output must equal the unfolded reference run on that
        # row (hidden 128 and 1024 multiply the per-step linears over weight
        # panels, hidden 64 does not); the batch norms get statistics and
        # affine parameters away from their initial values
        for hidden, t_steps in ((64, 100), (128, 20), (1024, 4)):
            model = small_model(joints=17, hidden=hidden, t_steps=t_steps)
            rng = RngStream(25, hidden)
            for key in STAT_KEYS:
                draw = (rng.uniform(-1.0, 1.0, hidden) if key.endswith("_m")
                        else rng.uniform(0.25, 4.0, hidden))
                model.bn_stats[key] = draw.astype(np.float32).astype(np.float64)
            for key in PARAM_KEYS:
                if "_bn" in key:
                    model.ema_params[key] = rng.uniform(-2.0, 2.0, hidden).astype(np.float32)
            fast = make_eval_forward(model.prior())
            table, _ = denoiser._project_temb(model.ema_params, np.arange(1, t_steps + 1))
            for t in range(1, t_steps + 1):
                step, _ = denoiser._project_temb(model.ema_params, np.array([t]))
                assert np.allclose(table[t - 1], step[0], rtol=1e-12, atol=1e-12), (hidden, t)
                for m in (1, 5):
                    block = rng.standard_normal((m, 51))
                    assert np.array_equal(fast(block, t),
                                          reference_eval_rows(model, block, table[t - 1])), \
                        (hidden, t, m)

    def test_paper_size_memory_under_tracemalloc(self):
        # at hidden 1024 and T = 1000 a "table" is one (T, h) float64
        # array, 8 MB. make_eval_forward keeps the step-embedding table,
        # the weight panels and the folded batch norms, and holds nothing
        # of the projection's cache on the way (3 tables more before).
        # _project_temb's peak is its output, the encoding and the hidden
        # layer, 3 tables, plus the float64 copy numpy's matmul makes of a
        # float32 (h, h) weight, 1.02 tables, for the EMA group (1 table
        # more each before, when the hidden layer was kept before its ReLU)
        t_steps, hidden = 1000, 1024
        model = DenoiserModel.initialize(17, hidden, cosine_schedule(t_steps, 0.008),
                                         RngStream(29, 0))
        table = t_steps * hidden * 8
        steps = np.arange(1, t_steps + 1)
        tracemalloc.start()
        try:
            fast = make_eval_forward(model.prior())
            kept, peak = tracemalloc.get_traced_memory()
            assert peak - kept <= table
            del fast
            for group, tables in ((model.params, 3.5), (model.ema_params, 4.5)):
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                out = denoiser._project_temb(group, steps)
                _, peak = tracemalloc.get_traced_memory()
                del out
                assert peak - before <= tables * table, group.flat.dtype
        finally:
            tracemalloc.stop()

    def test_table_bits_do_not_depend_on_blas_threads(self):
        # the paper-size table (hidden 1024, T = 1000) is one GEMM per
        # linear; it must come out the same at one and two BLAS threads
        script = (
            "import hashlib, numpy as np\n"
            "from poseprior import denoiser\n"
            "from poseprior.numeric import RngStream\n"
            "from poseprior.schedule import cosine_schedule\n"
            "model = denoiser.DenoiserModel.initialize(\n"
            "    17, 1024, cosine_schedule(1000, 0.008), RngStream(29, 0))\n"
            "table, _ = denoiser._project_temb(model.ema_params, np.arange(1, 1001))\n"
            "print(hashlib.sha256(table.tobytes()).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                  text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("rows", [2, 5, 50, 65])
    def test_block_equals_rows_bitwise(self, rows):
        # the sampler advances all hypotheses as one block; each row must
        # come out exactly as if it had been evaluated alone, with 2-D
        # weights (hidden 64) and with weight panels (hidden 128, 1024)
        for hidden in (64, 128, 1024):
            model = small_model(joints=17, hidden=hidden, t_steps=20)
            fast = make_eval_forward(model.prior())
            block = RngStream(26, rows).standard_normal((rows, 51))
            for t in (1, 20):
                one_by_one = np.concatenate([fast(block[i:i + 1], t) for i in range(rows)])
                assert np.array_equal(fast(block, t), one_by_one), (hidden, t)

    def test_ema_closure_uses_shadow_weights(self):
        model = small_model()
        model.ema_params.flat[:] = 0.0
        fast = make_eval_forward(model.prior())
        assert np.all(fast(np.ones((1, 6)), 3) == 0.0)

    @pytest.mark.parametrize("hidden", [8, 128])
    def test_closure_owns_every_tensor_it_reads(self, hidden):
        model = small_model(hidden=hidden)
        model.params.flat[:] = RngStream(29, 0).standard_normal(model.params.flat.size)
        block = RngStream(29, 1).standard_normal((3, 6))
        fast = make_eval_forward(model.prior())
        before = fast(block, 5)
        ema_update(model, 0.5)
        for key in STAT_KEYS:
            model.bn_stats[key] += 0.25
        assert np.array_equal(fast(block, 5), before)
        assert not np.array_equal(make_eval_forward(model.prior())(block, 5), before)


class TestPanels:
    @pytest.mark.parametrize("k, n", [(51, 1024), (1024, 1024), (1024, 51), (64, 64),
                                      (128, 192), (100, 100), (1024, 1088)])
    def test_rowwise_over_panels_equals_2d_product_bitwise(self, k, n):
        w = RngStream(27, k * 10000 + n).standard_normal((k, n))
        panels = denoiser._panels(w)
        split = n > denoiser.PANEL_COLS and n % denoiser.PANEL_COLS == 0
        assert panels.shape == ((n // denoiser.PANEL_COLS, 1, k, denoiser.PANEL_COLS)
                                if split else (1, 1, k, n))
        for m in (1, 2, 5, 50, 1000):
            a = RngStream(28, m).standard_normal((m, k))
            assert np.array_equal(denoiser._rowwise(a, panels), tile_product(a, w))

    @pytest.mark.parametrize("k, n", [(51, 1024), (1024, 1024), (1024, 1088), (128, 192),
                                      (1024, 51), (64, 64)])
    def test_split_equals_serial_bitwise(self, k, n, monkeypatch):
        # (1024, 1088) has 17 panels, an odd count; (1024, 51) and (64, 64) have
        # one panel, which never splits
        w = RngStream(30, k * 10000 + n).standard_normal((k, n))
        panels = denoiser._panels(w)
        submitted = []

        class Helper(ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(1)
                return super().submit(*args, **kwargs)

        with Helper(1) as helper:
            for madds in (1, denoiser.SPLIT_MADDS):  # lowered, then the module's own
                monkeypatch.setattr(denoiser, "SPLIT_MADDS", madds)
                for m in (1, 2, 3, 50):
                    a = RngStream(31, m).standard_normal((m, k))
                    serial = denoiser._rowwise(a, panels)
                    submitted.clear()
                    assert np.array_equal(denoiser._rowwise(a, panels, helper), serial)
                    # the split runs where the panels and the product's size say, and
                    # only there: on both sides of the module's constant
                    assert len(submitted) == (len(panels) > 1 and m * k * n >= madds)
                    one_by_one = [denoiser._rowwise(a[i:i + 1], panels, helper) for i in range(m)]
                    assert np.array_equal(np.concatenate(one_by_one), serial)

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        # only the helper's half of the panels overflows, and the suite makes the
        # overflow warning an error: it is raised in the caller by the future
        monkeypatch.setattr(denoiser, "SPLIT_MADDS", 1)
        w = np.ones((8, 256))
        w[:, 192:] = 1e300
        a = np.full((2, 8), 1e300)
        with ThreadPoolExecutor(1) as helper:
            with pytest.raises(RuntimeWarning, match="overflow"):
                denoiser._rowwise(a, denoiser._panels(w), helper)
            with np.errstate(over="ignore"):  # the caller's errstate holds in the helper
                out = denoiser._rowwise(a, denoiser._panels(w), helper)
        assert np.all(out[:, 192:] == np.inf) and np.all(np.isfinite(out[:, :192]))

    # tile_checks in a child, which prints [the kernel that ran, its failures]
    TILE_CHILD = ("import json, sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "import recipe, test_denoiser\n"
                  "print(json.dumps([recipe.blas_kernel(), test_denoiser.tile_checks()]))\n")

    @pytest.mark.parametrize("kernel", [None, "Haswell", "Sandybridge"])
    def test_tiles_keep_rows_independent_under_every_kernel(self, kernel):
        # the three output families this host runs, at one and two BLAS threads: a GEMM
        # over a block need not be row-independent (Haswell at M = 3), so the tiles'
        # row independence is checked under each, not taken on trust
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", self.TILE_CHILD, os.path.dirname(__file__)],
                                  capture_output=True, text=True,
                                  env={**env, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            ran, failures = json.loads(proc.stdout)
            assert not failures, f"{ran} kernel at {threads} BLAS threads: {failures[:10]}"


# the eval shapes of TestPanels, and those of hidden 16 and 32 (one panel each)
TILE_SHAPES = ((51, 1024), (1024, 1024), (1024, 51), (64, 64), (128, 192), (100, 100),
               (1024, 1088), (51, 16), (16, 16), (16, 51), (51, 32), (32, 32), (32, 51))


def _raised(fn):
    """``fn()`` and the RuntimeWarning messages it raises under ``np.errstate(all="warn")``."""
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="warn"):
        warnings.simplefilter("always")
        out = fn()
    return out, sorted({str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)})


def tile_checks():
    """The failures of ``_rowwise``'s tiles over TILE_SHAPES at M in (1, 2, 3, 5, 50), each
    [check, K, N, M]: the block must equal ``tile_product`` and raise no floating-point error,
    padding rows included; each row must equal its own 1-row call; and at M = 2 and 3 a row of
    NaN or of +-inf must leave the other rows as they were and raise what its own 1-row
    product over the 2-D weight raises."""
    failures = []
    for k, n in TILE_SHAPES:
        w = RngStream(32, k * 10000 + n).standard_normal((k, n))
        panels = denoiser._panels(w)
        for m in (1, 2, 3, 5, 50):
            a = RngStream(33, m).standard_normal((m, k))
            try:
                with np.errstate(all="raise"):
                    out = denoiser._rowwise(a, panels)
            except FloatingPointError:
                failures.append(["finite block raised", k, n, m])
                continue
            if not np.array_equal(out, tile_product(a, w)):
                failures.append(["tile product", k, n, m])
            alone = [denoiser._rowwise(a[i:i + 1], panels) for i in range(m)]
            if not np.array_equal(out, np.concatenate(alone)):
                failures.append(["row alone", k, n, m])
            if m not in (2, 3):
                continue
            for i in range(m):
                for bad in (np.nan, np.inf, -np.inf):
                    b = a.copy()
                    b[i] = bad
                    got, raised = _raised(lambda: denoiser._rowwise(b, panels))
                    others = np.arange(m) != i
                    if not np.array_equal(got[others], out[others]):
                        failures.append([f"row {i} = {bad} moved another row", k, n, m])
                    if raised != _raised(lambda: b[i:i + 1] @ w)[1]:
                        failures.append([f"row {i} = {bad} raised {raised}", k, n, m])
    return failures


class TestTrainHelper:
    """``train``'s helper thread (`denoiser.helper_thread`): halves of the hidden-by-hidden
    products, their gradients' squares and half of the Adam and EMA chunks, every bit kept."""

    # `train` at hidden argv[2] and batch argv[3] in a child, pinned to one CPU when argv[1]
    # is "1": writes the checkpoint to argv[4] and the loss lines to argv[5], and prints the
    # number of tasks handed to a helper thread
    TRAIN_CHILD = (
        "import os, sys\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "if sys.argv[1] == '1':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "submit, tasks = ThreadPoolExecutor.submit, []\n"
        "def counted(self, *args, **kwargs):\n"
        "    tasks.append(1)\n"
        "    return submit(self, *args, **kwargs)\n"
        "ThreadPoolExecutor.submit = counted\n"
        "from poseprior import dataio, denoiser\n"
        "from poseprior.numeric import RngStream\n"
        "from poseprior.schedule import cosine_schedule\n"
        "model = denoiser.DenoiserModel.initialize(\n"
        "    17, int(sys.argv[2]), cosine_schedule(100, 0.008), RngStream(970, 0))\n"
        "poses = RngStream(970, 1).standard_normal((300, 51)) * 100.0\n"
        "lines = []\n"
        "denoiser.train(model, poses, 3, int(sys.argv[3]), 1e-3, 0.99, RngStream(970, 2),\n"
        "               loss_log=lines.append)\n"
        "dataio.save_checkpoint(model, sys.argv[4])\n"
        "open(sys.argv[5], 'w').write('\\n'.join(lines))\n"
        "print(len(tasks))\n")

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs to compare one CPU against two")
    def test_bytes_do_not_depend_on_cpus_or_blas_threads(self, tmp_path):
        default = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        for kernel, batch, tasks_per_step in (
                # hidden 256 at B = 128: 6 forward and 5 input-gradient batch halves, 6
                # weight-gradient row halves, 6 gradients squared, an Adam and an EMA half
                (None, 128, 25),
                ("Haswell", 128, 25),
                # B = 96 is no multiple of 128, so the batch-row products stay whole
                (None, 96, 14)):
            env = default if kernel is None else {**default, "OPENBLAS_CORETYPE": kernel}
            outputs = {}
            for cpus, threads in (("1", "1"), ("2", "1"), ("2", "2")):
                ckpt, log = tmp_path / f"{cpus}-{threads}.ckpt", tmp_path / f"{cpus}-{threads}.csv"
                proc = subprocess.run(
                    [sys.executable, "-c", self.TRAIN_CHILD, cpus, "256", str(batch), str(ckpt),
                     str(log)],
                    capture_output=True, text=True, env={**env, "OPENBLAS_NUM_THREADS": threads})
                assert proc.returncode == 0, proc.stderr
                assert proc.stdout.split() == ["0" if cpus == "1" else str(3 * tasks_per_step)]
                outputs[cpus, threads] = (ckpt.read_bytes(), log.read_bytes())
            assert outputs["1", "1"] == outputs["2", "1"] == outputs["2", "2"], (kernel, batch)

    # one `loss_and_grads` with a helper at each (batch, hidden) of argv[1:] in a child: for
    # each, one [rows of a, columns of b, split, halves equal the whole np.matmul] per
    # `_split_rows` call, and the operand shapes of every `_fork_join`
    SPLIT_CHILD = (
        "import json, sys\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "import numpy as np\n"
        "from poseprior import denoiser\n"
        "from poseprior.numeric import RngStream\n"
        "from poseprior.schedule import cosine_schedule\n"
        "split_rows, fork_join, products, forks = denoiser._split_rows, denoiser._fork_join, [], []\n"
        "def spy_rows(a, b, at, helper=None, out=None):\n"
        "    whole = np.matmul(a, b)\n"
        "    got = split_rows(a, b, at, helper, out)\n"
        "    products.append([len(a), b.shape[1], bool(helper is not None and at),\n"
        "                     got.tobytes() == whole.tobytes()])\n"
        "    return got\n"
        "def spy_fork(helper, fn, first, second):\n"
        "    forks.append([np.shape(x) for x in first + second])\n"
        "    return fork_join(helper, fn, first, second)\n"
        "denoiser._split_rows, denoiser._fork_join = spy_rows, spy_fork\n"
        "out = {}\n"
        "with ThreadPoolExecutor(1) as helper:\n"
        "    for case in sys.argv[1:]:\n"
        "        batch, hidden = map(int, case.split(','))\n"
        "        model = denoiser.DenoiserModel.initialize(\n"
        "            17, hidden, cosine_schedule(100, 0.008), RngStream(973, hidden))\n"
        "        x0 = RngStream(973, batch).standard_normal((batch, 51))\n"
        "        products.clear(), forks.clear()\n"
        "        denoiser.loss_and_grads(model, x0, RngStream(974, 0), helper=helper)\n"
        "        out[case] = [list(products), list(forks)]\n"
        "print(json.dumps(out))\n")

    @pytest.mark.parametrize("kernel", [None, "Haswell", "Sandybridge"])
    def test_split_rule_keeps_every_bit(self, kernel):
        # B = 128 and 256 split every hidden-by-hidden product: the forward's 6 and the 5
        # input gradients by batch rows, the 6 weight gradients by output rows. B = 96 and 129
        # split only the weight gradients: batch halves there can differ (Haswell at 129 rows
        # and two BLAS threads). The thin products with 3J = 51 columns or rows never split.
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        cases = {"128,128": 17, "128,256": 17, "256,192": 17, "96,256": 6, "129,256": 6}
        for threads in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", self.SPLIT_CHILD, *cases],
                                  capture_output=True, text=True,
                                  env={**env, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            for case, (products, forks) in json.loads(proc.stdout).items():
                batch, hidden = map(int, case.split(","))
                split = [p for p in products if p[2]]
                assert len(products) == 17 and len(split) == cases[case], (case, threads)
                assert all(equal for *_, equal in split), (case, threads)
                if batch % 128:
                    assert all(rows == hidden for rows, *_ in split), (case, threads)
                assert len(forks) == len(split)
                assert all(51 not in shape for shapes in forks for shape in shapes)

    @pytest.mark.parametrize("lr", [1e-3, 1e18], ids=["return", "divergence"])
    def test_train_joins_its_helper(self, lr, monkeypatch):
        monkeypatch.setattr(denoiser.os, "sched_getaffinity", lambda pid: {0, 1})
        submit, tasks = ThreadPoolExecutor.submit, []

        def counted(self, *args, **kwargs):
            tasks.append(1)
            return submit(self, *args, **kwargs)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
        model = DenoiserModel.initialize(17, 256, cosine_schedule(20, 0.008), RngStream(971, 0))
        threads = threading.active_count()
        # the caller's errstate holds in the helper, which multiplies the overflowing values
        with np.errstate(all="ignore"):
            if lr < 1.0:
                train(model, synthetic_flat_poses(50), 2, 128, lr, 0.99, RngStream(971, 1))
            else:
                with pytest.raises(DivergenceError):
                    train(model, synthetic_flat_poses(50), 50, 128, lr, 0.99, RngStream(971, 1))
        assert tasks and threading.active_count() == threads

    def test_toy_size_starts_no_thread_and_imports_nothing(self):
        # at hidden 64 every linear is one panel and under SPLIT_MADDS at B = 128
        code = (
            "import sys, threading\n"
            "from poseprior import denoiser\n"
            "from poseprior.numeric import RngStream\n"
            "from poseprior.schedule import cosine_schedule\n"
            "model = denoiser.DenoiserModel.initialize(17, 64, cosine_schedule(10, 0.008),\n"
            "                                          RngStream(972, 0))\n"
            "poses = RngStream(972, 1).standard_normal((200, 51))\n"
            "denoiser.train(model, poses, 3, 128, 1e-3, 0.99, RngStream(972, 2))\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "1"]

    @pytest.mark.parametrize("update", ["adam", "ema"])
    def test_helper_exception_reaches_the_caller(self, update):
        # only the helper's half of the elements overflows, and the suite makes the
        # overflow warning an error: it is raised in the caller by the future
        model = small_model(joints=17, hidden=256)
        size = model.params.flat.size
        assert size > 2 * denoiser.UPDATE_CHUNK
        grads = ParamGroup(model.params.shapes())
        mid = -(-size // denoiser.UPDATE_CHUNK) // 2 * denoiser.UPDATE_CHUNK
        (grads if update == "adam" else model.params).flat[mid:] = 1e300

        def run(helper):
            if update == "adam":
                adam_step(model, grads, 1e-3, helper=helper)
            else:
                ema_update(model, 0.5, helper=helper)
        with ThreadPoolExecutor(1) as helper:
            with pytest.raises(RuntimeWarning, match="overflow"):
                run(helper)
            with np.errstate(over="ignore"):  # the caller's errstate holds in the helper
                run(helper)
        out = (model.adam_v if update == "adam" else model.ema_params).flat
        assert np.all(np.isinf(out[mid:])) and np.all(np.isfinite(out[:mid]))

    def test_squares_on_the_helper_keep_the_norm(self, monkeypatch):
        # the helper squares the hidden-by-hidden keys through the one scratch that the
        # caller then uses for the other keys; the caller must wait for every key, whatever
        # order they were started in. The helper's squares stay in the scratch for a while
        # before their sum, so a caller that did not wait would corrupt a sum
        square_sum = denoiser._square_sum

        def slow_on_helper(g, scratch):
            if threading.current_thread() is threading.main_thread():
                return square_sum(g, scratch)
            squares = np.multiply(g, g, out=scratch[:g.size].reshape(g.shape))
            time.sleep(0.002)
            return float(np.add.reduce(squares, None))
        monkeypatch.setattr(denoiser, "_square_sum", slow_on_helper)
        grads = ParamGroup(denoiser.param_shapes(17, 64))
        grads.flat[...] = RngStream(975, 0).standard_normal(grads.flat.size)
        want = math.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(1) as helper:
                sums = denoiser._SquareSums(grads, helper)
                for _ in range(5):
                    for key in ("te1_w", "te2_w", "b1_l1_w", "b1_l2_w", "b2_l1_w", "b2_l2_w"):
                        sums.start(key)
                    assert same_bits(sums.norm(), want)
        finally:
            sys.setswitchinterval(interval)


class TestSampleMoments:
    def test_unconditional_sample_moments_in_documented_band(self, toy_world):
        """Sampled spread sits in a fixed band below the data spread.

        The reverse loop renoises from the predicted clean sample, whose
        variance is that of a conditional mean, so smooth marginals come
        out narrower than the data (about 0.69x for Gaussian-like
        coordinates at T=100 even with a perfect predictor). Means are
        preserved. The band below is a regression check around that
        mechanism, not a distribution-recovery claim.
        """
        from poseprior import sampler as sampler_mod

        hyp = sampler_mod.sample_unconditional(
            toy_world.model, toy_world.model.sched, RngStream(7100, 0), 2000)
        samp = hyp.joints.reshape(2000, -1)
        data = toy_world.train.poses.reshape(toy_world.train.num_poses, -1)
        live = data.std(axis=0) > 1.0

        ratios = samp.std(axis=0)[live] / data.std(axis=0)[live]
        assert 0.45 <= ratios.mean() <= 0.95
        assert np.all(ratios > 0.3) and np.all(ratios < 1.3)

        mean_offset = np.abs(samp.mean(axis=0) - data.mean(axis=0))[live]
        assert np.all(mean_offset <= 0.45 * data.std(axis=0)[live])
