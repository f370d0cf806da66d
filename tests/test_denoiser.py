import numpy as np
import pytest

from poseprior import dataio, denoiser
from poseprior.denoiser import (
    PARAM_KEYS,
    DenoiserModel,
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
        out = make_eval_forward(model)(np.ones((1, 6)), 3)
        assert np.all(out == 0.0)

    def test_eval_deterministic(self):
        model = small_model()
        x = RngStream(8, 0).standard_normal((3, 6))
        assert np.array_equal(make_eval_forward(model)(x, 5), make_eval_forward(model)(x, 5))

    def test_shapes_and_finiteness(self):
        model = small_model(joints=17, hidden=64, t_steps=100)
        eval_fn = make_eval_forward(model)
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
        assert not np.allclose(train_out, make_eval_forward(model)(batch, 3))

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
        base = make_eval_forward(model)(x, 2)
        model.params = {k: np.zeros_like(v) for k, v in model.params.items()}
        assert np.array_equal(make_eval_forward(model)(x, 2), base)


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


class TestAdam:
    def test_zero_gradient_is_fixed_point(self):
        model = small_model()
        before = {k: v.copy() for k, v in model.params.items()}
        zeros = {k: np.zeros_like(v) for k, v in model.params.items()}
        adam_step(model, zeros, lr=1e-2)
        for key in PARAM_KEYS:
            assert np.array_equal(model.params[key], before[key])

    def test_first_step_is_signed_lr(self):
        model = small_model()
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        grads["out_b"] = np.full_like(model.params["out_b"], 3.7)
        before = model.params["out_b"].copy()
        adam_step(model, grads, lr=1e-3)
        moved = model.params["out_b"] - before
        # bias-corrected first step: -lr * g / (|g| + ADAM_EPS) = -lr * sign(g)
        assert np.allclose(moved, -1e-3, rtol=1e-4)

    def test_deterministic(self):
        m1, m2 = small_model(seed=3), small_model(seed=3)
        grads = {k: 0.01 * np.ones_like(v) for k, v in m1.params.items()}
        adam_step(m1, grads, lr=1e-3)
        adam_step(m2, grads, lr=1e-3)
        for key in PARAM_KEYS:
            assert np.array_equal(m1.params[key], m2.params[key])

    def test_step_counts_from_the_model(self):
        # a model resumed at step k continues bias correction at k + 1
        resumed, fresh = small_model(seed=3), small_model(seed=3)
        grads = {k: 0.01 * np.ones_like(v) for k, v in resumed.params.items()}
        resumed.adam_steps = 9
        adam_step(resumed, grads, lr=1e-3)
        adam_step(fresh, grads, lr=1e-3)
        assert resumed.adam_steps == 10 and fresh.adam_steps == 1
        assert not np.array_equal(resumed.params["out_b"], fresh.params["out_b"])


class TestEma:
    def test_zero_decay_copies_params(self):
        model = small_model()
        model.ema_params = {k: np.zeros_like(v) for k, v in model.params.items()}
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


class TestEvalForwardClosure:
    def test_table_matches_per_step_projection(self):
        # the closure projects all T step embeddings in one row-wise call;
        # each must equal the embedding projected for that step alone over
        # the 2-D weights (hidden 128 and 1024 build the table through
        # weight panels, hidden 64 does not)
        for hidden, t_steps in ((64, 100), (128, 20), (1024, 4)):
            model = small_model(joints=17, hidden=hidden, t_steps=t_steps)
            fast = make_eval_forward(model)
            rng = RngStream(25, 0)
            for t in range(1, t_steps + 1):
                x = rng.standard_normal((1, 51))
                temb, _ = denoiser._project_temb(model.ema_params, np.array([t]),
                                                 denoiser._rowwise)
                alone, _ = denoiser._forward_core(model.ema_params, model.bn_stats, x, None,
                                                  train=False, temb=temb[0])
                assert np.array_equal(fast(x, t), alone), (hidden, t)

    @pytest.mark.parametrize("rows", [2, 5, 50, 65])
    def test_block_equals_rows_bitwise(self, rows):
        # the sampler advances all hypotheses as one block; each row must
        # come out exactly as if it had been evaluated alone, with 2-D
        # weights (hidden 64) and with weight panels (hidden 128, 1024)
        for hidden in (64, 128, 1024):
            model = small_model(joints=17, hidden=hidden, t_steps=20)
            fast = make_eval_forward(model)
            block = RngStream(26, rows).standard_normal((rows, 51))
            for t in (1, 20):
                one_by_one = np.concatenate([fast(block[i:i + 1], t) for i in range(rows)])
                assert np.array_equal(fast(block, t), one_by_one), (hidden, t)

    def test_ema_closure_uses_shadow_weights(self):
        model = small_model()
        model.ema_params = {k: np.zeros_like(v) for k, v in model.params.items()}
        fast = make_eval_forward(model)
        assert np.all(fast(np.ones((1, 6)), 3) == 0.0)


class TestPanels:
    @pytest.mark.parametrize("k, n", [(51, 1024), (1024, 1024), (1024, 51), (64, 64),
                                      (128, 192), (100, 100), (1024, 1088)])
    def test_rowwise_over_panels_equals_2d_product_bitwise(self, k, n):
        w = RngStream(27, k * 10000 + n).standard_normal((k, n))
        panels = denoiser._panels(w)
        split = n > denoiser.PANEL_COLS and n % denoiser.PANEL_COLS == 0
        assert panels.shape == ((n // denoiser.PANEL_COLS, 1, k, denoiser.PANEL_COLS)
                                if split else (k, n))
        for m in (1, 2, 5, 50, 1000):
            a = RngStream(28, m).standard_normal((m, k))
            assert np.array_equal(denoiser._rowwise(a, panels), (a[:, None, :] @ w)[:, 0, :])


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
        samp = np.stack([p.joints for p in hyp.poses]).reshape(2000, -1)
        data = toy_world.train.poses.reshape(toy_world.train.num_poses, -1)
        live = data.std(axis=0) > 1.0

        ratios = samp.std(axis=0)[live] / data.std(axis=0)[live]
        assert 0.45 <= ratios.mean() <= 0.95
        assert np.all(ratios > 0.3) and np.all(ratios < 1.3)

        mean_offset = np.abs(samp.mean(axis=0) - data.mean(axis=0))[live]
        assert np.all(mean_offset <= 0.45 * data.std(axis=0)[live])
