import copy
import dataclasses
import warnings

import numpy as np
import pytest

from poseprior import dataio, denoiser, metrics, sampler
from poseprior.errors import DivergenceError
from poseprior.geometry import Camera, RootEstimate
from poseprior.numeric import RngStream, SymMat2
from poseprior.observation import KeypointObservation, rotate_covariance, scale_covariance
from poseprior.schedule import cosine_schedule, renoise


class TestUnconditional:
    def test_deterministic(self, toy_world):
        a = sampler.sample_unconditional(toy_world.model, None, RngStream(71, 0), 4)
        b = sampler.sample_unconditional(toy_world.model, None, RngStream(71, 0), 4)
        for pa, pb in zip(a.poses, b.poses):
            assert np.array_equal(pa.joints, pb.joints)

    def test_root_relative_output(self, toy_world):
        hyp = sampler.sample_unconditional(toy_world.model, None, RngStream(72, 0), 3)
        for pose in hyp.poses:
            assert pose.frame == "root_relative"
            assert np.all(pose.joints[0] == 0.0)

    def test_collapse_on_single_pose_prior(self):
        # a prior trained on one fixed pose generates that pose
        cfg = dataio.SyntheticSkeletonConfig(n_train=1, n_eval=1, seed=31)
        single, _, _ = dataio.generate_synthetic(cfg)
        data = np.repeat(single.poses, 256, axis=0)
        sched = cosine_schedule(50, 0.008)
        model = denoiser.DenoiserModel.initialize(17, 32, sched, RngStream(32, 0))
        denoiser.train(model, data, steps=400, batch_size=64, lr=2e-3,
                       ema_decay=0.99, rng=RngStream(32, 1))
        hyp = sampler.sample_unconditional(model, sched, RngStream(33, 0), 50)
        scale = np.linalg.norm(single.poses[0], axis=1).max()
        devs = [np.linalg.norm(p.joints - single.poses[0], axis=1).mean() for p in hyp.poses]
        assert np.mean(devs) < 0.10 * scale


class TestScheduleCheck:
    @pytest.mark.parametrize("T,offset", [(10, 0.008), (21, 0.008), (20, 0.01)],
                             ids=["fewer-steps", "more-steps", "other-offset"])
    def test_other_schedule_rejected_by_every_entry_point(self, tiny_model, T, offset):
        sched = cosine_schedule(T, offset)
        cfg = sampler.GuidanceConfig(num_hypotheses=2, seed=3)
        obs = KeypointObservation(np.full((3, 2), 500.0), np.tile([4.0, 0.0, 4.0], (3, 1)),
                                  np.array([True, False, True]))
        cam = Camera(1000.0, 1000.0, 500.0, 500.0)
        calls = [
            lambda: sampler.sample_guided(tiny_model, sched, obs, cam, None, cfg),
            lambda: sampler.sample_unconditional(tiny_model, sched, RngStream(3, 0), 2),
            lambda: sampler.complete_pose(tiny_model, sched, obs, cam, None, cfg),
            lambda: sampler.diversity_sweep(tiny_model, sched, obs, cam, None, cfg, [1.0]),
        ]
        named = (f"schedule (T = {T}, offset = {offset}) is not the model's "
                 f"(T = 20, offset = 0.008)")
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert named in str(exc.value)

    def test_equal_schedule_matches_none(self, tiny_model):
        same = sampler.sample_unconditional(tiny_model, cosine_schedule(20, 0.008),
                                            RngStream(4, 0), 3)
        default = sampler.sample_unconditional(tiny_model, None, RngStream(4, 0), 3)
        for a, b in zip(same.poses, default.poses):
            assert np.array_equal(a.joints, b.joints)


class TestGuided:
    def test_gamma_zero_equals_unconditional_bitwise(self, toy_world):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=0.0, num_hypotheses=5, seed=901)
        guided = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                       rec.camera, rec.root, cfg)
        uncond = sampler.sample_unconditional(toy_world.model, None, RngStream(901, 0), 5)
        for g, u in zip(guided.poses, uncond.poses):
            assert np.array_equal(g.joints, u.joints)

    def test_hypotheses_independent_of_batch(self, toy_world):
        # reruns are identical, and hypothesis m of a batch equals the lone
        # hypothesis drawn on stream m: a row never depends on its batch
        rec = toy_world.records[0]
        tight = rec.keypoints.with_covariances(
            np.tile([0.5, 0.1, 0.7], (toy_world.skel.num_joints, 1)))
        cases = {
            "x0hat": (rec.keypoints, {}),
            "xt": (rec.keypoints, {"grad_space": sampler.GRAD_XT}),
            "alg1": (rec.keypoints, {"renoise_variant": sampler.RENOISE_ALG1}),
            "two sources": ([rec.keypoints, tight], {}),
        }

        def run(obs, extra, m, offset=0):
            cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=m, seed=902,
                                         stream_offset=offset, **extra)
            hyp = sampler.sample_guided(toy_world.model, None, obs, rec.camera,
                                        rec.root, cfg)
            return np.stack([p.joints for p in hyp.poses]), hyp.roots

        for name, (obs, extra) in cases.items():
            poses, roots = run(obs, extra, 6)
            rerun_poses, rerun_roots = run(obs, extra, 6)
            assert np.array_equal(poses, rerun_poses), name
            assert np.array_equal(roots, rerun_roots), name
            for m in range(6):
                lone_poses, lone_roots = run(obs, extra, 1, offset=m)
                assert np.array_equal(poses[m], lone_poses[0]), (name, m)
                assert np.array_equal(roots[m], lone_roots[0]), (name, m)

    def test_divergence_raised_with_step(self, toy_world):
        model = copy.deepcopy(toy_world.model)
        model.ema_params["out_w"] = np.full_like(model.ema_params["out_w"], np.inf)
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=3, seed=914)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            sampler.sample_guided(model, None, rec.keypoints, rec.camera, rec.root, cfg)
        assert exc.value.step == model.sched.T
        assert exc.value.diagnostics["hypothesis"] == 0

    def test_divergence_names_lowest_nonfinite_row(self, toy_world, monkeypatch):
        make_eval = sampler.make_eval_forward

        def poisoned(model):
            eval_fn = make_eval(model)

            def eval_forward(x, t):
                out = eval_fn(x, t)
                if t == 50:
                    out[[4, 2], 0] = np.nan
                return out
            return eval_forward

        monkeypatch.setattr(sampler, "make_eval_forward", poisoned)
        cfg = sampler.GuidanceConfig(gamma=0.0, num_hypotheses=6, seed=915)
        with pytest.raises(DivergenceError) as exc:
            sampler.sample_guided(toy_world.model, None, None, None, None, cfg)
        assert exc.value.step == 49
        assert exc.value.diagnostics["hypothesis"] == 2

    def test_guidance_pulls_reprojection_down(self, toy_world):
        from poseprior.cli import _mean_reprojection
        rec = toy_world.records[0]
        tight = rec.keypoints.with_covariances(
            np.tile([0.25, 0.0, 0.25], (toy_world.skel.num_joints, 1)))
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=20, seed=904)
        guided = sampler.sample_guided(toy_world.model, None, tight, rec.camera,
                                       rec.root, cfg)
        free = sampler.sample_guided(
            toy_world.model, None, tight, rec.camera, rec.root,
            sampler.GuidanceConfig(gamma=0.0, num_hypotheses=20, seed=904))
        assert (_mean_reprojection(guided, rec.keypoints, rec.camera)
                < _mean_reprojection(free, rec.keypoints, rec.camera))

    def test_multi_source_runs_and_strengthens(self, toy_world):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=4, seed=905)
        single = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                       rec.camera, rec.root, cfg)
        double = sampler.sample_guided(toy_world.model, None,
                                       [rec.keypoints, rec.keypoints],
                                       rec.camera, rec.root, cfg)
        assert not np.array_equal(single.poses[0].joints, double.poses[0].joints)

    def test_behind_camera_joints_skipped_and_counted(self, toy_world):
        # a root far behind the camera puts joints at negative depth for
        # most steps; those are skipped per step and counted, and the
        # run still completes with finite output
        rec = toy_world.records[0]
        behind = RootEstimate(np.array([0.0, 0.0, -8000.0]), np.zeros(3))
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=3, seed=906)
        hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                    rec.camera, behind, cfg)
        assert hyp.diagnostics["behind_camera_skips"] > 0
        for pose in hyp.poses:
            assert np.all(np.isfinite(pose.joints))
            assert pose.frame == "root_relative"

    @pytest.mark.parametrize("case", ["behind_camera", "nonfinite_grad"])
    def test_skip_counts_kept_apart(self, toy_world, monkeypatch, case):
        # behind-camera joints and zeroed non-finite gradients are counted
        # under their own keys; each case here triggers only its own
        rec = toy_world.records[0]
        depth = -8000.0 if case == "behind_camera" else 1e6
        root = RootEstimate(np.array([0.0, 0.0, depth]), np.zeros(3))
        if case == "nonfinite_grad":
            grad = sampler.log_likelihood_grad

            def poisoned(pose, obs, cam):
                g = grad(pose, obs, cam)
                g[[1, 20]] = np.nan
                return g
            monkeypatch.setattr(sampler, "log_likelihood_grad", poisoned)
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=3, seed=906)
        hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                    rec.camera, root, cfg)
        counts = hyp.diagnostics
        if case == "behind_camera":
            assert counts["behind_camera_skips"] > 0
            assert counts["nonfinite_grad_zeroed"] == 0
        else:
            assert counts["behind_camera_skips"] == 0
            assert counts["nonfinite_grad_zeroed"] == 2 * toy_world.model.sched.T
        for pose in hyp.poses:
            assert np.all(np.isfinite(pose.joints))

    @pytest.mark.parametrize("grad_space", [sampler.GRAD_X0HAT, sampler.GRAD_XT])
    def test_overflowing_gamma_warns_nothing(self, toy_world, grad_space):
        # the raw step overflows; _clip_rows bounds it, so numpy's overflow
        # warnings would only be noise
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=1e300, num_hypotheses=3, seed=908,
                                     grad_space=grad_space)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                        rec.camera, rec.root, cfg)
        for pose in hyp.poses:
            assert np.all(np.isfinite(pose.joints))

    def test_renoise_variants_differ(self, toy_world):
        rec = toy_world.records[0]
        out = {}
        for variant in (sampler.RENOISE_EQ2, sampler.RENOISE_ALG1):
            cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=2, seed=907,
                                         renoise_variant=variant)
            hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                        rec.camera, rec.root, cfg)
            out[variant] = np.stack([p.joints for p in hyp.poses])
            assert np.all(np.isfinite(out[variant]))
        assert not np.array_equal(out[sampler.RENOISE_EQ2], out[sampler.RENOISE_ALG1])

    def test_provenance(self, toy_world):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=3, seed=908,
                                     stream_offset=64)
        hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                    rec.camera, rec.root, cfg)
        assert len(hyp) == 3
        assert hyp.roots.shape == (3, 3)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(gamma=-1.0)
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(cov_scale=0.0)
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(num_hypotheses=0)
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(renoise_variant="bogus")
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(grad_space="bogus")

    @pytest.mark.parametrize("field", ["gamma", "cov_scale", "cov_rotate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            sampler.GuidanceConfig(**{field: value})

    def test_joint_count_mismatch_rejected(self, toy_world):
        from poseprior.observation import KeypointObservation
        bad = KeypointObservation(np.zeros((3, 2)),
                                  np.tile([1.0, 0.0, 1.0], (3, 1)),
                                  np.ones(3, dtype=bool))
        cfg = sampler.GuidanceConfig(num_hypotheses=1, seed=1)
        with pytest.raises(ValueError):
            sampler.sample_guided(toy_world.model, None, bad, toy_world.records[0].camera,
                                  toy_world.records[0].root, cfg)


class TestCompletion:
    def test_requires_a_masked_joint(self, toy_world):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(num_hypotheses=1, seed=1)
        with pytest.raises(ValueError):
            sampler.complete_pose(toy_world.model, None, rec.keypoints,
                                  rec.camera, rec.root, cfg)

    def test_all_masked_equals_unconditional(self, toy_world):
        rec = toy_world.records[0]
        masked = rec.keypoints.with_validity(
            np.zeros(toy_world.skel.num_joints, dtype=bool))
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=4, seed=909)
        hyp = sampler.complete_pose(toy_world.model, None, masked, rec.camera,
                                    rec.root, cfg)
        uncond = sampler.sample_unconditional(toy_world.model, None, RngStream(909, 0), 4)
        for g, u in zip(hyp.poses, uncond.poses):
            assert np.array_equal(g.joints, u.joints)

    def test_masked_joints_get_no_guidance(self, toy_world):
        # changing the observed mean of a masked joint cannot change anything
        from poseprior.observation import KeypointObservation
        rec = toy_world.records[0]
        valid = rec.keypoints.valid.copy()
        valid[5] = False
        kp1 = rec.keypoints.with_validity(valid)
        means = rec.keypoints.means.copy()
        means[5] += 250.0
        kp2 = KeypointObservation(means, rec.keypoints.covs.copy(), valid.copy())
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=2, seed=910)
        h1 = sampler.complete_pose(toy_world.model, None, kp1, rec.camera, rec.root, cfg)
        h2 = sampler.complete_pose(toy_world.model, None, kp2, rec.camera, rec.root, cfg)
        for a, b in zip(h1.poses, h2.poses):
            assert np.array_equal(a.joints, b.joints)


class TestBestOfM:
    def test_nested_streams_monotone(self, toy_world):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=12, seed=911)
        hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                    rec.camera, rec.root, cfg)
        values = [metrics.best_of_m(hyp.poses[:m], rec.gt_pose) for m in (1, 3, 6, 12)]
        assert all(values[i + 1] <= values[i] for i in range(3))

    def test_prefix_equals_smaller_run(self, toy_world):
        rec = toy_world.records[0]
        small = sampler.sample_guided(
            toy_world.model, None, rec.keypoints, rec.camera, rec.root,
            sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=2, seed=912))
        big = sampler.sample_guided(
            toy_world.model, None, rec.keypoints, rec.camera, rec.root,
            sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=5, seed=912))
        for a, b in zip(small.poses, big.poses[:2]):
            assert np.array_equal(a.joints, b.joints)


class PerStepNoise:
    """The sampler's noise before chunking: one standard_normal(3J) per row per draw."""

    def __init__(self, rngs, dim, slabs):
        self.rngs, self.dim = rngs, dim

    def standard_normal(self, shape):
        assert shape == (len(self.rngs), self.dim)
        return np.stack([rng.standard_normal(self.dim) for rng in self.rngs])


def per_row_renoise(x0_hat, t_target, noise, sched):
    return np.stack([renoise(row, t_target, rng, sched) for row, rng in zip(x0_hat, noise.rngs)])


class TestChunkedNoise:
    @pytest.mark.parametrize("grad_space", [sampler.GRAD_X0HAT, sampler.GRAD_XT])
    @pytest.mark.parametrize("variant", [sampler.RENOISE_EQ2, sampler.RENOISE_ALG1])
    def test_equals_per_row_per_step_draws_bitwise(self, toy_world, monkeypatch, variant,
                                                   grad_space):
        # the old path: each row draws its initial state, then one renoise(row, t - 1,
        # rng, sched) per step (eq2), or one standard_normal(3J) per step (alg1)
        rec = toy_world.records[1]
        k = sampler.NOISE_CHUNK
        for steps in (k - 1, k, k + 1, 2 * k + 5):
            model = dataclasses.replace(toy_world.model, sched=cosine_schedule(steps, 0.008))
            for m, offset in ((1, 0), (3, 0), (3, 77 << 24)):
                cfg = sampler.GuidanceConfig(num_hypotheses=m, seed=914, stream_offset=offset,
                                             renoise_variant=variant, grad_space=grad_space)
                args = (model, None, rec.keypoints, rec.camera, rec.root, cfg)
                new = sampler.sample_guided(*args)
                with monkeypatch.context() as patch:
                    patch.setattr(sampler, "_TrajectoryNoise", PerStepNoise)
                    patch.setattr(sampler, "renoise", per_row_renoise)
                    old = sampler.sample_guided(*args)
                assert np.array_equal(np.stack([p.joints for p in new.poses]),
                                      np.stack([p.joints for p in old.poses]))
                assert np.array_equal(new.roots, old.roots)
                assert new.diagnostics == old.diagnostics


class TestDiversitySweep:
    def test_single_value_matches_direct(self, toy_world):
        rec = toy_world.soft_records[0]
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=8, seed=913)
        rows = sampler.diversity_sweep(toy_world.model, None, rec.keypoints,
                                       rec.camera, rec.root, cfg, [2.0])
        from dataclasses import replace
        direct = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                       rec.camera, rec.root, replace(cfg, cov_scale=2.0))
        assert len(rows) == 1
        assert rows[0][0] == 2.0
        assert rows[0][1] == pytest.approx(metrics.per_joint_std(direct), abs=1e-12)

    def test_rejects_nonpositive_scale(self, toy_world):
        rec = toy_world.soft_records[0]
        cfg = sampler.GuidanceConfig(num_hypotheses=2, seed=1)
        with pytest.raises(ValueError):
            sampler.diversity_sweep(toy_world.model, None, rec.keypoints,
                                    rec.camera, rec.root, cfg, [1.0, -2.0])


def per_joint_edit(src, theta, scale):
    """Reference covariance edit: one SymMat2 rotation and scaling per joint."""
    covs = np.empty_like(src.covs)
    for j in range(src.num_joints):
        sig = SymMat2(*src.covs[j])
        if theta != 0.0:
            sig = rotate_covariance(sig, theta)
        sig = scale_covariance(sig, scale)
        covs[j] = (sig.a, sig.b, sig.c)
    return covs


class TestTransformedSources:
    def test_matches_per_joint_loop_bitwise(self):
        rng = RngStream(930, 0)
        for case in range(300):
            joints = int(rng.integers(1, 30))
            sources = []
            for _ in range(2):
                arr = rng.standard_normal((joints, 2, 2)) * 10.0 ** rng.uniform(-1, 2)
                spd = arr @ arr.transpose(0, 2, 1) + 0.05 * np.eye(2)
                covs = np.stack([spd[:, 0, 0], spd[:, 0, 1], spd[:, 1, 1]], axis=1)
                sources.append(KeypointObservation(
                    rng.standard_normal((joints, 2)), covs, rng.uniform(size=joints) < 0.8))
            theta = float(rng.uniform(-4.0, 4.0)) if case % 3 else 0.0
            scale = float(10.0 ** rng.uniform(-2, 2)) if case % 2 else 1.0
            cfg = sampler.GuidanceConfig(cov_scale=scale, cov_rotate=theta)
            got = sampler._transformed_sources(sources, cfg, joints)
            for src, out in zip(sources, got):
                assert np.array_equal(out.covs, per_joint_edit(src, theta, scale))
                assert np.array_equal(out.means, src.means)
                assert np.array_equal(out.valid, src.valid)

    def test_no_edit_returns_sources(self):
        src = KeypointObservation(np.zeros((3, 2)), np.tile([4.0, 1.0, 2.0], (3, 1)),
                                  np.ones(3, dtype=bool))
        assert sampler._transformed_sources(src, sampler.GuidanceConfig(), 3) == [src]
