import copy
import dataclasses
import re
import subprocess
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor

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
        assert np.array_equal(a.joints, b.joints)

    def test_root_relative_output(self, toy_world):
        hyp = sampler.sample_unconditional(toy_world.model, None, RngStream(72, 0), 3)
        assert np.all(hyp.joints[:, 0] == 0.0)
        for pose in hyp.poses:
            assert pose.frame == "root_relative"

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
        devs = np.linalg.norm(hyp.joints - single.poses[0], axis=2).mean(axis=1)
        assert np.mean(devs) < 0.10 * scale


class TestHypothesisSet:
    def joints(self, m=3, j=4):
        arr = RngStream(60, 0).standard_normal((m, j, 3))
        return arr - arr[:, :1]

    def test_joints_are_a_read_only_copy(self):
        arr = self.joints()
        hyp = sampler.HypothesisSet(arr, np.zeros((3, 3)))
        assert np.array_equal(hyp.joints, arr)
        with pytest.raises(ValueError, match="read-only"):
            hyp.joints[0, 1, 0] = 1.0
        arr[0, 1, 0] = 5.0  # the caller's array stays its own
        assert hyp.joints[0, 1, 0] != 5.0
        assert len(hyp) == 3

    @pytest.mark.parametrize("case,message", [
        ("two-coordinate joints", r"joints must be \(M, J, 3\), got \(3, 4, 2\)"),
        ("one pose", r"joints must be \(M, J, 3\), got \(4, 3\)"),
        ("no hypotheses", r"joints must be \(M, J, 3\), got \(0, 4, 3\)"),
        ("nan", "non-finite joint coordinates"),
        ("inf", "non-finite joint coordinates"),
        ("root off the origin", "root-relative pose must have the root joint at the origin"),
    ])
    def test_rejects_what_pose_rejects(self, case, message):
        arr = self.joints()
        arr = {"two-coordinate joints": arr[..., :2], "one pose": arr[0],
               "no hypotheses": arr[:0]}.get(case, arr)
        if case in ("nan", "inf"):
            arr[2, 3, 1] = np.nan if case == "nan" else np.inf
        if case == "root off the origin":
            arr[1, 0, 2] = 1e-9
        with pytest.raises(ValueError, match=message):
            sampler.HypothesisSet(arr, np.zeros((3, 3)))

    def test_sampled_joints_equal_the_pose_view_bitwise(self, toy_world):
        rec = toy_world.records[2]
        cfg = sampler.GuidanceConfig(num_hypotheses=5, seed=61)
        hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints, rec.camera,
                                    rec.root, cfg)
        assert hyp.joints.shape == (5, toy_world.model.joints, 3)
        assert np.array_equal(hyp.joints, np.stack([p.joints for p in hyp.poses]))
        assert np.array_equal(np.asarray(hyp), hyp.joints)

    def test_overflowing_final_pose_is_a_divergence(self):
        # the last state is finite, but denormalizing it overflows: that is
        # a divergence at step 0 naming a hypothesis, not a bad input
        sched = cosine_schedule(5, 0.008)
        model = denoiser.DenoiserModel.initialize(5, 8, sched, RngStream(62, 0))
        model.norm_std = np.full(15, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="non-finite final pose in hypothesis"
                               ) as exc:
                sampler.sample_unconditional(model, None, RngStream(62, 1), 4)
        assert exc.value.step == 0
        assert exc.value.diagnostics["hypothesis"] in range(4)


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
        assert np.array_equal(same.joints, default.joints)


class TestGuided:
    def test_gamma_zero_equals_unconditional_bitwise(self, toy_world):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=0.0, num_hypotheses=5, seed=901)
        guided = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                       rec.camera, rec.root, cfg)
        uncond = sampler.sample_unconditional(toy_world.model, None, RngStream(901, 0), 5)
        assert np.array_equal(guided.joints, uncond.joints)

    def test_hypotheses_independent_of_batch(self, toy_world):
        # reruns are identical, and hypothesis m of a batch equals the lone
        # hypothesis drawn on stream m: a row never depends on its batch
        rec = toy_world.records[0]
        tight = KeypointObservation(rec.keypoints.means,
                                    np.tile([0.5, 0.1, 0.7], (toy_world.skel.num_joints, 1)),
                                    rec.keypoints.valid)
        cases = {
            "x0hat": (rec.keypoints, {}),
            "xt": (rec.keypoints, {"grad_space": sampler.GRAD_XT}),
            "alg1": (rec.keypoints, {"renoise_variant": sampler.RENOISE_ALG1}),
            "tight covariance": (tight, {}),
        }

        def run(obs, extra, m, offset=0):
            cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=m, seed=902,
                                         stream_offset=offset, **extra)
            hyp = sampler.sample_guided(toy_world.model, None, obs, rec.camera,
                                        rec.root, cfg)
            return hyp.joints, hyp.roots

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

        def poisoned(model, helper):
            eval_fn = make_eval(model, helper)

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
        tight = KeypointObservation(rec.keypoints.means,
                                    np.tile([0.25, 0.0, 0.25], (toy_world.skel.num_joints, 1)),
                                    rec.keypoints.valid)
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=20, seed=904)
        guided = sampler.sample_guided(toy_world.model, None, tight, rec.camera,
                                       rec.root, cfg)
        free = sampler.sample_guided(
            toy_world.model, None, tight, rec.camera, rec.root,
            sampler.GuidanceConfig(gamma=0.0, num_hypotheses=20, seed=904))
        assert (_mean_reprojection(guided, rec.keypoints, rec.camera)
                < _mean_reprojection(free, rec.keypoints, rec.camera))

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
        assert np.all(np.isfinite(hyp.joints))
        for pose in hyp.poses:
            assert pose.frame == "root_relative"

    @pytest.mark.parametrize("case", ["behind_camera", "nonfinite_grad"])
    def test_skip_counts_kept_apart(self, toy_world, monkeypatch, case):
        # behind-camera joints and zeroed non-finite gradients are counted
        # under their own keys; each case here triggers only its own
        rec = toy_world.records[0]
        depth = -8000.0 if case == "behind_camera" else 1e6
        root = RootEstimate(np.array([0.0, 0.0, depth]), np.zeros(3))
        if case == "nonfinite_grad":
            kernel = sampler.grad_and_residual

            def poisoned(joints, obs, cam):
                g, residual = kernel(joints, obs, cam)
                g[[0, 1], [1, 3]] = np.nan                # joint 1 of row 0, joint 3 of row 1
                return g, residual
            monkeypatch.setattr(sampler, "grad_and_residual", poisoned)
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
        assert np.all(np.isfinite(hyp.joints))

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
        assert np.all(np.isfinite(hyp.joints))

    def test_one_projection_per_step_and_no_per_source_path(self, toy_world, monkeypatch):
        # the guidance step projects the (M, J, 3) joints once, in one
        # grad_and_residual call, and does not go through the per-pose
        # log_likelihood_grad + sum_sources route
        calls = []
        grad_and_residual = sampler.grad_and_residual
        monkeypatch.setattr(sampler, "grad_and_residual",
                            lambda p, o, cam: calls.append(p.shape) or grad_and_residual(p, o, cam))

        def unused(*args):
            raise AssertionError("per-source gradient path called")
        monkeypatch.setattr(sampler, "log_likelihood_grad", unused)
        monkeypatch.setattr(sampler, "sum_sources", unused)
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(num_hypotheses=3, seed=909)
        sampler.sample_guided(toy_world.model, None, rec.keypoints, rec.camera, rec.root, cfg)
        assert calls == [(3, toy_world.model.joints, 3)] * toy_world.model.sched.T

    def test_renoise_variants_differ(self, toy_world):
        rec = toy_world.records[0]
        out = {}
        for variant in (sampler.RENOISE_EQ2, sampler.RENOISE_ALG1):
            cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=2, seed=907,
                                         renoise_variant=variant)
            hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                        rec.camera, rec.root, cfg)
            out[variant] = hyp.joints
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
        with pytest.raises(ValueError, match="^cov_scale must be > 0, got 0.0$"):
            one_joint_observation().edited(cov_scale=0.0)
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(num_hypotheses=0)
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(renoise_variant="bogus")
        with pytest.raises(ValueError):
            sampler.GuidanceConfig(grad_space="bogus")

    @pytest.mark.parametrize("field", ["gamma", "cov_scale", "cov_rotate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite(self, field, value):
        # gamma is a sampler setting; cov_scale and cov_rotate edit the observation
        settings = sampler.GuidanceConfig if field == "gamma" else one_joint_observation().edited
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            settings(**{field: value})

    def test_joint_count_mismatch_rejected(self, toy_world):
        from poseprior.observation import KeypointObservation
        bad = KeypointObservation(np.zeros((3, 2)),
                                  np.tile([1.0, 0.0, 1.0], (3, 1)),
                                  np.ones(3, dtype=bool))
        cfg = sampler.GuidanceConfig(num_hypotheses=1, seed=1)
        with pytest.raises(ValueError):
            sampler.sample_guided(toy_world.model, None, bad, toy_world.records[0].camera,
                                  toy_world.records[0].root, cfg)


class TestHelperThread:
    """Eval products split between the caller and one helper thread (`denoiser.helper_thread`)."""

    @staticmethod
    def count_splits(monkeypatch, cpus):
        """Let the process see ``cpus`` usable CPUs; return the list each split appends to."""
        monkeypatch.setattr(denoiser.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        submit, splits = ThreadPoolExecutor.submit, []

        def counted(self, *args, **kwargs):
            splits.append(1)
            return submit(self, *args, **kwargs)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
        return splits

    @staticmethod
    def hidden_256():
        return denoiser.DenoiserModel.initialize(17, 256, cosine_schedule(10, 0.008),
                                                 RngStream(960, 0))

    def test_split_keeps_hypotheses_and_joins_its_thread(self, toy_world, monkeypatch):
        # at M = 16 the four 256 x 256 linears reach SPLIT_MADDS (2^20) and split;
        # the 51 x 256 input linear stays under it, and the output linear is one panel
        model, rec = self.hidden_256(), toy_world.records[0]
        cfg = sampler.GuidanceConfig(num_hypotheses=16, seed=961)
        threads = threading.active_count()
        runs = {}
        for cpus in (1, 2):
            splits = self.count_splits(monkeypatch, cpus)
            runs[cpus] = sampler.sample_guided(model, None, rec.keypoints, rec.camera,
                                               rec.root, cfg)
            assert len(splits) == (cpus - 1) * 4 * model.sched.T
            assert threading.active_count() == threads
        assert np.array_equal(runs[1].joints, runs[2].joints)
        assert np.array_equal(runs[1].roots, runs[2].roots)
        assert runs[1].diagnostics == runs[2].diagnostics

    def test_divergence_joins_the_helper(self, toy_world, monkeypatch):
        model, rec = self.hidden_256(), toy_world.records[0]
        model.ema_params["b2_l2_w"] = np.full_like(model.ema_params["b2_l2_w"], np.inf)
        splits = self.count_splits(monkeypatch, 2)
        threads = threading.active_count()
        cfg = sampler.GuidanceConfig(num_hypotheses=16, seed=962)
        # the caller's errstate holds in the helper, which multiplies the inf panels
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            sampler.sample_guided(model, None, rec.keypoints, rec.camera, rec.root, cfg)
        assert exc.value.step == model.sched.T
        assert splits and threading.active_count() == threads

    def test_toy_size_starts_no_thread_and_imports_nothing(self):
        # every linear of a hidden-64 model is one panel, so no product splits
        code = (
            "import sys, threading\n"
            "from poseprior import denoiser, sampler\n"
            "from poseprior.numeric import RngStream\n"
            "from poseprior.schedule import cosine_schedule\n"
            "model = denoiser.DenoiserModel.initialize(17, 64, cosine_schedule(10, 0.008),\n"
            "                                          RngStream(963, 0))\n"
            "sampler.sample_unconditional(model, None, RngStream(963, 1), 50)\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "1"]


class TestTrustRegionCounts:
    def test_huge_gamma_clips_every_live_joint_step(self, toy_world, monkeypatch):
        # at gamma 1e10 every raw step is far beyond its bound, so each live
        # joint-step (observed, in front of the camera) is counted once, under
        # the cap or the residual bound. The root is left out: its normalized
        # std is the floor NORM_STD_FLOOR, so its step is about 1e-6 mm.
        rec = toy_world.records[0]
        m, joints = 4, toy_world.model.joints
        moving = np.arange(joints) > 0
        live = []
        kernel = sampler.grad_and_residual

        def spy(abs_joints, obs, cam):
            live.append(int(np.sum((abs_joints[..., 2] > 0.0) & obs.valid & moving)))
            return kernel(abs_joints, obs, cam)
        monkeypatch.setattr(sampler, "grad_and_residual", spy)
        cfg = sampler.GuidanceConfig(gamma=1e10, num_hypotheses=m, seed=910)
        counts = sampler.sample_guided(toy_world.model, None, rec.keypoints, rec.camera,
                                       rec.root, cfg).diagnostics
        assert len(live) == toy_world.model.sched.T
        assert counts["nonfinite_grad_zeroed"] == 0
        assert counts["trust_region_cap"] > 0
        assert counts["trust_region_cap"] + counts["trust_region_residual"] == sum(live)

    @pytest.mark.parametrize("grad_space", [sampler.GRAD_X0HAT, sampler.GRAD_XT])
    def test_gamma_zero_counts_nothing(self, toy_world, grad_space):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=0.0, num_hypotheses=3, seed=911,
                                     grad_space=grad_space)
        counts = sampler.sample_guided(toy_world.model, None, rec.keypoints, rec.camera,
                                       rec.root, cfg).diagnostics
        assert counts == {"behind_camera_skips": 0, "nonfinite_grad_zeroed": 0,
                          "trust_region_cap": 0, "trust_region_residual": 0}

    def test_default_gamma_clips_mostly_at_the_cap(self, toy_world):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(num_hypotheses=5, seed=912)
        counts = sampler.sample_guided(toy_world.model, None, rec.keypoints, rec.camera,
                                       rec.root, cfg).diagnostics
        assert counts["trust_region_cap"] > counts["trust_region_residual"]


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
        assert np.array_equal(hyp.joints, uncond.joints)

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
        assert np.array_equal(h1.joints, h2.joints)


class TestBestOfM:
    def test_nested_streams_monotone(self, toy_world):
        rec = toy_world.records[0]
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=12, seed=911)
        hyp = sampler.sample_guided(toy_world.model, None, rec.keypoints,
                                    rec.camera, rec.root, cfg)
        values = [metrics.best_of_m(hyp.joints[:m], rec.gt_pose) for m in (1, 3, 6, 12)]
        assert all(values[i + 1] <= values[i] for i in range(3))

    def test_prefix_equals_smaller_run(self, toy_world):
        rec = toy_world.records[0]
        small = sampler.sample_guided(
            toy_world.model, None, rec.keypoints, rec.camera, rec.root,
            sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=2, seed=912))
        big = sampler.sample_guided(
            toy_world.model, None, rec.keypoints, rec.camera, rec.root,
            sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=5, seed=912))
        assert np.array_equal(small.joints, big.joints[:2])


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
                assert np.array_equal(new.joints, old.joints)
                assert np.array_equal(new.roots, old.roots)
                assert new.diagnostics == old.diagnostics


class TestDiversitySweep:
    def test_single_value_matches_direct(self, toy_world):
        rec = toy_world.soft_records[0]
        cfg = sampler.GuidanceConfig(gamma=2e-4, num_hypotheses=8, seed=913)
        rows = sampler.diversity_sweep(toy_world.model, None, rec.keypoints,
                                       rec.camera, rec.root, cfg, [2.0])
        doubled = KeypointObservation(rec.keypoints.means, 2.0 * rec.keypoints.covs,
                                      rec.keypoints.valid)
        direct = sampler.sample_guided(toy_world.model, None, doubled, rec.camera, rec.root, cfg)
        assert len(rows) == 1
        assert rows[0][0] == 2.0
        assert rows[0][1] == pytest.approx(metrics.per_joint_std(direct), abs=1e-12)

    def test_builds_the_prior_once_for_all_scales(self, toy_world, monkeypatch):
        original, builds = denoiser.build_eval_form, []

        def spy(*args, **kwargs):
            builds.append(1)
            return original(*args, **kwargs)
        monkeypatch.setattr(denoiser, "build_eval_form", spy)
        rec = toy_world.soft_records[0]
        cfg = sampler.GuidanceConfig(num_hypotheses=2, seed=914)
        rows = sampler.diversity_sweep(toy_world.model, None, rec.keypoints, rec.camera,
                                       rec.root, cfg, [0.5, 1.0, 2.0])
        assert len(rows) == 3 and len(builds) == 1

    def test_rejects_nonpositive_scale(self, toy_world):
        rec = toy_world.soft_records[0]
        cfg = sampler.GuidanceConfig(num_hypotheses=2, seed=1)
        with pytest.raises(ValueError):
            sampler.diversity_sweep(toy_world.model, None, rec.keypoints,
                                    rec.camera, rec.root, cfg, [1.0, -2.0])


def one_joint_observation():
    return KeypointObservation(np.zeros((1, 2)), [[4.0, 1.0, 3.0]], [True])


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
    """The covariance edit the sampler's callers apply: `KeypointObservation.edited`."""

    def test_matches_per_joint_loop_bitwise(self):
        rng = RngStream(930, 0)
        for case in range(300):
            joints = int(rng.integers(1, 30))
            arr = rng.standard_normal((joints, 2, 2)) * 10.0 ** rng.uniform(-1, 2)
            spd = arr @ arr.transpose(0, 2, 1) + 0.05 * np.eye(2)
            covs = np.stack([spd[:, 0, 0], spd[:, 0, 1], spd[:, 1, 1]], axis=1)
            src = KeypointObservation(
                rng.standard_normal((joints, 2)), covs, rng.uniform(size=joints) < 0.8)
            theta = float(rng.uniform(-4.0, 4.0)) if case % 3 else 0.0
            scale = float(10.0 ** rng.uniform(-2, 2)) if case % 2 else 1.0
            out = src.edited(scale, theta)
            assert np.array_equal(out.covs, per_joint_edit(src, theta, scale))
            assert np.array_equal(out.means, src.means)
            assert np.array_equal(out.valid, src.valid)

    def test_no_edit_returns_sources(self):
        src = KeypointObservation(np.zeros((3, 2)), np.tile([4.0, 1.0, 2.0], (3, 1)),
                                  np.ones(3, dtype=bool))
        assert src.edited() is src
        assert src.edited(cov_scale=1.0, cov_rotate=0.0) is src

    @pytest.mark.parametrize("scale,theta", [(1e308, 0.0), (1e300, 0.0), (1e155, 0.7),
                                             (1e-300, 0.0), (1e-170, 0.7)])
    def test_scale_out_of_float_range_names_cov_scale(self, scale, theta):
        # the scaled covariances, or their determinants, stop being finite and
        # positive; only the valid joints count
        covs = np.tile([4.0, 1.0, 3.0], (4, 1))
        src = KeypointObservation(np.zeros((4, 2)), covs, np.array([True, False, True, True]))
        message = f"cov_scale = {scale!r} takes the covariances of joints [0, 2, 3] out of"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                src.edited(scale, theta)

    def test_extreme_scale_in_range_keeps_the_edit(self):
        src = KeypointObservation(np.zeros((2, 2)), np.tile([4.0, 1.0, 3.0], (2, 1)),
                                  np.ones(2, dtype=bool))
        for scale in (1e150, 1e-150):
            got = src.edited(scale, 0.3)
            assert np.array_equal(got.covs, per_joint_edit(src, 0.3, scale))
