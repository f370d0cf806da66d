import re
import tracemalloc

import numpy as np
import pytest

from poseprior import dataio
from poseprior.denoiser import DenoiserModel, make_eval_forward
from poseprior.errors import (
    FormatError,
    ParseError,
    SchemaError,
    VersionError,
)
from poseprior.geometry import Camera, Pose, RootEstimate, project
from poseprior.numeric import RngStream
from poseprior.observation import FALLBACK_SIGMA_PX, Heatmap, KeypointObservation
from poseprior.schedule import cosine_schedule


def small_dataset(n=3, joints=4):
    rng = RngStream(80, 0)
    poses = 50.0 * rng.standard_normal((n, joints, 3))
    poses[:, 0, :] = 0.0
    names = tuple(f"j{i}" for i in range(joints))
    return dataio.PoseDataset(names, poses, [{"frame_id": f"f{i}"} for i in range(n)])


class TestPoseFile:
    def test_round_trip(self, tmp_path):
        ds = small_dataset()
        path = tmp_path / "poses.jsonl"
        dataio.save_poses(ds, path)
        back = dataio.load_poses(path)
        assert back.joint_names == ds.joint_names
        assert np.array_equal(back.poses, ds.poses)
        assert back.meta == ds.meta

    def test_empty_dataset(self, tmp_path):
        ds = dataio.PoseDataset(("a", "b"), np.zeros((0, 2, 3)))
        path = tmp_path / "empty.jsonl"
        dataio.save_poses(ds, path)
        back = dataio.load_poses(path)
        assert back.num_poses == 0
        assert back.num_joints == 2

    def test_root_not_at_origin_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"format":"poseprior/poses","version":1,"J":2,"joint_names":["a","b"],"root_index":0}'
        path.write_text(header + '\n{"joints":[1,0,0,0,0,0]}\n')
        with pytest.raises(SchemaError):
            dataio.load_poses(path)

    def test_root_index_other_than_0_rejected(self, tmp_path):
        path = tmp_path / "rooted.jsonl"
        header = '{"format":"poseprior/poses","version":1,"J":2,"joint_names":["a","b"],"root_index":1}'
        path.write_text(header + '\n{"joints":[5,0,0,0,0,0]}\n')
        with pytest.raises(SchemaError, match="root_index must be 0, got 1"):
            dataio.load_poses(path)

    def test_header_records_root_0(self, tmp_path):
        path = tmp_path / "poses.jsonl"
        dataio.save_poses(small_dataset(), path)
        assert '"root_index":0' in path.read_text().splitlines()[0]

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"format":"poseprior/poses","version":1,"J":2,"joint_names":["a","b"],"root_index":0}'
        path.write_text(header + '\n{"joints":[0,0,0,0,0,0]}\nnot json\n')
        with pytest.raises(ParseError, match="line 3"):
            dataio.load_poses(path)

    def test_wrong_coordinate_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"format":"poseprior/poses","version":1,"J":2,"joint_names":["a","b"],"root_index":0}'
        path.write_text(header + '\n{"joints":[0,0,0]}\n')
        with pytest.raises(SchemaError):
            dataio.load_poses(path)

    @pytest.mark.parametrize("record,named", [
        ('[1,2]', "line 3: a pose record must be a JSON object"),
        ('{"joints":[0,0,0,0,0,0],"meta":[1]}', 'line 3: "meta" must be a JSON object'),
        ('{"joints":[0,0,0,"x",0,0]}', "line 3: bad joint coordinates"),
    ], ids=["not-object", "meta-not-object", "non-numeric"])
    def test_bad_record_names_line(self, tmp_path, record, named):
        path = tmp_path / "bad.jsonl"
        header = '{"format":"poseprior/poses","version":1,"J":2,"joint_names":["a","b"],"root_index":0}'
        path.write_text(header + '\n{"joints":[0,0,0,0,0,0]}\n' + record + "\n")
        with pytest.raises(SchemaError, match=re.escape(named)):
            dataio.load_poses(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format":"something/else","version":1}\n')
        with pytest.raises(SchemaError):
            dataio.load_poses(path)


def one_record(sigma=2.0, with_cov=True, with_root_cov=True, gt=True):
    cam = Camera(1100.0, 1100.0, 500.0, 500.0)
    joints = 4
    rng = RngStream(81, 0)
    rel = 100.0 * rng.standard_normal((joints, 3))
    rel[0] = 0.0
    root = np.array([10.0, 20.0, 4000.0])
    gt_pose = Pose(rel + root, "absolute_camera")
    means = project(gt_pose.joints, cam)
    covs = np.tile([sigma**2, 0.0, sigma**2], (joints, 1))
    obs = KeypointObservation(means, covs, np.ones(joints, dtype=bool))
    rec = dataio.ObservationRecord(
        frame_id="f0", camera=cam, keypoints=obs,
        root=RootEstimate(root, np.array([100.0, 100.0, 400.0])),
        gt_pose=gt_pose if gt else None,
        cov_fallback_joints=() if with_cov else (0, 1, 2, 3),
        root_cov_fallback=not with_root_cov,
    )
    return rec


class TestObservationFile:
    def test_round_trip(self, tmp_path):
        rec = one_record()
        path = tmp_path / "obs.jsonl"
        dataio.save_observations([rec], path, ["a", "b", "c", "d"])
        back = dataio.load_observations(path)
        assert len(back) == 1
        got = back[0]
        assert got.frame_id == "f0"
        assert got.camera == rec.camera
        assert np.array_equal(got.keypoints.means, rec.keypoints.means)
        assert np.array_equal(got.keypoints.covs, rec.keypoints.covs)
        assert np.array_equal(got.root.mean, rec.root.mean)
        assert np.array_equal(got.root.cov, rec.root.cov)
        assert np.array_equal(got.gt_pose.joints, rec.gt_pose.joints)
        assert got.cov_fallback_joints == ()

    def test_missing_cov_gets_fallback(self, tmp_path):
        rec = one_record(with_cov=False)
        path = tmp_path / "obs.jsonl"
        dataio.save_observations([rec], path, ["a", "b", "c", "d"])
        got = dataio.load_observations(path)[0]
        assert got.cov_fallback_joints == (0, 1, 2, 3)
        want = [FALLBACK_SIGMA_PX**2, 0.0, FALLBACK_SIGMA_PX**2]
        assert np.allclose(got.keypoints.covs, np.tile(want, (4, 1)))

    def test_missing_root_cov_gets_default(self, tmp_path):
        rec = one_record(with_root_cov=False)
        path = tmp_path / "obs.jsonl"
        dataio.save_observations([rec], path, ["a", "b", "c", "d"])
        got = dataio.load_observations(path)[0]
        assert got.root_cov_fallback
        assert np.array_equal(got.root.cov, np.array(dataio.DEFAULT_ROOT_COV))

    def test_non_pd_cov_rejected(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":1,"joint_names":["a"]}'
        rec = ('{"frame_id":"f0","camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"cov":[1,5,1],"valid":true}],'
               '"root":{"mean":[0,0,0]}}')
        path.write_text(header + "\n" + rec + "\n")
        with pytest.raises(SchemaError):
            dataio.load_observations(path)

    @pytest.mark.parametrize("keypoint,message", [
        ('{"cov":[1,0,1],"valid":true}', "line 3: keypoint 1 is valid but has no mean"),
        ('{"mean":[NaN,0],"cov":[1,0,1],"valid":true}', r"line 3: non-finite .* \[1\]"),
        ('{"mean":[0,0],"cov":[1,0,Infinity],"valid":true}', r"line 3: non-finite .* \[1\]"),
    ], ids=["no-mean", "nan-mean", "inf-cov"])
    def test_bad_valid_keypoint_rejected_with_line_and_joint(self, tmp_path, keypoint, message):
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":2,"joint_names":["a","b"]}'
        rec = ('{"frame_id":"f%d","camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"valid":true},%s],"root":{"mean":[0,0,0]}}')
        good = rec % (0, '{"mean":[1,1],"valid":true}')
        path.write_text("\n".join([header, good, rec % (1, keypoint)]) + "\n")
        with pytest.raises(SchemaError, match=message):
            dataio.load_observations(path)

    def test_invalid_keypoint_may_omit_mean(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":2,"joint_names":["a","b"]}'
        rec = ('{"frame_id":"f0","camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"valid":true},{"valid":false}],'
               '"root":{"mean":[0,0,0]}}')
        path.write_text(header + "\n" + rec + "\n")
        got = dataio.load_observations(path)[0]
        assert got.keypoints.valid.tolist() == [True, False]


class TestHeatmapFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = RngStream(82, 0)
        values = np.abs(rng.standard_normal((5, 7))).astype(np.float32).astype(np.float64)
        hm = Heatmap(7, 5, values, np.array([2.0, 3.0]), 2.0)
        path = tmp_path / "h.hmp"
        dataio.save_heatmap(hm, path)
        back = dataio.load_heatmap(path)
        assert back.width == 7 and back.height == 5
        assert np.array_equal(back.values, hm.values)
        assert np.array_equal(back.origin, hm.origin)
        assert back.stride == 2.0
        dataio.save_heatmap(back, tmp_path / "h2.hmp")
        assert (tmp_path / "h.hmp").read_bytes() == (tmp_path / "h2.hmp").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hmp"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            dataio.load_heatmap(path)

    def test_truncation(self, tmp_path):
        hm = Heatmap(4, 4, np.ones((4, 4)))
        path = tmp_path / "h.hmp"
        dataio.save_heatmap(hm, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            dataio.load_heatmap(path)

    def test_negative_values_rejected(self, tmp_path):
        path = tmp_path / "h.hmp"
        import struct
        blob = dataio.HEATMAP_MAGIC + struct.pack("<HH", 1, 1)
        blob += struct.pack("<fff", 0.0, 0.0, 1.0)
        blob += np.array([-1.0], dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            dataio.load_heatmap(path)

    def test_one_by_one_loads(self, tmp_path):
        hm = Heatmap(1, 1, np.array([[2.0]]))
        path = tmp_path / "h.hmp"
        dataio.save_heatmap(hm, path)
        assert dataio.load_heatmap(path).values[0, 0] == 2.0


class TestCheckpoint:
    def make_model(self):
        sched = cosine_schedule(20, 0.008)
        model = DenoiserModel.initialize(3, 8, sched, RngStream(83, 0))
        model.norm_mean = RngStream(83, 1).standard_normal(9)
        model.norm_std = np.abs(RngStream(83, 2).standard_normal(9)) + 0.5
        return model

    def test_round_trip_forward_identical(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(model, path)
        back = dataio.load_checkpoint(path)
        x = RngStream(84, 0).standard_normal((3, 9))
        assert np.array_equal(make_eval_forward(model)(x, 7), make_eval_forward(back)(x, 7))
        assert np.array_equal(model.norm_mean, back.norm_mean)
        assert back.sched.T == 20
        assert back.adam_steps == model.adam_steps
        for key in model.params:
            assert np.array_equal(model.params[key], back.params[key])
            assert np.array_equal(model.ema_params[key], back.ema_params[key])
            assert np.array_equal(model.adam_m[key], back.adam_m[key])

    def test_save_load_save_bytes_stable(self, tmp_path):
        model = self.make_model()
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        dataio.save_checkpoint(model, p1)
        dataio.save_checkpoint(dataio.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_rejected(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:-17])
        with pytest.raises(FormatError):
            dataio.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            dataio.load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with pytest.raises(FormatError):
            dataio.load_checkpoint(path)


    def test_size_checked_before_reading(self, tmp_path):
        model = self.make_model()
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob + b"\x00")
        with pytest.raises(FormatError, match=f"is {len(blob) + 1} bytes, expected {len(blob)}"):
            dataio.load_checkpoint(path)
        path.write_bytes(blob[:20])
        with pytest.raises(FormatError, match="truncated checkpoint header"):
            dataio.load_checkpoint(path)

    def test_load_never_holds_the_whole_file(self, tmp_path):
        # tensors are read one at a time: the load's peak allocation is the
        # model plus one tensor, not the model plus the file's bytes
        sched = cosine_schedule(4, 0.008)
        model = DenoiserModel.initialize(17, 256, sched, RngStream(85, 0))
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(model, path)
        tracemalloc.start()
        try:
            back = dataio.load_checkpoint(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        model_bytes = sum(v.nbytes for group in (back.params, back.ema_params, back.adam_m,
                                                 back.adam_v, back.bn_stats)
                          for v in group.values())
        largest = max(v.nbytes for v in back.params.values())
        assert peak < model_bytes + 2 * largest
        assert path.stat().st_size > 2 * largest


class TestSynthetic:
    def test_zero_angle_limits_rest_pose(self):
        cfg = dataio.SyntheticSkeletonConfig(
            angle_limits=tuple((0.0, 0.0, 0.0) for _ in range(17)),
            n_train=5, n_eval=1, seed=1)
        train, _, _ = dataio.generate_synthetic(cfg)
        for i in range(1, 5):
            assert np.array_equal(train.poses[i], train.poses[0])

    def test_bone_lengths_preserved(self):
        cfg = dataio.SyntheticSkeletonConfig(n_train=20, n_eval=1, seed=2)
        train, _, _ = dataio.generate_synthetic(cfg)
        for pose in train.poses:
            for j in range(1, 17):
                p = cfg.parents[j]
                length = np.linalg.norm(pose[j] - pose[p])
                assert length == pytest.approx(cfg.bone_lengths[j], rel=1e-9)

    def test_root_at_origin(self):
        cfg = dataio.SyntheticSkeletonConfig(n_train=10, n_eval=2, seed=3)
        train, heldout, _ = dataio.generate_synthetic(cfg)
        assert np.all(train.poses[:, 0, :] == 0.0)
        assert np.all(heldout.poses[:, 0, :] == 0.0)

    def test_observation_noise_matches_declared_covariance(self):
        cfg = dataio.SyntheticSkeletonConfig(n_train=1, n_eval=600, seed=4,
                                             obs_sigma_px=2.0)
        _, heldout, records = dataio.generate_synthetic(cfg)
        residuals = []
        for rec in records:
            proj = project(rec.gt_pose.joints, rec.camera)
            residuals.append(rec.keypoints.means - proj)
        res = np.concatenate(residuals)  # (600*17, 2)
        emp = np.cov(res.T, bias=True)
        assert np.allclose(np.diag(emp), [4.0, 4.0], rtol=0.10)
        assert abs(emp[0, 1]) < 0.4

    def test_self_consistent_reprojection_scale(self):
        from poseprior.cli import _mean_reprojection
        from poseprior.geometry import to_root_relative
        from poseprior.sampler import HypothesisSet
        cfg = dataio.SyntheticSkeletonConfig(n_train=1, n_eval=200, seed=5,
                                             obs_sigma_px=3.0)
        _, _, records = dataio.generate_synthetic(cfg)
        errs = [_mean_reprojection(HypothesisSet([to_root_relative(r.gt_pose)],
                                                 r.gt_pose.joints[:1]), r.keypoints, r.camera)
                for r in records]
        # mean norm of an isotropic 2D Gaussian is sigma * sqrt(pi/2)
        want = 3.0 * np.sqrt(np.pi / 2.0)
        assert np.mean(errs) == pytest.approx(want, rel=0.10)

    def test_invalid_tree_rejected(self):
        with pytest.raises(ValueError):
            dataio.SyntheticSkeletonConfig(parents=(0, 0), bone_lengths=(0.0, 100.0),
                                           rest_dirs=((0, 0, 0), (0, 1, 0)),
                                           angle_limits=((0, 0, 0), (0, 0, 0)),
                                           joint_names=("a", "b"))
        with pytest.raises(ValueError):
            dataio.SyntheticSkeletonConfig(parents=(-1, 2, 1), bone_lengths=(0, 1, 1),
                                           rest_dirs=((0, 0, 0),) * 3,
                                           angle_limits=((0, 0, 0),) * 3,
                                           joint_names=("a", "b", "c"))

    def test_deterministic(self):
        cfg = dataio.SyntheticSkeletonConfig(n_train=10, n_eval=2, seed=42)
        a = dataio.generate_synthetic(cfg)
        b = dataio.generate_synthetic(cfg)
        assert np.array_equal(a[0].poses, b[0].poses)
        assert np.array_equal(a[2][0].keypoints.means, b[2][0].keypoints.means)
