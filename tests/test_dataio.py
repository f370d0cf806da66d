import dataclasses
import json
import re
import struct
import tracemalloc

import numpy as np
import pytest

from poseprior import dataio
from poseprior.denoiser import (
    STAT_KEYS,
    DenoiserModel,
    ParamGroup,
    Prior,
    make_eval_forward,
    train,
)
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
        with pytest.raises(SchemaError, match=re.escape(
                f'{path}: line 1: header "root_index" must be 0, got 1')):
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

    @pytest.mark.parametrize("load", [dataio.load_poses, dataio.load_observations],
                             ids=["poses", "observations"])
    def test_non_utf8_byte_names_file_and_line(self, tmp_path, load):
        path = tmp_path / "bad.jsonl"
        header = '{"format":"poseprior/poses","version":1,"J":2,"joint_names":["a","b"],"root_index":0}'
        path.write_bytes(header.encode() + b'\n{"joints":[0,0,0,0,0,0]}\n{"meta":"\xfc"}\n')
        with pytest.raises(ParseError) as err:
            load(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}: line 3: not UTF-8 text (byte 0xfc)"

    def test_wrong_coordinate_count(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = '{"format":"poseprior/poses","version":1,"J":2,"joint_names":["a","b"],"root_index":0}'
        path.write_text(header + '\n{"joints":[0,0,0]}\n')
        with pytest.raises(SchemaError):
            dataio.load_poses(path)

    @pytest.mark.parametrize("record,named", [
        ('[1,2]', "line 3: a pose record must be a JSON object"),
        ('{"joints":[0,0,0,0,0,0],"meta":[1]}', 'line 3: "meta" must be a JSON object'),
        ('{"joints":[0,0,0,"x",0,0]}',
         'line 3: "joints" must be a list of 6 numbers, got [0, 0, 0, "x", 0, 0]'),
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

    @pytest.mark.parametrize("j", ["1.0", "true", "0", "-1", '"1"', "null"])
    def test_joint_count_must_be_an_integer(self, tmp_path, j):
        # 1.0 and true once matched the one joint name and reached np.zeros((0, J, 3))
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format":"poseprior/poses","version":1,"J":%s,"joint_names":["a"]}\n'
                        % j)
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: line 1: header J must be an integer >= 1, got {j}") + "$"):
            dataio.load_poses(path)


def one_record(sigma=2.0, gt=True):
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

    def test_missing_cov_gets_fallback(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":2,"joint_names":["a","b"]}'
        rec = ('{"frame_id":"f0","camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"valid":true},{"mean":[1,1],"cov":[4,1,9],'
               '"valid":true}],"root":{"mean":[0,0,0],"cov":[1,2,3]}}')
        path.write_text(header + "\n" + rec + "\n")
        got = dataio.load_observations(path)[0]
        want = [FALLBACK_SIGMA_PX**2, 0.0, FALLBACK_SIGMA_PX**2]
        assert np.array_equal(got.keypoints.covs, [want, [4.0, 1.0, 9.0]])
        assert np.array_equal(got.root.cov, [1.0, 2.0, 3.0])

    def test_missing_root_cov_gets_default(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":1,"joint_names":["a"]}'
        rec = ('{"frame_id":"f0","camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"cov":[4,1,9],"valid":true}],'
               '"root":{"mean":[0,0,0]}}')
        path.write_text(header + "\n" + rec + "\n")
        got = dataio.load_observations(path)[0]
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
        ('{"mean":[NaN,0],"cov":[1,0,1],"valid":true}',
         'line 3: keypoint 1: "mean" must be finite, got [NaN, 0]'),
        ('{"mean":[0,0],"cov":[1,0,Infinity],"valid":true}',
         'line 3: keypoint 1: "cov" must be finite, got [1, 0, Infinity]'),
    ], ids=["no-mean", "nan-mean", "inf-cov"])
    def test_bad_valid_keypoint_rejected_with_line_and_joint(self, tmp_path, keypoint, message):
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":2,"joint_names":["a","b"]}'
        rec = ('{"frame_id":"f%d","camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"valid":true},%s],"root":{"mean":[0,0,0]}}')
        good = rec % (0, '{"mean":[1,1],"valid":true}')
        path.write_text("\n".join([header, good, rec % (1, keypoint)]) + "\n")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {message}")):
            dataio.load_observations(path)

    @pytest.mark.parametrize("first,second,named", [
        ('"f0"', '"f0"', "f0"), ("1", '"1"', "1"),
    ], ids=["same-string", "number-and-string"])
    def test_repeated_frame_id_rejected_with_both_lines(self, tmp_path, first, second, named):
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":1,"joint_names":["a"]}'
        rec = ('{"frame_id":%s,"camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"valid":true}],"root":{"mean":[0,0,0]}}')
        path.write_text("\n".join([header, rec % first, rec % '"g"', rec % second]) + "\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: line 4: frame_id {named} repeats line 2") + "$"):
            dataio.load_observations(path)

    @pytest.mark.parametrize("flag", ['"false"', '"true"', "0", "1", "null", "[]"])
    def test_valid_flag_must_be_a_json_boolean(self, tmp_path, flag):
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":2,"joint_names":["a","b"]}'
        rec = ('{"frame_id":"f0","camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"valid":true},{"mean":[1,1],"valid":%s}],'
               '"root":{"mean":[0,0,0]}}')
        path.write_text(header + "\n" + rec % flag + "\n")
        with pytest.raises(SchemaError, match=re.escape(
                f'line 2: keypoint 1: "valid" must be true or false, got {json.loads(flag)!r}')):
            dataio.load_observations(path)

    @pytest.mark.parametrize("j", ["1.0", "true", "0", '"1"', "null"])
    def test_joint_count_must_be_an_integer(self, tmp_path, j):
        # true was reported at line 2 as a malformed record
        path = tmp_path / "obs.jsonl"
        header = '{"format":"poseprior/observations","version":1,"J":%s,"joint_names":["a"]}'
        rec = ('{"frame_id":"f0","camera":{"fx":1,"fy":1,"cx":0,"cy":0},'
               '"keypoints":[{"mean":[0,0],"valid":true}],"root":{"mean":[0,0,0]}}')
        path.write_text(header % j + "\n" + rec + "\n")
        with pytest.raises(SchemaError, match=re.escape(
                f"{path}: line 1: header J must be an integer >= 1, got {j}") + "$"):
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
        with pytest.raises(FormatError, match=re.escape(f"bad heatmap magic in {path}")):
            dataio.load_heatmap(path)

    def test_truncation(self, tmp_path):
        hm = Heatmap(4, 4, np.ones((4, 4)))
        path = tmp_path / "h.hmp"
        dataio.save_heatmap(hm, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError, match=re.escape(
                f"heatmap payload of {path} is 79 bytes, expected 84")):
            dataio.load_heatmap(path)
        path.write_bytes(blob[:12])
        with pytest.raises(FormatError, match=re.escape(f"truncated heatmap header in {path}")):
            dataio.load_heatmap(path)

    def test_negative_values_rejected(self, tmp_path):
        path = tmp_path / "h.hmp"
        blob = dataio.HEATMAP_MAGIC + struct.pack("<HH", 1, 1)
        blob += struct.pack("<fff", 0.0, 0.0, 1.0)
        blob += np.array([-1.0], dtype="<f4").tobytes()
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=re.escape(f"negative heatmap values in {path}")):
            dataio.load_heatmap(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_values_rejected_naming_file(self, tmp_path, value):
        values = np.ones((3, 4))
        values[2, 1] = value
        path = tmp_path / "h.hmp"
        dataio.save_heatmap(Heatmap(4, 3, values), path)
        with pytest.raises(FormatError, match=re.escape(f"non-finite heatmap values in {path}")):
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
        assert np.array_equal(make_eval_forward(model.prior())(x, 7),
                              make_eval_forward(back.prior())(x, 7))
        assert np.array_equal(model.norm_mean, back.norm_mean)
        assert back.sched.T == 20
        assert back.adam_steps == model.adam_steps
        for key in model.params:
            assert np.array_equal(model.params[key], back.params[key])
            assert np.array_equal(model.ema_params[key], back.ema_params[key])
            assert np.array_equal(model.adam_m[key], back.adam_m[key])

    def test_save_load_save_bytes_stable(self, tmp_path):
        # the trained model's parameters, EMA shadows and Adam moments all differ
        for model in (self.make_model(), self.trained_model()):
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


    @pytest.mark.parametrize("joints,hidden", [(3, 2), (3, 7), (0, 8)],
                             ids=["hidden-2", "hidden-odd", "no-joints"])
    def test_header_shape_initialize_refuses_is_refused(self, tmp_path, unchecked_model,
                                                        joints, hidden):
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(unchecked_model(joints, hidden), path)
        message = re.escape(f"checkpoint {path} header: ")
        for train_state in (True, False):
            with pytest.raises(FormatError, match=message):
                dataio.load_checkpoint(path, train_state=train_state)
        # the header is checked before the file size, so before any tensor
        path.write_bytes(path.read_bytes()[:dataio._CKPT_HEADER.size])
        with pytest.raises(FormatError, match=message):
            dataio.load_checkpoint(path)

    @pytest.mark.parametrize("at,fmt,value,detail", [
        (16, "<I", 0, "T must be >= 1, got 0"),
        (20, "<d", float("nan"), "offset must be in (0, 1), got nan"),
    ], ids=["T-0", "nan-offset"])
    def test_bad_schedule_in_header_names_the_file(self, tmp_path, at, fmt, value, detail):
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(self.make_model(), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into(fmt, blob, at, value)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=re.escape(f"checkpoint {path} header: {detail}")):
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

    def trained_model(self):
        """A model whose parameters, EMA and Adam moments all differ."""
        model = self.make_model()
        poses = 100.0 * RngStream(86, 0).standard_normal((16, 3, 3))
        poses[:, 0] = 0.0
        return train(model, poses, steps=3, batch_size=4, lr=1e-2, ema_decay=0.5,
                     rng=RngStream(86, 1))

    def test_sampling_state_equals_full_load(self, tmp_path):
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(self.trained_model(), path)
        full = dataio.load_checkpoint(path)
        back = dataio.load_checkpoint(path, train_state=False)
        assert type(full) is DenoiserModel and type(back) is Prior
        assert (back.joints, back.hidden_dim) == (3, 8)
        assert (back.sched.T, back.sched.offset) == (full.sched.T, full.sched.offset)
        assert np.array_equal(back.sched.alphabar, full.sched.alphabar)
        assert not np.array_equal(full.params["in_w"], full.ema_params["in_w"])
        assert np.array_equal(back.norm_mean, full.norm_mean)
        assert np.array_equal(back.norm_std, full.norm_std)
        # the form streamed at load, bit for bit the one the full load's prior() builds
        ref = full.prior()
        assert back.temb.dtype == ref.temb.dtype and np.array_equal(back.temb, ref.temb)
        assert back.weights.keys() == ref.weights.keys()
        for key in ref.weights:
            assert back.weights[key].dtype == ref.weights[key].dtype, key
            assert back.weights[key].shape == ref.weights[key].shape, key
            assert np.array_equal(back.weights[key], ref.weights[key]), key
        assert back.bn_pairs.keys() == ref.bn_pairs.keys()
        for layer in ref.bn_pairs:
            for a, b in zip(back.bn_pairs[layer], ref.bn_pairs[layer]):
                assert a.dtype == b.dtype and np.array_equal(a, b), layer
        for m in (1, 3):
            x = RngStream(87, m).standard_normal((m, 9))
            for t in (1, 7, 20):
                assert np.array_equal(make_eval_forward(back)(x, t),
                                      make_eval_forward(ref)(x, t)), (m, t)

    @pytest.mark.parametrize("edit", [
        lambda blob: blob[:-17],
        lambda blob: blob + b"\x00",
        lambda blob: blob[:20],
        lambda blob: b"XXXX" + blob[4:],
        lambda blob: blob[:4] + b"\x63" + blob[5:],
    ], ids=["truncated", "extended", "truncated-header", "bad-magic", "bad-version"])
    def test_sampling_state_rejects_what_full_load_rejects(self, tmp_path, edit):
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(self.make_model(), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises((FormatError, VersionError)) as full:
            dataio.load_checkpoint(path)
        with pytest.raises(full.type, match=f"^{re.escape(str(full.value))}$"):
            dataio.load_checkpoint(path, train_state=False)

    def test_sampling_state_cannot_be_saved_or_trained(self, tmp_path):
        # a Prior holds no weight group: saving it opens no file, and training it
        # raises before it sets the normalization statistics
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(self.make_model(), path)
        prior = dataio.load_checkpoint(path, train_state=False)
        norm_mean = prior.norm_mean.copy()
        with pytest.raises(AttributeError, match="'Prior' object has no attribute 'params'"):
            dataio.save_checkpoint(prior, tmp_path / "again.ckpt")
        assert not (tmp_path / "again.ckpt").exists()
        with pytest.raises(AttributeError, match="'Prior' object has no attribute 'params'"):
            train(prior, np.zeros((4, 3, 3)), steps=1, batch_size=2, lr=1e-3,
                  ema_decay=0.5, rng=RngStream(88, 0))
        assert np.array_equal(prior.norm_mean, norm_mean)

    def test_sampling_state_load_holds_only_the_eval_form(self, tmp_path, monkeypatch):
        # the parameters and Adam moments are skipped, and the EMA tensors
        # stream into the eval form through one float32 buffer of the
        # largest tensor: the peak allocation of the load and the closure is
        # what the prior holds plus the running statistics, that buffer
        # and SLACK for Python objects; the one group made is the running
        # statistics', and no weight group is made. Loading the float32 EMA
        # group and building the form from it needs the group's bytes more,
        # which is above the bound
        slack = 64 * 1024
        sched = cosine_schedule(64, 0.008)
        model = DenoiserModel.initialize(17, 256, sched, RngStream(85, 0))
        path = tmp_path / "m.ckpt"
        dataio.save_checkpoint(model, path)
        groups = []
        init = ParamGroup.__init__
        monkeypatch.setattr(ParamGroup, "__init__",
                            lambda self, *a, **k: groups.append(a) or init(self, *a, **k))
        tracemalloc.start()
        try:
            back = dataio.load_checkpoint(path, train_state=False)
            make_eval_forward(back)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [tuple(shapes) for shapes, *_ in groups] == [STAT_KEYS]
        assert type(back) is Prior
        held = (back.temb.nbytes + sum(w.nbytes for w in back.weights.values())
                + sum(a.nbytes for pair in back.bn_pairs.values() for a in pair)
                + 8 * len(STAT_KEYS) * 256 + back.norm_mean.nbytes + back.norm_std.nbytes)
        buffer = max(4 * v.size for v in model.ema_params.values())
        assert peak <= held + buffer + slack
        assert buffer + slack < model.ema_params.flat.nbytes
        assert path.stat().st_size > held + buffer + slack


def _loop_euler_rotation(angles):
    ax, ay, az = angles
    cx, sx = np.cos(ax), np.sin(ax)
    cy, sy = np.cos(ay), np.sin(ay)
    cz, sz = np.cos(az), np.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ ry @ rx


def _loop_forward_kinematics(angles):
    j = len(dataio._PARENTS)
    pos = np.zeros((j, 3))
    rot = [None] * j
    rot[0] = _loop_euler_rotation(angles[0])
    for i in range(1, j):
        p = dataio._PARENTS[i]
        rot[i] = rot[p] @ _loop_euler_rotation(angles[i])
        offset = dataio._BONE_LENGTHS[i] * np.asarray(dataio._REST_DIRS[i], dtype=np.float64)
        pos[i] = pos[p] + rot[i] @ offset
    return pos


def _loop_sample_poses(n, rng):
    """The per-pose reference: one ``uniform`` call and one kinematic walk per pose."""
    limits = np.asarray(dataio._ANGLE_LIMITS, dtype=np.float64)
    poses = np.zeros((n, len(dataio._PARENTS), 3))
    for k in range(n):
        angles = rng.uniform(-1.0, 1.0, limits.shape) * limits
        poses[k] = _loop_forward_kinematics(angles)
    return poses


class TestSynthetic:
    # "default" in the ids names the module's fixed skeleton
    @pytest.mark.parametrize("n", [0, 1, 2, 37], ids=lambda n: f"default-{n}")
    def test_batched_poses_equal_per_pose_loop_bitwise(self, n):
        for seed in range(10):
            rng, ref_rng = RngStream(seed, 1), RngStream(seed, 1)
            poses = dataio._sample_poses(n, rng)
            assert poses.shape == (n, dataio.SyntheticSkeletonConfig.num_joints, 3)
            assert np.array_equal(poses, _loop_sample_poses(n, ref_rng))
            # the stream is left where the loop leaves it
            assert rng.uniform() == ref_rng.uniform()

    def test_skeleton_is_a_tree_rooted_at_joint_0(self):
        # the constants the synthetic world is built from, checked once here
        j = dataio.SyntheticSkeletonConfig.num_joints
        assert dataio.SyntheticSkeletonConfig.joint_names == dataio.DEFAULT_JOINT_NAMES
        assert len(dataio._PARENTS) == len(dataio._BONE_LENGTHS) == j
        assert np.shape(dataio._REST_DIRS) == np.shape(dataio._ANGLE_LIMITS) == (j, 3)
        assert dataio._PARENTS[0] == -1
        assert all(0 <= p < i for i, p in enumerate(dataio._PARENTS) if i > 0)
        assert all(np.isfinite(dataio._BONE_LENGTHS[1:])) and min(dataio._BONE_LENGTHS[1:]) > 0
        assert np.all(np.isfinite(dataio._REST_DIRS)) and np.all(np.isfinite(dataio._ANGLE_LIMITS))

    @pytest.mark.parametrize("change, message", [
        (dict(obs_sigma_px=float("nan")), "obs_sigma_px must be finite and > 0, got nan"),
    ], ids=["nan-obs-sigma"])
    def test_bad_skeleton_rejected_up_front(self, change, message):
        with pytest.raises(ValueError, match=message):
            dataio.SyntheticSkeletonConfig(**change)

    def test_fields_are_sizes_seed_and_noise(self):
        assert [f.name for f in dataclasses.fields(dataio.SyntheticSkeletonConfig)] == [
            "n_train", "n_eval", "seed", "obs_sigma_px"]

    def test_zero_angle_limits_rest_pose(self, monkeypatch):
        monkeypatch.setattr(dataio, "_ANGLE_LIMITS", tuple((0.0, 0.0, 0.0) for _ in range(17)))
        cfg = dataio.SyntheticSkeletonConfig(n_train=5, n_eval=1, seed=1)
        train, _, _ = dataio.generate_synthetic(cfg)
        for i in range(1, 5):
            assert np.array_equal(train.poses[i], train.poses[0])

    def test_bone_lengths_preserved(self):
        cfg = dataio.SyntheticSkeletonConfig(n_train=20, n_eval=1, seed=2)
        train, _, _ = dataio.generate_synthetic(cfg)
        for pose in train.poses:
            for j in range(1, 17):
                p = dataio._PARENTS[j]
                length = np.linalg.norm(pose[j] - pose[p])
                assert length == pytest.approx(dataio._BONE_LENGTHS[j], rel=1e-9)

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
        errs = [_mean_reprojection(HypothesisSet(to_root_relative(r.gt_pose).joints[None],
                                                 r.gt_pose.joints[:1]), r.keypoints, r.camera)
                for r in records]
        # mean norm of an isotropic 2D Gaussian is sigma * sqrt(pi/2)
        want = 3.0 * np.sqrt(np.pi / 2.0)
        assert np.mean(errs) == pytest.approx(want, rel=0.10)

    def test_deterministic(self):
        cfg = dataio.SyntheticSkeletonConfig(n_train=10, n_eval=2, seed=42)
        a = dataio.generate_synthetic(cfg)
        b = dataio.generate_synthetic(cfg)
        assert np.array_equal(a[0].poses, b[0].poses)
        assert np.array_equal(a[2][0].keypoints.means, b[2][0].keypoints.means)
