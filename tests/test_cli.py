import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from poseprior import cli, dataio, sampler
from poseprior.errors import PosePriorError
from poseprior.numeric import SymMat2, spd_inverse_2x2
from poseprior.observation import Heatmap


def run_cli(args, env_extra=None):
    import os
    env = dict(os.environ)
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "poseprior.cli", *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    """Small end-to-end world: synth files plus a quickly trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    train_path = root / "train.jsonl"
    obs_path = root / "obs.jsonl"
    gt_path = root / "gt.jsonl"
    ckpt = root / "model.ckpt"
    proc = run_cli(["synth", "--out-train", str(train_path), "--out-obs", str(obs_path),
                    "--out-gt", str(gt_path), "--n-train", "300", "--n-eval", "2",
                    "--seed", "3"])
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(["train", "--poses", str(train_path), "--out", str(ckpt),
                    "--steps", "150", "--batch", "32", "--hidden", "16", "--T", "20",
                    "--lr", "2e-3", "--seed", "1"])
    assert proc.returncode == 0, proc.stderr
    return {"root": root, "train": train_path, "obs": obs_path, "gt": gt_path,
            "ckpt": ckpt}


@pytest.fixture(scope="module")
def five_joint_setup(tiny_setup):
    """An untrained 5-joint checkpoint and the first 5 joints of the observations."""
    root = tiny_setup["root"]
    ds = dataio.load_poses(tiny_setup["train"])
    poses = root / "train5.jsonl"
    dataio.save_poses(dataio.PoseDataset(ds.joint_names[:5], ds.poses[:20, :5]), poses)
    ckpt = root / "model5.ckpt"
    proc = run_cli(["train", "--poses", str(poses), "--out", str(ckpt),
                    "--steps", "0", "--hidden", "8", "--T", "10", "--seed", "2"])
    assert proc.returncode == 0, proc.stderr
    header, *records = [json.loads(line) for line in open(tiny_setup["obs"])]
    header.update(J=5, joint_names=header["joint_names"][:5])
    for rec in records:
        rec["keypoints"], rec["gt_pose"] = rec["keypoints"][:5], rec["gt_pose"][:15]
    obs = root / "obs5.jsonl"
    obs.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *records]))
    return {"ckpt": ckpt, "obs": obs}


def rooted_at_joint_1(src, dst):
    """Write the poses of `src` re-rooted at joint 1, with header root_index 1."""
    ds = dataio.load_poses(src)
    dataio.save_poses(dataio.PoseDataset(ds.joint_names, ds.poses - ds.poses[:, 1:2], ds.meta),
                      dst)
    dst.write_text(dst.read_text().replace('"root_index":0', '"root_index":1', 1))


@pytest.mark.parametrize("command", ["synth", "train", "estimate", "complete", "sample",
                                     "sweep"])
def test_config_file_flag_is_gone(tiny_setup, tmp_path, command):
    config = tmp_path / "c.ini"
    config.write_text("[sampler]\nseed = 1\n")
    out = tmp_path / "out"
    model_obs = ["--model", str(tiny_setup["ckpt"]), "--obs", str(tiny_setup["obs"])]
    args = {
        "synth": ["--out-train", str(out), "--n-train", "10", "--n-eval", "1"],
        "train": ["--poses", str(tiny_setup["train"]), "--out", str(out), "--steps", "0",
                  "--hidden", "8", "--T", "10"],
        "estimate": [*model_obs, "--out", str(out), "-M", "1"],
        "complete": [*model_obs, "--out", str(out), "-M", "1", "--mask", "0"],
        "sample": ["--model", str(tiny_setup["ckpt"]), "--out", str(out), "-n", "1"],
        "sweep": [*model_obs, "--out", str(out), "-M", "1", "--sweep", "gamma",
                  "--values", "0"],
    }[command]
    proc = run_cli([command, *args, "--config", str(config)])
    assert proc.returncode == 2
    assert "unrecognized arguments: --config" in proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


class TestTrainCommand:
    def test_zero_steps_writes_initialized_checkpoint(self, tiny_setup, tmp_path):
        out = tmp_path / "init.ckpt"
        proc = run_cli(["train", "--poses", str(tiny_setup["train"]), "--out", str(out),
                        "--steps", "0", "--hidden", "8", "--T", "10", "--seed", "2"])
        assert proc.returncode == 0, proc.stderr
        model = dataio.load_checkpoint(out)
        assert model.adam_steps == 0

    def test_missing_input_exits_2(self, tmp_path):
        proc = run_cli(["train", "--poses", str(tmp_path / "nope.jsonl"),
                        "--out", str(tmp_path / "m.ckpt")])
        assert proc.returncode == 2

    def test_divergence_exits_3(self, tiny_setup, tmp_path):
        proc = run_cli(["train", "--poses", str(tiny_setup["train"]),
                        "--out", str(tmp_path / "m.ckpt"),
                        "--steps", "60", "--batch", "8", "--hidden", "8", "--T", "10",
                        "--lr", "1e18", "--seed", "2"])
        assert proc.returncode == 3

    def test_resolved_config_echoed(self, tiny_setup, tmp_path):
        proc = run_cli(["train", "--poses", str(tiny_setup["train"]),
                        "--out", str(tmp_path / "m.ckpt"), "--steps", "0",
                        "--hidden", "8", "--T", "10", "--seed", "7"])
        assert proc.returncode == 0
        assert "resolved-config:" in proc.stderr
        assert '"seed": 7' in proc.stderr

    @pytest.mark.parametrize("flags,named", [
        (["--steps", "-3"], "--steps must be >= 0, got -3"),
        (["--checkpoint-every", "-5", "--steps", "2"], "--checkpoint-every must be >= 0, got -5"),
        (["--batch", "0", "--steps", "2"], "--batch must be >= 1, got 0"),
        (["--ema", "1.0", "--steps", "2"], "--ema must be in [0, 1), got 1.0"),
        (["--ema", "-0.5", "--steps", "2"], "--ema must be in [0, 1), got -0.5"),
        (["--lr", "nan", "--steps", "2"], "--lr must be finite and > 0, got nan"),
        (["--lr", "inf", "--steps", "2"], "--lr must be finite and > 0, got inf"),
        (["--lr", "0", "--steps", "2"], "--lr must be finite and > 0, got 0.0"),
    ], ids=["steps", "checkpoint-every", "batch", "ema-one", "ema-negative", "lr-nan",
            "lr-inf", "lr-zero"])
    def test_negative_count_exits_2(self, tiny_setup, tmp_path, flags, named):
        proc = run_cli(["train", "--poses", str(tiny_setup["train"]),
                        "--out", str(tmp_path / "m.ckpt"), "--hidden", "8", "--T", "10",
                        *flags])
        assert proc.returncode == 2
        assert named in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()
        assert not (tmp_path / "m.ckpt.loss.csv").exists()

    @pytest.mark.parametrize("which,named", [
        ("record", "line 2: a pose record must be a JSON object"),
        ("coordinate", "line 2: bad joint coordinates"),
    ], ids=["not-object", "non-numeric"])
    def test_bad_pose_record_exits_2(self, tiny_setup, tmp_path, which, named):
        lines = tiny_setup["train"].read_text().splitlines()
        rec = json.loads(lines[1])
        rec["joints"][3] = "x"
        bad = "[1,2]" if which == "record" else json.dumps(rec)
        poses = tmp_path / "poses.jsonl"
        poses.write_text(lines[0] + "\n" + bad + "\n")
        proc = run_cli(["train", "--poses", str(poses), "--out", str(tmp_path / "m.ckpt"),
                        "--steps", "0", "--hidden", "8", "--T", "10"])
        assert proc.returncode == 2
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_pose_file_rooted_elsewhere_exits_2(self, tiny_setup, tmp_path):
        rooted = tmp_path / "rooted.jsonl"
        rooted_at_joint_1(tiny_setup["train"], rooted)
        proc = run_cli(["train", "--poses", str(rooted), "--out", str(tmp_path / "m.ckpt"),
                        "--steps", "0", "--hidden", "8", "--T", "10"])
        assert proc.returncode == 2
        assert "root_index must be 0" in proc.stderr


class TestEstimateCommand:
    def test_produces_hypotheses_and_metrics(self, tiny_setup, tmp_path):
        out = tmp_path / "hyp.jsonl"
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "-M", "5", "--seed", "2"])
        assert proc.returncode == 0, proc.stderr
        hyp = dataio.load_poses(out)
        assert hyp.num_poses == 10  # 2 frames x 5 hypotheses
        assert hyp.header_meta["M"] == 5
        assert {m["hypothesis"] for m in hyp.meta} == set(range(5))
        report = out.parent / (out.name + ".metrics.csv")
        rows = list(csv.DictReader(open(report)))
        assert rows[-1]["frame_id"] == "aggregate"

    def test_best_of_m_monotone_across_runs(self, tiny_setup, tmp_path):
        values = {}
        for m in (1, 50):
            out = tmp_path / f"hyp{m}.jsonl"
            proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]),
                            "--obs", str(tiny_setup["obs"]), "--out", str(out),
                            "-M", str(m), "--seed", "2"])
            assert proc.returncode == 0, proc.stderr
            report = out.parent / (out.name + ".metrics.csv")
            rows = list(csv.DictReader(open(report)))
            values[m] = float(rows[-1]["mpjpe"])
        assert values[50] <= values[1]

    def test_gamma_zero_matches_sample(self, tiny_setup, tmp_path):
        # single-frame observation file so the stream namespaces line up
        records = dataio.load_observations(tiny_setup["obs"])[:1]
        obs1 = tmp_path / "obs1.jsonl"
        dataio.save_observations(records, obs1, dataio.DEFAULT_JOINT_NAMES)
        est_out = tmp_path / "est.jsonl"
        smp_out = tmp_path / "smp.jsonl"
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(obs1), "--out", str(est_out),
                        "-M", "4", "--gamma", "0", "--seed", "6"])
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["sample", "--model", str(tiny_setup["ckpt"]),
                        "--out", str(smp_out), "-n", "4", "--seed", "6"])
        assert proc.returncode == 0, proc.stderr
        est = dataio.load_poses(est_out)
        smp = dataio.load_poses(smp_out)
        assert np.array_equal(est.poses, smp.poses)

    def test_joint_count_mismatch_exits_2(self, tiny_setup, tmp_path):
        # checkpoint trained with a 16-joint skeleton against 17-joint observations
        ds = dataio.load_poses(tiny_setup["train"])
        smaller = dataio.PoseDataset(
            ds.joint_names[:16], ds.poses[:20, :16] - ds.poses[:20, :1])
        small_path = tmp_path / "small.jsonl"
        dataio.save_poses(smaller, small_path)
        small_ckpt = tmp_path / "small.ckpt"
        proc = run_cli(["train", "--poses", str(small_path), "--out", str(small_ckpt),
                        "--steps", "0", "--hidden", "8", "--T", "10", "--seed", "2"])
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(["estimate", "--model", str(small_ckpt),
                        "--obs", str(tiny_setup["obs"]),
                        "--out", str(tmp_path / "x.jsonl"), "-M", "1", "--seed", "1"])
        assert proc.returncode == 2

    @pytest.mark.parametrize("edit,message", [
        (lambda kp: kp.pop("mean"), "line 3: keypoint 5 is valid but has no mean"),
        (lambda kp: kp.update(mean=[float("nan"), 1.0]), "line 3: non-finite mean or covariance"),
        (lambda kp: kp.update(cov=[float("nan"), 0.0, 4.0]), "line 3: non-finite mean or covariance"),
    ], ids=["no-mean", "nan-mean", "nan-cov"])
    def test_bad_valid_keypoint_exits_2(self, tiny_setup, tmp_path, edit, message):
        lines = tiny_setup["obs"].read_text().splitlines()
        doc = json.loads(lines[2])
        doc["keypoints"][5]["valid"] = True
        edit(doc["keypoints"][5])
        lines[2] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]), "--obs", str(bad),
                        "--out", str(tmp_path / "x.jsonl"), "-M", "1", "--seed", "1"])
        assert proc.returncode == 2
        assert message in proc.stderr

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc["keypoints"][5].update(mean=[1, 2, 3]), "line 3: keypoint 5: "),
        (lambda doc: doc["camera"].update(fx=-5), "line 3: focal lengths must be positive"),
        (lambda doc: doc["root"].update(mean=[1, 2]), "line 3: root estimate needs 3-vector"),
        (lambda doc: doc.update(gt_pose=[1, 2, 3]), "line 3: cannot reshape"),
    ], ids=["keypoint-mean", "camera-fx", "root-mean", "gt-pose"])
    def test_bad_record_value_names_line(self, tiny_setup, tmp_path, edit, message):
        lines = tiny_setup["obs"].read_text().splitlines()
        doc = json.loads(lines[2])
        edit(doc)
        lines[2] = json.dumps(doc)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]), "--obs", str(bad),
                        "--out", str(tmp_path / "x.jsonl"), "-M", "1", "--seed", "1"])
        assert proc.returncode == 2
        assert message in proc.stderr

    @pytest.mark.parametrize("flag,value", [
        ("--gamma", "nan"), ("--cov-scale", "nan"), ("--cov-scale", "inf"),
        ("--cov-rotate", "nan"), ("--cov-rotate", "-inf"),
    ])
    def test_non_finite_guidance_setting_exits_2(self, tiny_setup, tmp_path, flag, value):
        out = tmp_path / "x.jsonl"
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "-M", "1", "--seed", "1", f"{flag}={value}"])
        assert proc.returncode == 2
        assert f"{flag[2:].replace('-', '_')} must be finite" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("grad_space", ["x0hat", "xt"])
    def test_overflowing_guidance_step_is_clipped(self, tiny_setup, tmp_path, grad_space):
        # gamma * grad overflows to inf; the step is clipped along its direction, not NaN
        out = tmp_path / "x.jsonl"
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "-M", "3", "--seed", "1", "--gamma", "1e300",
                        "--grad-space", grad_space])
        assert proc.returncode == 0, proc.stderr
        assert np.all(np.isfinite(dataio.load_poses(out).poses))

    def test_m_beyond_stream_range_exits_2(self, tiny_setup, tmp_path):
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(tmp_path / "x.jsonl"),
                        "-M", "16777217"])
        assert proc.returncode == 2
        assert "M = 16777217" in proc.stderr
        assert not (tmp_path / "x.jsonl").exists()


class TestStreamRanges:
    def test_frame_bound(self):
        # frame 65535, hypothesis 2**24 - 1 draws from stream 2**40 - 1, the last one
        # below the weight-init stream 2**40
        cli._check_stream_ranges(1 << 16, 1 << 24)
        with pytest.raises(PosePriorError, match="65537 frames"):
            cli._check_stream_ranges((1 << 16) + 1, 1)
        with pytest.raises(PosePriorError, match="M = 16777217"):
            cli._check_stream_ranges(1, (1 << 24) + 1)


class TestSampleCommand:
    def test_zero_samples_header_only(self, tiny_setup, tmp_path):
        out = tmp_path / "empty.jsonl"
        proc = run_cli(["sample", "--model", str(tiny_setup["ckpt"]),
                        "--out", str(out), "-n", "0", "--seed", "1"])
        assert proc.returncode == 0, proc.stderr
        ds = dataio.load_poses(out)
        assert ds.num_poses == 0

    def test_output_under_a_file_exits_2(self, tiny_setup):
        out = tiny_setup["ckpt"] / "x.jsonl"
        proc = run_cli(["sample", "--model", str(tiny_setup["ckpt"]), "--out", str(out),
                        "-n", "1", "--seed", "1"])
        assert proc.returncode == 2
        assert "Not a directory" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_deterministic(self, tiny_setup, tmp_path):
        outs = []
        for i in range(2):
            out = tmp_path / f"s{i}.jsonl"
            proc = run_cli(["sample", "--model", str(tiny_setup["ckpt"]),
                            "--out", str(out), "-n", "3", "--seed", "11"])
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestCompleteCommand:
    def test_mask_by_name_and_all(self, tiny_setup, tmp_path):
        out = tmp_path / "c.jsonl"
        proc = run_cli(["complete", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "-M", "2", "--seed", "3", "--mask", "l_wrist,r_wrist"])
        assert proc.returncode == 0, proc.stderr
        assert dataio.load_poses(out).header_meta["masked_joints"] == [13, 16]

        out_all = tmp_path / "call.jsonl"
        proc = run_cli(["complete", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out_all),
                        "-M", "2", "--seed", "3", "--mask", "all"])
        assert proc.returncode == 0, proc.stderr

    def test_samples_through_complete_pose(self, tiny_setup, tmp_path, monkeypatch):
        masked = []
        original = sampler.complete_pose

        def spy(model, sched, obs, *rest):
            masked.append(np.flatnonzero(~obs.valid).tolist())
            return original(model, sched, obs, *rest)

        monkeypatch.setattr(sampler, "complete_pose", spy)
        assert cli.main(["complete", "--model", str(tiny_setup["ckpt"]),
                         "--obs", str(tiny_setup["obs"]), "--out", str(tmp_path / "c.jsonl"),
                         "-M", "1", "--seed", "3", "--mask", "l_wrist,3"]) == 0
        assert len(masked) == 2  # one call per frame
        assert all({3, 13} <= set(frame) for frame in masked)

    def test_unknown_joint_exits_2(self, tiny_setup, tmp_path):
        proc = run_cli(["complete", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(tmp_path / "x.jsonl"),
                        "-M", "1", "--seed", "3", "--mask", "left_flipper"])
        assert proc.returncode == 2

    def test_mask_by_output_label_on_5_joints(self, five_joint_setup, tmp_path):
        out = tmp_path / "c.jsonl"
        proc = run_cli(["complete", "--model", str(five_joint_setup["ckpt"]),
                        "--obs", str(five_joint_setup["obs"]), "--out", str(out),
                        "-M", "1", "--seed", "3", "--mask", "joint2,4"])
        assert proc.returncode == 0, proc.stderr
        written = dataio.load_poses(out)
        assert written.header_meta["masked_joints"] == [2, 4]
        assert written.joint_names == ("joint0", "joint1", "joint2", "joint3", "joint4")

    @pytest.mark.parametrize("mask,named", [
        ("l_wrist", "unknown joint name 'l_wrist'"),
        ("r_knee", "unknown joint name 'r_knee'"),
        ("joint5", "unknown joint name 'joint5'"),
        ("1,5", "mask index 5 out of range"),
    ])
    def test_mask_outside_5_joints_exits_2(self, five_joint_setup, tmp_path, mask, named):
        out = tmp_path / "c.jsonl"
        proc = run_cli(["complete", "--model", str(five_joint_setup["ckpt"]),
                        "--obs", str(five_joint_setup["obs"]), "--out", str(out),
                        "-M", "1", "--seed", "3", "--mask", mask])
        assert proc.returncode == 2
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("mask", ["", "  "], ids=["empty", "blank"])
    def test_empty_mask_exits_2(self, tiny_setup, tmp_path, mask):
        out = tmp_path / "c.jsonl"
        proc = run_cli(["complete", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "-M", "2", "--seed", "5", "--mask", mask])
        assert proc.returncode == 2
        assert "--mask" in proc.stderr
        assert not out.exists()


class TestSweepCommand:
    def test_cov_scale_rows(self, tiny_setup, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = run_cli(["sweep", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "--sweep", "cov-scale", "--values", "1,10",
                        "-M", "4", "--seed", "2"])
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 4  # 2 frames x 2 values
        assert {r["value"] for r in rows} == {"1.0", "10.0"}

    def test_gamma_sweep_reports_reprojection(self, tiny_setup, tmp_path):
        out = tmp_path / "gamma.csv"
        proc = run_cli(["sweep", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "--sweep", "gamma", "--values", "0.0002",
                        "-M", "2", "--seed", "2"])
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2
        assert all(float(r["reprojection_px"]) >= 0.0 for r in rows)
        assert all(r["best_of_m_mpjpe"] for r in rows)

    @pytest.mark.parametrize("values,item", [
        ("1,x", "'x'"), ("1,", "''"), ("nan", "'nan'"), ("2e-4,inf", "'inf'"),
    ])
    def test_bad_values_item_exits_2(self, tiny_setup, tmp_path, values, item):
        out = tmp_path / "sweep.csv"
        proc = run_cli(["sweep", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "--sweep", "gamma", f"--values={values}", "-M", "2"])
        assert proc.returncode == 2
        assert f"--values: {item} is not a finite number" in proc.stderr
        assert not out.exists()


    def test_cov_scale_sweep_needs_two_hypotheses(self, tiny_setup, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--model", str(tiny_setup["ckpt"]), "--obs", str(tiny_setup["obs"]),
                "--out", str(out), "--values", "1", "-M", "1"]
        proc = run_cli([*args, "--sweep", "cov-scale"])
        assert proc.returncode == 2
        assert "-M must be >= 2 for a cov-scale sweep" in proc.stderr
        assert not out.exists()
        proc = run_cli([*args, "--sweep", "gamma"])
        assert proc.returncode == 0, proc.stderr
        assert len(list(csv.DictReader(open(out)))) == 2


class TestFitHeatmapCommand:
    def test_fits_and_flags(self, tmp_path):
        center = np.array([20.0, 15.0])
        cov = SymMat2(6.0, 1.0, 4.0)
        xs = np.arange(48, dtype=float)
        gx, gy = np.meshgrid(xs, xs)
        d = np.stack([gx - center[0], gy - center[1]], axis=-1)
        quad = np.einsum("hwi,ij,hwj->hw", d, spd_inverse_2x2(cov).as_array(), d)
        good = Heatmap(48, 48, np.exp(-0.5 * quad))
        bad = Heatmap(1, 1, np.array([[1.0]]))
        good_path, bad_path = tmp_path / "good.hmp", tmp_path / "bad.hmp"
        dataio.save_heatmap(good, good_path)
        dataio.save_heatmap(bad, bad_path)
        out = tmp_path / "fit.jsonl"
        proc = run_cli(["fit-heatmap", str(good_path), str(bad_path), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        recs = [json.loads(line) for line in open(out)]
        assert recs[0]["valid"] and np.allclose(recs[0]["mean"], center, atol=0.1)
        assert not recs[1]["valid"]
        assert "warning" in proc.stderr

    @pytest.mark.parametrize("flag,value", [("--seed", "1"), ("--config", "c.ini")])
    def test_takes_no_seed_or_config(self, tmp_path, flag, value):
        hm_path = tmp_path / "hm.hmp"
        dataio.save_heatmap(Heatmap(4, 4, np.ones((4, 4))), hm_path)
        out = tmp_path / "fit.jsonl"
        proc = run_cli(["fit-heatmap", str(hm_path), "--out", str(out), flag, value])
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag}" in proc.stderr
        assert not out.exists()


class TestEvaluateCommand:
    def test_perfect_predictions_score_zero(self, tiny_setup, tmp_path):
        gt = dataio.load_poses(tiny_setup["gt"])
        poses, meta = [], []
        for i in range(gt.num_poses):
            for m in range(3):
                poses.append(gt.poses[i])
                meta.append({"frame_id": gt.meta[i]["frame_id"], "hypothesis": m})
        hyp = dataio.PoseDataset(gt.joint_names, np.stack(poses), meta)
        hyp_path = tmp_path / "hyp.jsonl"
        dataio.save_poses(hyp, hyp_path)
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp_path), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(open(out)))
        agg = rows[-1]
        assert float(agg["mpjpe"]) == 0.0
        assert float(agg["pck150"]) == 100.0
        assert float(agg["auc"]) == 100.0

    def test_stride_selects_frames(self, tiny_setup, tmp_path):
        gt = dataio.load_poses(tiny_setup["gt"])
        poses = [gt.poses[i] for i in range(gt.num_poses)]
        meta = [{"frame_id": gt.meta[i]["frame_id"], "hypothesis": 0}
                for i in range(gt.num_poses)]
        hyp_path = tmp_path / "hyp.jsonl"
        dataio.save_poses(dataio.PoseDataset(gt.joint_names, np.stack(poses), meta), hyp_path)
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp_path), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out), "--stride", "2"])
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 2  # 1 of 2 frames + aggregate

    @pytest.mark.parametrize("stride", ["0", "-4"])
    def test_stride_below_1_exits_2(self, tiny_setup, tmp_path, stride):
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(tiny_setup["gt"]),
                        "--gt", str(tiny_setup["gt"]), "--out", str(out), "--stride", stride])
        assert proc.returncode == 2
        assert f"--stride must be >= 1, got {stride}" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("which,named", [
        ("record", "a pose record must be a JSON object"),
        ("meta", '"meta" must be a JSON object'),
    ], ids=["not-object", "meta-not-object"])
    def test_bad_pose_record_exits_2(self, tiny_setup, tmp_path, which, named):
        lines = tiny_setup["gt"].read_text().splitlines()
        rec = json.loads(lines[1])
        rec["meta"] = [1]
        bad = "[1,2]" if which == "record" else json.dumps(rec)
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text("\n".join([lines[0], lines[1], bad]) + "\n")
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out)])
        assert proc.returncode == 2
        assert f"line 3: {named}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("index", [[1], "x", -1, 1.5, True, None],
                             ids=["list", "string", "negative", "float", "bool", "null"])
    def test_bad_hypothesis_index_exits_2(self, tiny_setup, tmp_path, index):
        lines = tiny_setup["gt"].read_text().splitlines()
        rec = json.loads(lines[2])
        rec["meta"]["hypothesis"] = index
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_text("\n".join([lines[0], lines[1], json.dumps(rec)]) + "\n")
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out)])
        assert proc.returncode == 2
        assert (f'record 2: "hypothesis" must be a non-negative integer, '
                f"got {json.dumps(index)}") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--seed", "1"), ("--config", "c.ini")])
    def test_takes_no_seed_or_config(self, tiny_setup, tmp_path, flag, value):
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(tiny_setup["gt"]), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out), flag, value])
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag}" in proc.stderr
        assert not out.exists()

    def test_frame_mismatch_exits_2(self, tiny_setup, tmp_path):
        gt = dataio.load_poses(tiny_setup["gt"])
        hyp_path = tmp_path / "hyp.jsonl"
        dataio.save_poses(dataio.PoseDataset(
            gt.joint_names, gt.poses[:1], [{"frame_id": "unrelated", "hypothesis": 0}]),
            hyp_path)
        proc = run_cli(["evaluate", "--hyp", str(hyp_path), "--gt", str(tiny_setup["gt"]),
                        "--out", str(tmp_path / "e.csv")])
        assert proc.returncode == 2

    def test_pose_file_rooted_elsewhere_exits_2(self, tiny_setup, tmp_path):
        rooted = tmp_path / "rooted.jsonl"
        rooted_at_joint_1(tiny_setup["gt"], rooted)
        proc = run_cli(["evaluate", "--hyp", str(tiny_setup["gt"]), "--gt", str(rooted),
                        "--out", str(tmp_path / "e.csv")])
        assert proc.returncode == 2
        assert "root_index must be 0" in proc.stderr
        assert not (tmp_path / "e.csv").exists()
