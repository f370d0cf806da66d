import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from poseprior import cli, dataio, denoiser, metrics, numeric, sampler
from poseprior.errors import FormatError, PosePriorError
from poseprior.geometry import Pose
from poseprior.numeric import SymMat2, spd_inverse_2x2
from poseprior.observation import Heatmap
from poseprior.schedule import cosine_schedule


def run_cli(args):
    """Run `poseprior args` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_cli_process(args):
    """Run `python -m poseprior.cli args` in a child, through the `__main__` exit path."""
    return subprocess.run([sys.executable, "-m", "poseprior.cli", *args],
                          capture_output=True, text=True)


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


def header_only(src, dst, j):
    """Write the header of the pose file `src`, its J set to the JSON value `j`, and no records."""
    header = json.loads(src.read_text().splitlines()[0])
    header["J"] = j
    dst.write_text(json.dumps(header) + "\n")


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


@pytest.mark.parametrize("command,flags,named", [
    ("train", ["--hidden", "3"], "--hidden must be even and >= 4, got 3"),
    ("train", ["--hidden", "2"], "--hidden must be even and >= 4, got 2"),
    ("train", ["--T", "0"], "--T must be >= 1, got 0"),
    ("train", ["--offset", "0"], "--offset must be in (0, 1), got 0.0"),
    ("train", ["--offset", "1"], "--offset must be in (0, 1), got 1.0"),
    ("train", ["--offset", "nan"], "--offset must be in (0, 1), got nan"),
    ("train", ["--steps", "-3"], "--steps must be >= 0, got -3"),
    ("train", ["--checkpoint-every", "-5"], "--checkpoint-every must be >= 0, got -5"),
    ("train", ["--batch", "0"], "--batch must be >= 1, got 0"),
    ("train", ["--ema", "1"], "--ema must be in [0, 1), got 1.0"),
    ("train", ["--lr", "inf"], "--lr must be finite and > 0, got inf"),
    ("estimate", ["-M", "0"], "-M must be in [1, 2^24], got 0"),
    ("estimate", ["-M", "16777217"], "-M must be in [1, 2^24], got 16777217"),
    ("complete", ["-M", "0"], "-M must be in [1, 2^24], got 0"),
    ("complete", ["--mask", " "], "--mask must be joint names or indices, or 'all', got ' '"),
    ("sweep", ["-M", "0"], "-M must be in [1, 2^24], got 0"),
    ("sample", ["-n", "-1"], "-n must be in [0, 2^24], got -1"),
    ("sample", ["-n", "16777217"], "-n must be in [0, 2^24], got 16777217"),
    ("evaluate", ["--stride", "0"], "--stride must be >= 1, got 0"),
    ("synth", ["--n-train", "0"], "--n-train must be >= 1, got 0"),
    ("synth", ["--n-eval", "0"], "--n-eval must be >= 1, got 0"),
    ("synth", ["--obs-sigma", "nan"], "--obs-sigma must be finite and > 0, got nan"),
    ("fit-heatmap", ["--floor", "nan"], "--floor must be in [0, 1), got nan"),
    ("fit-heatmap", ["--floor", "inf"], "--floor must be in [0, 1), got inf"),
    ("fit-heatmap", ["--floor", "1.5"], "--floor must be in [0, 1), got 1.5"),
    ("fit-heatmap", ["--floor", "-1"], "--floor must be in [0, 1), got -1.0"),
    ("estimate", ["--gamma", "nan"], "--gamma must be finite and >= 0, got nan"),
    ("complete", ["--cov-rotate", "inf"], "--cov-rotate must be finite, got inf"),
    ("sweep", ["--cov-scale", "0"], "--cov-scale must be finite and > 0, got 0.0"),
    ("synth", ["--seed", "-1"], "--seed must be in [0, 2^64), got -1"),
    ("train", ["--seed", str(2**64)], f"--seed must be in [0, 2^64), got {2**64}"),
], ids=["hidden-odd", "hidden-small", "T-zero", "offset-zero", "offset-one", "offset-nan",
        "steps", "checkpoint-every", "batch", "ema", "lr", "estimate-M", "estimate-M-above-2^24",
        "complete-M", "mask-blank", "sweep-M", "sample-n", "sample-n-above-2^24", "stride",
        "n-train", "n-eval", "obs-sigma",
        "floor-nan", "floor-inf", "floor-above-1", "floor-negative", "gamma-nan",
        "cov-rotate-inf", "cov-scale-zero", "seed-negative", "seed-2^64"])
def test_bad_count_exits_2_naming_flag_before_reading(tiny_setup, tmp_path, monkeypatch,
                                                       capsys, command, flags, named):
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read before the flags were checked")

    for name in ("load_poses", "load_observations", "load_checkpoint", "load_heatmap"):
        monkeypatch.setattr(dataio, name, refuse)
    out = tmp_path / "out"
    model_obs = ["--model", str(tiny_setup["ckpt"]), "--obs", str(tiny_setup["obs"]),
                 "--out", str(out)]
    args = {
        "train": ["--poses", str(tiny_setup["train"]), "--out", str(out), "--steps", "0",
                  "--hidden", "8", "--T", "10"],
        "estimate": model_obs,
        "complete": [*model_obs, "--mask", "0"],
        "sweep": [*model_obs, "--sweep", "gamma", "--values", "0"],
        "sample": ["--model", str(tiny_setup["ckpt"]), "--out", str(out)],
        "evaluate": ["--hyp", str(tiny_setup["gt"]), "--gt", str(tiny_setup["gt"]),
                     "--out", str(out)],
        "synth": ["--out-train", str(out), "--out-obs", str(tmp_path / "obs"),
                  "--out-gt", str(tmp_path / "gt")],
        "fit-heatmap": [str(tiny_setup["root"] / "joint0.hmp"), "--out", str(out)],
    }[command]
    assert cli.main([command, *args, *flags]) == 2
    assert f"error: {named}\n" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def subcommand_parsers():
    parser = cli.build_parser()
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def ruled_actions():
    """(command, action) for every option whose ``type=`` checks a rule (`cli._add_ruled`)."""
    return [(name, action) for name, command in subcommand_parsers().items()
            for action in command._actions if isinstance(action.type, cli._Ruled)]


def test_every_flag_rule_names_its_own_flag():
    # each ruled option refuses some probe, naming its own first flag and rule
    probes = ["-1", "0", "1", "3", "inf", "nan", " ", str(2**24 + 1), str(2**64)]
    for name, action in ruled_actions():
        flag, rule = action.option_strings[0], action.type.rule
        errors = []
        for probe in probes:
            try:
                action.type(probe)
            except PosePriorError as exc:
                errors.append(str(exc))
            except ValueError:  # a probe its conversion refuses
                pass
        assert errors, (name, flag)
        assert all(error.startswith(f"{flag} must be {rule}, got ") for error in errors), \
            (name, flag, errors)
    assert {action.option_strings[0] for _, action in ruled_actions()} == {
        "--hidden", "--T", "--offset", "--steps", "--checkpoint-every", "--batch", "--ema",
        "--lr", "-M", "--gamma", "--cov-scale", "--cov-rotate", "-n", "--mask", "--floor",
        "--stride", "--n-train", "--n-eval", "--obs-sigma", "--seed"}


def test_every_optional_flag_shows_its_default_in_help():
    # and every option has help, a ruled one ends it with its rule, and each help renders
    for name, command in subcommand_parsers().items():
        command.format_help()  # raises on a bare % in a help or rule text
        for action in command._actions:
            if action.dest == "help":
                continue
            assert action.help, (name, action.dest)
            if action.option_strings and not action.required:
                assert "default" in action.help, (name, action.option_strings[0])
    for name, action in ruled_actions():
        assert action.help.endswith(f"; must be {action.type.rule}"), (name, action.dest)


def test_every_flag_readme_names_is_an_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    options = {flag for command in subcommand_parsers().values()
               for action in command._actions for flag in action.option_strings}
    others = {"--no-build-isolation", "--check", "--record"}  # pip's and tests/recipe.py's
    assert set(re.findall(r"--[a-z][a-z0-9-]*", readme)) - options == others


def test_main_builds_its_parser_once(monkeypatch, capsys):
    built, build = [], cli.build_parser

    def counted():
        built.append(build())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._main_parser.cache_clear()
    for _ in range(2):
        assert cli.main(["evaluate", "--hyp", "h", "--gt", "g", "--out", "o",
                         "--stride", "0"]) == 2
        assert "error: --stride must be >= 1, got 0\n" in capsys.readouterr().err
    assert len(built) == 1
    assert build() is not build()  # every other caller gets a parser of its own


@pytest.mark.parametrize("command", ["estimate", "complete", "sweep", "sample"])
def test_sampling_commands_load_only_the_sampling_state(tiny_setup, tmp_path, monkeypatch,
                                                        command):
    obs = ["--obs", str(tiny_setup["obs"])]
    flags = {
        "estimate": [*obs, "-M", "3"],
        "complete": [*obs, "-M", "2", "--mask", "l_wrist,3"],
        "sweep": [*obs, "-M", "2", "--sweep", "gamma", "--values", "0,1e-4"],
        "sample": ["-n", "4"],
    }[command]
    original = dataio.load_checkpoint
    calls = []

    def spy(path, **kwargs):
        calls.append(kwargs)
        return original(path, **kwargs)

    def full_load(path, **kwargs):
        return original(path)

    outputs = []
    for loader in (spy, full_load):
        monkeypatch.setattr(dataio, "load_checkpoint", loader)
        out = tmp_path / loader.__name__ / "out"
        out.parent.mkdir()
        assert cli.main([command, "--model", str(tiny_setup["ckpt"]), "--out", str(out),
                         "--seed", "4", *flags]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.parent.iterdir())})
    assert calls == [{"train_state": False}]
    assert outputs[0] == outputs[1]
    assert "out" in outputs[0]


def _checkpoint_offset(joints, hidden, name):
    """Byte offset in a checkpoint of the first value of ``name``: "norm_std",
    a batch-norm statistic, or "EMA <key>"."""
    shapes = denoiser.param_shapes(joints, hidden)
    sizes = [math.prod(shapes[key]) for key in denoiser.PARAM_KEYS]
    norm_std = dataio._CKPT_HEADER.size + 8 * 3 * joints
    params = norm_std + 8 * 3 * joints
    if name == "norm_std":
        return norm_std
    if name in denoiser.STAT_KEYS:
        return params + 4 * 4 * sum(sizes) + 4 * hidden * denoiser.STAT_KEYS.index(name)
    key = name.removeprefix("EMA ")
    return params + 4 * sum(sizes) + 4 * sum(sizes[:denoiser.PARAM_KEYS.index(key)])


@pytest.mark.parametrize("name,value,message", [
    ("EMA te1_w", math.nan, "non-finite EMA te1_w"),
    ("EMA b1_l2_b", math.inf, "non-finite EMA b1_l2_b"),
    ("b2_bn1_v", math.nan, "non-finite b2_bn1_v"),
    ("norm_std", math.nan, "non-finite norm_std"),
    ("norm_std", 0.0, "norm_std has an entry <= 0"),
    ("b1_bn2_v", -1.0, "negative running variance b1_bn2_v"),
], ids=["ema-weight-nan", "ema-bias-inf", "bn-variance-nan", "norm-std-nan", "norm-std-zero",
        "bn-variance-negative"])
def test_bad_sampling_tensor_in_checkpoint_exits_2(tiny_setup, tmp_path, capsys, name, value,
                                                   message):
    # before, a NaN EMA weight loaded and `estimate` exited 3 as "diverged"
    blob = bytearray(tiny_setup["ckpt"].read_bytes())
    at = _checkpoint_offset(17, 16, name)
    packed = struct.pack("<d" if name == "norm_std" else "<f", value)
    blob[at:at + len(packed)] = packed
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(bytes(blob))
    expected = f"{message} in checkpoint {ckpt}"
    for train_state in (True, False):
        with pytest.raises(FormatError, match=f"^{re.escape(expected)}$"):
            dataio.load_checkpoint(ckpt, train_state=train_state)
    out = tmp_path / "hyp.jsonl"
    assert cli.main(["estimate", "--model", str(ckpt), "--obs", str(tiny_setup["obs"]),
                     "--out", str(out), "-M", "3"]) == 2
    assert capsys.readouterr().err.endswith(f"error: {expected}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["sample", "estimate"])
@pytest.mark.parametrize("edit,message", [
    (lambda blob: b"", "bad checkpoint magic in {path}"),
    (lambda blob: blob[:4], "truncated checkpoint header in {path}"),
    (lambda blob: blob[:-17], "checkpoint {path} is {size} bytes, expected {full}"),
    (lambda blob: blob + b"\x00", "checkpoint {path} is {size} bytes, expected {full}"),
    (lambda blob: blob[:4] + b"\x63" + blob[5:], "checkpoint version 99 of {path} not supported"),
], ids=["empty", "magic-only", "truncated", "extended", "bad-version"])
def test_bad_checkpoint_file_exits_2_naming_it(tiny_setup, tmp_path, capsys, edit, message,
                                               command):
    blob = tiny_setup["ckpt"].read_bytes()
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(edit(blob))
    out = tmp_path / "out.jsonl"
    flags = ["-n", "2"] if command == "sample" else ["--obs", str(tiny_setup["obs"]), "-M", "2"]
    assert cli.main([command, "--model", str(ckpt), "--out", str(out), *flags]) == 2
    expected = message.format(path=ckpt, size=ckpt.stat().st_size, full=len(blob))
    assert capsys.readouterr().err.endswith(f"error: {expected}\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["estimate", "-M", "2"],
    ["sweep", "-M", "2", "--sweep", "gamma", "--values", "0,1e-4"],
    ["complete", "-M", "2", "--mask", "3"],
    ["sweep", "-M", "2", "--sweep", "cov-scale", "--values", "1,2"],
], ids=["estimate", "sweep", "complete", "sweep-cov-scale"])
def test_eval_form_is_built_once_per_command(tiny_setup, tmp_path, monkeypatch, flags):
    # the observations hold 2 frames: an estimate or a completion samples
    # twice and a 2-value sweep four times, all from the Prior read at load
    original = denoiser.build_eval_form
    builds, sampled = [], []

    def spy(*args, **kwargs):
        builds.append(1)
        return original(*args, **kwargs)

    guided = sampler.sample_guided

    def count(model, *args, **kwargs):
        sampled.append(type(model))
        return guided(model, *args, **kwargs)

    monkeypatch.setattr(denoiser, "build_eval_form", spy)
    monkeypatch.setattr(sampler, "sample_guided", count)
    assert cli.main([flags[0], "--model", str(tiny_setup["ckpt"]), "--obs",
                     str(tiny_setup["obs"]), "--out", str(tmp_path / "out"),
                     *flags[1:]]) == 0
    assert sampled == [denoiser.Prior] * (4 if flags[0] == "sweep" else 2)
    assert len(builds) == 1


def wide_covariance_obs(tiny_setup, tmp_path):
    """The observations with joint 3 of frame synth00001 given a covariance 1e10 times
    frame synth00000's: at scale 1e150 only that joint's determinant overflows."""
    header, *records = [json.loads(line) for line in open(tiny_setup["obs"])]
    records[1]["keypoints"][3]["cov"] = [4e10, 0.0, 4e10]
    obs = tmp_path / "wide.jsonl"
    obs.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *records]))
    return obs


@pytest.mark.parametrize("flags,wide,scale,frame", [
    (["estimate", "--cov-scale", "1e150"], True, 1e150, "synth00001"),
    (["complete", "--cov-scale", "1e150", "--mask", "l_wrist"], True, 1e150, "synth00001"),
    (["sweep", "--sweep", "gamma", "--values", "0,2e-4", "--cov-scale", "1e150"], True,
     1e150, "synth00001"),
    (["sweep", "--sweep", "cov-scale", "--values", "1,1e150"], True, 1e150, "synth00001"),
    (["sweep", "--sweep", "cov-scale", "--values", "1,1e308"], False, 1e308, "synth00000"),
], ids=["estimate", "complete", "sweep-gamma", "sweep-cov-scale", "sweep-cov-scale-1e308"])
def test_cov_scale_out_of_range_for_any_frame_exits_2_before_sampling(
        tiny_setup, tmp_path, monkeypatch, capsys, flags, wide, scale, frame):
    # with `wide`, the first frame's covariances stay in float64's range at
    # scale 1e150 and the second's do not, so a check made frame by frame
    # would sample the first
    obs = wide_covariance_obs(tiny_setup, tmp_path) if wide else tiny_setup["obs"]
    sampled = []

    def spy(*args, **kwargs):
        sampled.append(args)

    monkeypatch.setattr(sampler, "sample_guided", spy)
    out = tmp_path / "out"
    assert cli.main([flags[0], "--model", str(tiny_setup["ckpt"]), "--obs", str(obs),
                     "--out", str(out), "-M", "2", *flags[1:]]) == 2
    err = capsys.readouterr().err
    assert f"error: cov_scale = {scale!r} takes the covariances" in err
    assert err.endswith(f"(frame {frame})\n")
    assert sampled == []
    assert not out.exists()


def test_cov_scale_check_reads_the_masked_observation(tiny_setup, tmp_path):
    # the one covariance that 1e150 takes out of range is on the masked
    # joint, which the sampler never reads, so the check must not see it
    out = tmp_path / "c.jsonl"
    assert cli.main(["complete", "--model", str(tiny_setup["ckpt"]),
                     "--obs", str(wide_covariance_obs(tiny_setup, tmp_path)), "--out", str(out),
                     "-M", "2", "--cov-scale", "1e150", "--mask", "3"]) == 0
    assert dataio.load_poses(out).num_poses == 4


class TestSynthCommand:
    @pytest.mark.parametrize("flag,value", [
        ("--obs-sigma", "-1"), ("--obs-sigma", "0"), ("--obs-sigma", "nan"),
        ("--obs-sigma", "inf"), ("--n-train", "0"), ("--n-train", "-3"),
        ("--n-eval", "0"), ("--n-eval", "-2"),
    ])
    def test_bad_setting_exits_2_naming_flag(self, tmp_path, flag, value):
        out = tmp_path / "train.jsonl"
        proc = run_cli(["synth", "--out-train", str(out), "--out-obs", str(tmp_path / "obs"),
                        "--n-train", "10", "--n-eval", "1", flag, value])
        assert proc.returncode == 2
        assert f"error: {flag} must be" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestTrainCommand:
    def test_checkpoint_every_saves_during_training(self, tiny_setup, tmp_path, monkeypatch):
        saved_at, save = [], dataio.save_checkpoint
        monkeypatch.setattr(dataio, "save_checkpoint",
                            lambda model, path: (saved_at.append(model.adam_steps),
                                                 save(model, path)))
        proc = run_cli(["train", "--poses", str(tiny_setup["train"]),
                        "--out", str(tmp_path / "m.ckpt"), "--steps", "5", "--batch", "8",
                        "--hidden", "8", "--T", "10", "--checkpoint-every", "2"])
        assert proc.returncode == 0, proc.stderr
        assert saved_at == [2, 4, 5]

    def test_zero_steps_writes_initialized_checkpoint(self, tiny_setup, tmp_path):
        out = tmp_path / "init.ckpt"
        proc = run_cli(["train", "--poses", str(tiny_setup["train"]), "--out", str(out),
                        "--steps", "0", "--hidden", "8", "--T", "10", "--seed", "2"])
        assert proc.returncode == 0, proc.stderr
        model = dataio.load_checkpoint(out)
        assert model.adam_steps == 0

    def test_missing_input_exits_2(self, tmp_path):
        proc = run_cli_process(["train", "--poses", str(tmp_path / "nope.jsonl"),
                                "--out", str(tmp_path / "m.ckpt")])
        assert proc.returncode == 2

    def test_divergence_exits_3(self, tiny_setup, tmp_path):
        # a child process: its overflow RuntimeWarning would be an error in this one
        proc = run_cli_process(["train", "--poses", str(tiny_setup["train"]),
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
        ("coordinate", 'line 2: "joints" must be a list of 51 numbers, got [0.0, 0.0, '),
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

    @pytest.mark.parametrize("edit,named", [
        (lambda lines: [], "line 1: empty file: missing header"),
        (lambda lines: ["{"], "line 1: bad header: "),
        (lambda lines: [lines[0].replace('"version":1', '"version":2')],
         'line 1: header "version" must be 1, got 2'),
        (lambda lines: [lines[0].replace('"J":17', '"J":16')],
         'line 1: header "joint_names" must be a list of 16 strings'),
        (lambda lines: [lines[0], json.dumps({"joints": [0.0] * 3 + [math.nan] * 48})],
         'line 2: "joints" must be finite, got [0.0, 0.0, 0.0, NaN, '),
        (lambda lines: lines[:1], "training pose file holds no records"),
    ], ids=["empty", "bad-header", "version", "names", "non-finite", "no-records"])
    def test_bad_pose_file_exits_2(self, tiny_setup, tmp_path, edit, named):
        lines = tiny_setup["train"].read_text().splitlines()
        poses = tmp_path / "poses.jsonl"
        poses.write_text("".join(line + "\n" for line in edit(lines)))
        proc = run_cli(["train", "--poses", str(poses), "--out", str(tmp_path / "m.ckpt"),
                        "--steps", "0", "--hidden", "8", "--T", "10"])
        assert proc.returncode == 2
        assert f"error: {poses}: {named}" in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()

    def test_blank_record_lines_are_skipped(self, tiny_setup, tmp_path):
        lines = tiny_setup["train"].read_text().splitlines()
        poses = tmp_path / "poses.jsonl"
        poses.write_text("\n".join([lines[0], "", *lines[1:3], "  ", *lines[3:]]) + "\n")
        for path, out in [(tiny_setup["train"], "a.ckpt"), (poses, "b.ckpt")]:
            assert run_cli(["train", "--poses", str(path), "--out", str(tmp_path / out),
                            "--steps", "0", "--hidden", "8", "--T", "10"]).returncode == 0
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_pose_file_rooted_elsewhere_exits_2(self, tiny_setup, tmp_path):
        rooted = tmp_path / "rooted.jsonl"
        rooted_at_joint_1(tiny_setup["train"], rooted)
        proc = run_cli(["train", "--poses", str(rooted), "--out", str(tmp_path / "m.ckpt"),
                        "--steps", "0", "--hidden", "8", "--T", "10"])
        assert proc.returncode == 2
        assert f'error: {rooted}: line 1: header "root_index" must be 0, got 1\n' in proc.stderr

    @pytest.mark.parametrize("j", [17.0, True], ids=["float", "bool"])
    def test_joint_count_not_an_integer_exits_2(self, tiny_setup, tmp_path, j):
        # J 17.0 with the file's 17 names reached np.zeros((0, J, 3)): a TypeError, exit 1
        poses = tmp_path / "poses.jsonl"
        header_only(tiny_setup["train"], poses, j)
        proc = run_cli(["train", "--poses", str(poses), "--out", str(tmp_path / "m.ckpt"),
                        "--steps", "0", "--hidden", "8", "--T", "10"])
        assert proc.returncode == 2
        assert f"error: {poses}: line 1: header J must be an integer >= 1, " \
            f"got {json.dumps(j)}\n" in proc.stderr
        assert not (tmp_path / "m.ckpt").exists()


class TestEstimateCommand:
    def test_library_value_error_is_a_bug_not_an_input_error(self, tiny_setup, tmp_path,
                                                              monkeypatch):
        # exit 2 is for a PosePriorError or an OSError; anything else ends in a traceback
        def broken(*args, **kwargs):
            raise ValueError("a bug in the library")

        monkeypatch.setattr(sampler, "sample_guided", broken)
        with pytest.raises(ValueError, match="a bug in the library"):
            cli.main(["estimate", "--model", str(tiny_setup["ckpt"]),
                      "--obs", str(tiny_setup["obs"]), "--out", str(tmp_path / "x.jsonl")])

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

    # `estimate` in a child: pinned to one CPU when argv[1] is "1", else as started. It
    # counts the eval products handed to a helper thread and prints the count.
    CPU_CHILD = (
        "import os, sys\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "if sys.argv[1] == '1':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "submit, splits = ThreadPoolExecutor.submit, []\n"
        "def counted(self, *args, **kwargs):\n"
        "    splits.append(1)\n"
        "    return submit(self, *args, **kwargs)\n"
        "ThreadPoolExecutor.submit = counted\n"
        "from poseprior.cli import main\n"
        "code = main(sys.argv[2:])\n"
        "print(len(splits))\n"
        "sys.exit(code)\n")

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                        reason="needs two usable CPUs to compare one CPU against two")
    def test_paper_size_bytes_do_not_depend_on_cpus(self, tmp_path):
        # hidden 1024 at M = 2: each 1024 x 1024 linear splits its panels with a helper
        # thread when the process may use two CPUs, and runs on one thread when pinned
        skel = dataio.SyntheticSkeletonConfig(n_train=1, n_eval=1, seed=21)
        _, _, records = dataio.generate_synthetic(skel)
        obs, ckpt = tmp_path / "obs.jsonl", tmp_path / "model.ckpt"
        dataio.save_observations(records, obs, skel.joint_names)
        model = denoiser.DenoiserModel.initialize(17, 1024, cosine_schedule(5, 0.008),
                                                  numeric.RngStream(21, numeric.INIT_STREAM))
        dataio.save_checkpoint(model, ckpt)
        del model
        outputs = {}
        for cpus, threads in (("1", "1"), ("2", "1"), ("2", "2")):
            out = tmp_path / f"hyp-{cpus}-{threads}.jsonl"
            proc = subprocess.run(
                [sys.executable, "-c", self.CPU_CHILD, cpus, "estimate", "--model", str(ckpt),
                 "--obs", str(obs), "--out", str(out), "-M", "2", "--seed", "3"],
                capture_output=True, text=True,
                env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
            assert proc.returncode == 0, proc.stderr
            # 4 hidden linears x T = 5 steps split, unless pinned to one CPU
            assert proc.stdout.split() == ["0" if cpus == "1" else "20"]
            outputs[cpus, threads] = (out.read_bytes(),
                                      Path(f"{out}.metrics.csv").read_bytes())
        assert outputs["1", "1"] == outputs["2", "1"] == outputs["2", "2"]

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
        (lambda kp: kp.update(mean=[float("nan"), 1.0]),
         'line 3: keypoint 5: "mean" must be finite, got [NaN, 1.0]'),
        (lambda kp: kp.update(cov=[float("nan"), 0.0, 4.0]),
         'line 3: keypoint 5: "cov" must be finite, got [NaN, 0.0, 4.0]'),
        # a string flag used to load as a valid joint
        (lambda kp: kp.update(valid="false"),
         'line 3: keypoint 5: "valid" must be true or false, got \'false\''),
    ], ids=["no-mean", "nan-mean", "nan-cov", "string-valid"])
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
        (lambda doc: doc["root"].update(mean=[1, 2]),
         'line 3: root "mean" must be a list of 3 numbers, got [1, 2]'),
        (lambda doc: doc.update(gt_pose=[1, 2, 3]),
         'line 3: "gt_pose" must be a list of 51 numbers, got [1, 2, 3]'),
        (lambda doc: doc["camera"].update(fx=float("nan")),
         'line 3: camera "fx" must be finite, got NaN'),
        (lambda doc: doc["camera"].update(cx=float("inf")),
         'line 3: camera "cx" must be finite, got Infinity'),
        (lambda doc: doc["camera"].update(fy=float("inf")),
         'line 3: camera "fy" must be finite, got Infinity'),
        (lambda doc: doc["root"]["mean"].__setitem__(0, float("nan")),
         'line 3: root "mean" must be finite, got [NaN, '),
        (lambda doc: doc["root"].update(cov=[1.0, float("inf"), 1.0]),
         'line 3: root "cov" must be finite, got [1.0, Infinity, 1.0]'),
        (lambda doc: doc["keypoints"].pop(), "line 3: expected 17 keypoints"),
        (lambda doc: doc.pop("camera"), "line 3: malformed observation record ('camera')"),
    ], ids=["keypoint-mean", "camera-fx", "root-mean", "gt-pose", "camera-fx-nan",
            "camera-cx-inf", "camera-fy-inf", "root-mean-nan", "root-cov-inf",
            "keypoint-count", "no-camera"])
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

    def test_repeated_frame_id_exits_2_naming_both_lines(self, tiny_setup, tmp_path):
        # its hypotheses would be a file that evaluate refuses
        header, *records = [json.loads(line) for line in open(tiny_setup["obs"])]
        records[1]["frame_id"] = records[0]["frame_id"]
        obs = tmp_path / "obs.jsonl"
        obs.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *records]))
        out = tmp_path / "x.jsonl"
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]), "--obs", str(obs),
                        "--out", str(out), "-M", "1"])
        assert proc.returncode == 2
        assert f"error: {obs}: line 3: frame_id {records[0]['frame_id']} repeats line 2\n" \
            in proc.stderr
        assert not out.exists()

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
        rule = next(action.type.rule for command, action in ruled_actions()
                    if command == "estimate" and flag in action.option_strings)
        assert f"error: {flag} must be {rule}, got {float(value)!r}\n" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "1e300", "1e-300"])
    def test_cov_scale_out_of_float_range_names_it(self, tiny_setup, tmp_path, value):
        # the scaled covariances, or their determinants, overflow or underflow
        out = tmp_path / "x.jsonl"
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "-M", "1", "--seed", "1", "--cov-scale", value])
        assert proc.returncode == 2
        assert f"error: cov_scale = {float(value)!r} takes the covariances" in proc.stderr
        assert not out.exists()

    def test_non_utf8_observation_file_exits_2_naming_file_and_line(self, tiny_setup,
                                                                    tmp_path):
        lines = tiny_setup["obs"].read_bytes().splitlines(keepends=True)
        obs = tmp_path / "obs.jsonl"
        obs.write_bytes(b"".join(lines[:2]) + b"\xfc\x00\xff\n" + b"".join(lines[2:]))
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]), "--obs", str(obs),
                        "--out", str(tmp_path / "x.jsonl"), "-M", "1"])
        assert proc.returncode == 2
        assert f"error: {obs}: line 3: not UTF-8 text (byte 0xfc)\n" in proc.stderr

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

    @pytest.mark.parametrize("command", ["estimate", "complete"])
    def test_report_without_ground_truth_exits_2(self, tiny_setup, tmp_path, command):
        header, *records = [json.loads(line) for line in open(tiny_setup["obs"])]
        for rec in records:
            del rec["gt_pose"]
        obs = tmp_path / "nogt.jsonl"
        obs.write_text("".join(json.dumps(doc) + "\n" for doc in [header, *records]))
        out, report = tmp_path / "x.jsonl", tmp_path / "report.csv"
        args = [command, "--model", str(tiny_setup["ckpt"]), "--obs", str(obs),
                "--out", str(out), "-M", "2", "--seed", "1"]
        if command == "complete":
            args += ["--mask", "3"]
        proc = run_cli([*args, "--report", str(report)])
        assert proc.returncode == 2
        assert "--report" in proc.stderr and "gt_pose" in proc.stderr
        assert not out.exists() and not report.exists()
        proc = run_cli(args)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("command", ["estimate", "complete"])
    def test_prints_summed_diagnostics(self, tiny_setup, tmp_path, command):
        args = [command, "--model", str(tiny_setup["ckpt"]), "--obs", str(tiny_setup["obs"]),
                "--out", str(tmp_path / "x.jsonl"), "-M", "3", "--seed", "1"]
        if command == "complete":
            args += ["--mask", "3"]
        proc = run_cli([*args, "--gamma", "1e10"])
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if line.startswith("diagnostics: ")]
        assert len(lines) == 1
        counts = json.loads(lines[0][len("diagnostics: "):])
        assert set(counts) == {"behind_camera_skips", "nonfinite_grad_zeroed",
                               "trust_region_cap", "trust_region_residual"}
        assert counts["trust_region_cap"] + counts["trust_region_residual"] > 0

    def test_m_beyond_stream_range_exits_2(self, tiny_setup, tmp_path):
        proc = run_cli(["estimate", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(tmp_path / "x.jsonl"),
                        "-M", "16777217"])
        assert proc.returncode == 2
        assert "error: -M must be in [1, 2^24], got 16777217\n" in proc.stderr
        assert not (tmp_path / "x.jsonl").exists()


class TestStreamRanges:
    def test_frame_bound(self):
        # frame 65535, hypothesis 2**24 - 1 draws from stream 2**40 - 1, the last one
        # below the weight-init stream 2**40
        cli._check_stream_ranges(1 << 16)
        with pytest.raises(PosePriorError, match="^65537 frames exceed the stream-id range: "
                                                 "at most 65536 frames$"):
            cli._check_stream_ranges((1 << 16) + 1)

    def test_purposes_overlap_only_where_pinned(self):
        # Each purpose's stream ids that the CLI can reach, as inclusive ranges: a run
        # samples at most MAX_FRAMES frames of MAX_HYPOTHESES hypotheses, and `sample -n`
        # draws trajectories 0 to n - 1, frame 0's for every n its rule admits.
        cli._check_stream_ranges(numeric.MAX_FRAMES)
        caps = {action.option_strings[0]: action.type for _, action in ruled_actions()
                if action.option_strings[0] in ("-M", "-n")}
        assert sorted(caps) == ["-M", "-n"]
        for convert in caps.values():
            assert convert(str(numeric.MAX_HYPOTHESES)) == numeric.MAX_HYPOTHESES
            with pytest.raises(PosePriorError, match=r"in \[[01], 2\^24\], got 16777217$"):
                convert(str(numeric.MAX_HYPOTHESES + 1))
        first = numeric.TRAJECTORY_STREAMS
        last = first + numeric.MAX_FRAMES * numeric.MAX_HYPOTHESES - 1
        frame_0 = (first, first + numeric.MAX_HYPOTHESES - 1)
        reach = {
            "synth training poses": (numeric.SYNTH_TRAIN_STREAM,) * 2,
            "synth held-out poses": (numeric.SYNTH_HELDOUT_STREAM,) * 2,
            "synth observations": (numeric.SYNTH_OBS_STREAM,) * 2,
            "weight init": (numeric.INIT_STREAM,) * 2,
            "training batches": (numeric.TRAIN_STREAM,) * 2,
            "trajectories": (first, last),
            "roots": (numeric.ROOT_STREAMS + first, numeric.ROOT_STREAMS + last),
            "sample": frame_0,
        }
        assert max(high for _, high in reach.values()) < 1 << 64  # no id wraps in RngStream
        overlaps = {(a, b): (max(ra[0], rb[0]), min(ra[1], rb[1]))
                    for (a, ra), (b, rb) in itertools.combinations(reach.items(), 2)
                    if max(ra[0], rb[0]) <= min(ra[1], rb[1])}
        # `sample` is frame 0 by design, so that gamma = 0 reproduces it; synth's streams are
        # frame 0's hypotheses 1-3, and so sample's too, a known defect
        assert overlaps == {
            ("synth training poses", "trajectories"): (1, 1),
            ("synth training poses", "sample"): (1, 1),
            ("synth held-out poses", "trajectories"): (2, 2),
            ("synth held-out poses", "sample"): (2, 2),
            ("synth observations", "trajectories"): (3, 3),
            ("synth observations", "sample"): (3, 3),
            ("trajectories", "sample"): frame_0,
        }


class TestSampleCommand:
    def test_zero_samples_header_only(self, tiny_setup, tmp_path):
        out = tmp_path / "empty.jsonl"
        proc = run_cli(["sample", "--model", str(tiny_setup["ckpt"]),
                        "--out", str(out), "-n", "0", "--seed", "1"])
        assert proc.returncode == 0, proc.stderr
        ds = dataio.load_poses(out)
        assert ds.num_poses == 0

    def test_overflowing_final_pose_exits_3(self, tiny_setup, tmp_path, capsys):
        # a finite last state whose denormalized pose overflows is a
        # divergence (exit 3) naming the hypothesis, not an input error
        model = dataio.load_checkpoint(tiny_setup["ckpt"])
        model.norm_std = np.full_like(model.norm_std, 1e308)
        ckpt = tmp_path / "huge.ckpt"
        dataio.save_checkpoint(model, ckpt)
        out = tmp_path / "out.jsonl"
        assert cli.main(["sample", "--model", str(ckpt), "--out", str(out), "-n", "4"]) == 3
        assert "error: diverged: non-finite final pose in hypothesis" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["hidden-2", "T-0", "nan-offset"])
    def test_refused_checkpoint_header_exits_2(self, tiny_setup, tmp_path, unchecked_model,
                                               case):
        # a hidden width of 2 used to load and then sample NaN (exit 3)
        ckpt = tmp_path / "bad.ckpt"
        if case == "hidden-2":
            dataio.save_checkpoint(unchecked_model(17, 2), ckpt)
        else:
            blob = bytearray(tiny_setup["ckpt"].read_bytes())
            if case == "T-0":
                struct.pack_into("<I", blob, 16, 0)
            else:
                struct.pack_into("<d", blob, 20, math.nan)
            ckpt.write_bytes(bytes(blob))
        proc = run_cli(["sample", "--model", str(ckpt), "--out", str(tmp_path / "x.jsonl"),
                        "-n", "2", "--seed", "1"])
        assert proc.returncode == 2, proc.stderr
        assert f"checkpoint {ckpt} header: " in proc.stderr

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

    def test_samples_each_frame_with_its_mask(self, tiny_setup, tmp_path, monkeypatch):
        masked = []
        original = sampler.sample_guided

        def spy(model, sched, obs, *rest):
            masked.append(np.flatnonzero(~obs.valid).tolist())
            return original(model, sched, obs, *rest)

        monkeypatch.setattr(sampler, "sample_guided", spy)
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
        ("\u00b2", "unknown joint name '\u00b2'"),  # a digit that int() refuses
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

    @pytest.mark.parametrize("values,named", [
        ("1,x", "'x' is not a number"), ("1,", "'' is not a number"),
        ("nan", "--gamma must be finite and >= 0, got nan"),
        ("2e-4,inf", "--gamma must be finite and >= 0, got inf"),
    ], ids=["1,x-'x'", "1,-''", "nan-'nan'", "2e-4,inf-'inf'"])
    def test_bad_values_item_exits_2(self, tiny_setup, tmp_path, values, named):
        out = tmp_path / "sweep.csv"
        proc = run_cli(["sweep", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "--sweep", "gamma", f"--values={values}", "-M", "2"])
        assert proc.returncode == 2
        assert f"error: --values: {named}\n" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("sweep,values,named", [
        ("gamma", "1e-4,-1", "--values: --gamma must be finite and >= 0, got -1.0"),
        ("cov-scale", "1,0", "--values: --cov-scale must be finite and > 0, got 0.0"),
    ], ids=["gamma", "cov-scale"])
    def test_out_of_range_value_exits_2_before_sampling(self, tiny_setup, tmp_path, monkeypatch,
                                                        capsys, sweep, values, named):
        def refuse(*args, **kwargs):
            raise AssertionError("work began before every --values item was checked")

        for module, name in ((sampler, "sample_guided"), (dataio, "load_checkpoint"),
                             (dataio, "load_observations")):
            monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--model", str(tiny_setup["ckpt"]),
                         "--obs", str(tiny_setup["obs"]), "--out", str(out),
                         "--sweep", sweep, "--values", values, "-M", "2"]) == 2
        assert f"error: {named}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["1e308", "1e-300"])
    def test_cov_scale_value_out_of_float_range_exits_2(self, tiny_setup, tmp_path, value):
        out = tmp_path / "sweep.csv"
        proc = run_cli(["sweep", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "--sweep", "cov-scale", "--values", f"1,{value}", "-M", "2"])
        assert proc.returncode == 2
        assert f"error: cov_scale = {float(value)!r} takes the covariances" in proc.stderr
        assert not out.exists()


    @pytest.mark.parametrize("sweep,flag,value", [
        ("gamma", "--gamma", "0.5"), ("cov-scale", "--cov-scale", "9"),
        ("gamma", "--gamma", "0.0002"),
    ], ids=["gamma", "cov-scale", "gamma-at-default"])
    def test_swept_flag_exits_2(self, tiny_setup, tmp_path, sweep, flag, value):
        out = tmp_path / "sweep.csv"
        proc = run_cli(["sweep", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(out),
                        "--sweep", sweep, "--values", "2", "-M", "2", flag, value])
        assert proc.returncode == 2
        assert f"{flag} is the swept setting" in proc.stderr
        assert not out.exists()

    def test_other_flag_still_applies(self, tiny_setup, tmp_path):
        # a cov-scale sweep honours --gamma: gamma 0 gives other rows than the default
        outs = []
        for extra in ([], ["--gamma", "0"]):
            out = tmp_path / f"sweep{len(extra)}.csv"
            proc = run_cli(["sweep", "--model", str(tiny_setup["ckpt"]),
                            "--obs", str(tiny_setup["obs"]), "--out", str(out),
                            "--sweep", "cov-scale", "--values", "2", "-M", "3", *extra])
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_text())
        assert outs[0] != outs[1]

    def test_report_flag_is_gone(self, tiny_setup, tmp_path):
        proc = run_cli(["sweep", "--model", str(tiny_setup["ckpt"]),
                        "--obs", str(tiny_setup["obs"]), "--out", str(tmp_path / "s.csv"),
                        "--sweep", "gamma", "--values", "1e-4", "-M", "2",
                        "--report", str(tmp_path / "rep.csv")])
        assert proc.returncode == 2
        assert "unrecognized arguments: --report" in proc.stderr

    @pytest.mark.parametrize("flags", [
        ["--sweep", "gamma", "--values", "0,1e10"],
        ["--sweep", "cov-scale", "--values", "1,3", "--gamma", "1e10"],
    ], ids=["gamma", "cov-scale"])
    def test_prints_diagnostics_summed_over_jobs(self, tiny_setup, tmp_path, monkeypatch,
                                                 capsys, flags):
        original = sampler.sample_guided
        per_job = []

        def spy(*args, **kwargs):
            hyp = original(*args, **kwargs)
            per_job.append(hyp.diagnostics)
            return hyp

        monkeypatch.setattr(sampler, "sample_guided", spy)
        assert cli.main(["sweep", "--model", str(tiny_setup["ckpt"]), "--obs",
                         str(tiny_setup["obs"]), "--out", str(tmp_path / "s.csv"), "-M", "3",
                         "--seed", "1", *flags]) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("diagnostics: ")]
        assert len(lines) == 1
        counts = json.loads(lines[0][len("diagnostics: "):])
        assert len(per_job) == 4  # 2 frames x 2 values
        assert counts == {key: sum(job[key] for job in per_job) for key in per_job[0]}
        assert counts["trust_region_cap"] + counts["trust_region_residual"] > 0

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_heatmap_value_exits_2_naming_file(self, tmp_path, value):
        good_path, bad_path = tmp_path / "good.hmp", tmp_path / "bad.hmp"
        dataio.save_heatmap(Heatmap(4, 4, np.ones((4, 4))), good_path)
        values = np.ones((4, 4))
        values[1, 2] = value
        dataio.save_heatmap(Heatmap(4, 4, values), bad_path)
        out = tmp_path / "fit.jsonl"
        proc = run_cli(["fit-heatmap", str(good_path), str(bad_path), "--out", str(out)])
        assert proc.returncode == 2
        assert f"error: non-finite heatmap values in {bad_path}" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("origin, stride, field", [
        ((float("nan"), 0.0), 1.0, "origin"),
        ((0.0, float("-inf")), 1.0, "origin"),
        ((0.0, 0.0), float("inf"), "stride"),
        ((0.0, 0.0), float("nan"), "stride"),
        ((0.0, 0.0), 0.0, "stride"),
        ((0.0, 0.0), -2.0, "stride"),
    ], ids=["nan-origin", "inf-origin", "inf-stride", "nan-stride", "zero-stride",
            "negative-stride"])
    def test_bad_header_exits_2_naming_file_and_field(self, tmp_path, origin, stride, field):
        # a 32 x 32 Gaussian that fits well under a sane header, written by hand
        xs = np.arange(32, dtype=float)
        gx, gy = np.meshgrid(xs, xs)
        values = np.exp(-0.5 * ((gx - 15.0) ** 2 + (gy - 12.0) ** 2) / 9.0)
        bad_path = tmp_path / "bad.hmp"
        bad_path.write_bytes(dataio.HEATMAP_MAGIC + struct.pack("<HH", 32, 32)
                             + struct.pack("<fff", *origin, stride)
                             + values.astype("<f4").tobytes())
        out = tmp_path / "fit.jsonl"
        proc = run_cli(["fit-heatmap", str(bad_path), "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert f"error: heatmap {field} must be" in proc.stderr
        assert str(bad_path) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("cut, message", [
        (lambda blob: b"", "bad heatmap magic"),
        (lambda blob: blob[:4], "truncated heatmap header"),
        (lambda blob: blob[:19], "truncated heatmap header"),
        (lambda blob: blob[:-1], "heatmap payload of {path} is 83 bytes, expected 84"),
        (lambda blob: blob + b"\0", "heatmap payload of {path} is 85 bytes, expected 84"),
        (lambda blob: blob[:24] + struct.pack("<f", -1.0) + blob[28:], "negative heatmap values"),
    ], ids=["empty", "magic-only", "19-byte-header", "payload-short", "payload-long",
            "negative-value"])
    def test_bad_file_exits_2_naming_file(self, tmp_path, cut, message):
        # a 4 x 4 heatmap is a 20-byte header and a 64-byte payload
        good_path, bad_path = tmp_path / "good.hmp", tmp_path / "bad.hmp"
        dataio.save_heatmap(Heatmap(4, 4, np.ones((4, 4))), good_path)
        bad_path.write_bytes(cut(good_path.read_bytes()))
        out = tmp_path / "fit.jsonl"
        proc = run_cli(["fit-heatmap", str(good_path), str(bad_path), "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert message.format(path=bad_path) in proc.stderr
        assert str(bad_path) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

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
    @pytest.mark.parametrize("scale", [1e155, 1e303])
    def test_far_off_poses_are_scored(self, tiny_setup, tmp_path, scale):
        # squares of such coordinates overflow float64; each figure is still the scale
        # times the figure of the unscaled files, with no warning
        gt = dataio.load_poses(tiny_setup["gt"])
        other = gt.poses[::-1]  # each frame's hypotheses: blends of it and the other frame
        meta = [{"frame_id": m["frame_id"], "hypothesis": h} for m in gt.meta for h in range(3)]
        hyp = dataio.PoseDataset(gt.joint_names, np.stack(
            [0.9 * gt.poses + 0.1 * other, 0.5 * (gt.poses + other), other],
            axis=1).reshape(-1, 17, 3), meta)
        paths = {}
        for name, data in (("hyp", hyp), ("gt", gt)):
            paths[name] = tmp_path / f"far-{name}.jsonl"
            dataio.save_poses(dataio.PoseDataset(data.joint_names, scale * data.poses,
                                                 data.meta), paths[name])
        out = tmp_path / "eval.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proc = run_cli(["evaluate", "--hyp", str(paths["hyp"]), "--gt", str(paths["gt"]),
                            "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == gt.num_poses + 1
        for row, meta, gt_pose in zip(rows, gt.meta, gt.poses):
            joints = hyp.poses[[i for i, m in enumerate(hyp.meta)
                                if m["frame_id"] == meta["frame_id"]]]
            errors, pa_errors = metrics.hypothesis_errors(joints, Pose(gt_pose))
            assert float(row["mpjpe"]) == pytest.approx(scale * errors.min(), rel=1e-12)
            assert float(row["pa_mpjpe"]) == pytest.approx(scale * pa_errors.min(), rel=1e-12)

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

    def test_gathers_interleaved_records_by_frame_and_index(self, tiny_setup, tmp_path,
                                                            capsys):
        # records that interleave the frames and list hypothesis indices out of
        # order and with gaps score as the same records sorted
        gt = dataio.load_poses(tiny_setup["gt"])
        frames = [meta["frame_id"] for meta in gt.meta]
        rng = np.random.default_rng(7)
        indices = [5, 0, 9, 2]
        hyp = {}
        for i, frame in enumerate(frames):
            for m in indices:
                pose = gt.poses[i] + 40.0 * rng.standard_normal(gt.poses[i].shape)
                hyp[frame, m] = pose - pose[0]
        scrambled = [(frame, m) for m in indices for frame in reversed(frames)]
        csvs = []
        for name, keys in (("sorted", sorted(hyp)), ("scrambled", scrambled)):
            path = tmp_path / f"{name}.jsonl"
            dataio.save_poses(dataio.PoseDataset(
                gt.joint_names, np.stack([hyp[k] for k in keys]),
                [{"frame_id": f, "hypothesis": m} for f, m in keys]), path)
            out = tmp_path / f"{name}.csv"
            assert cli.main(["evaluate", "--hyp", str(path), "--gt", str(tiny_setup["gt"]),
                             "--out", str(out)]) == 0, capsys.readouterr().err
            csvs.append(out.read_bytes())
        assert scrambled != sorted(hyp)
        assert csvs[0] == csvs[1]
        rows = list(csv.DictReader(csvs[0].decode().splitlines()))
        for i, frame in enumerate(frames):
            best = min(metrics.mpjpe(Pose(hyp[frame, m]), Pose(gt.poses[i])) for m in indices)
            assert rows[i]["frame_id"] == frame
            assert rows[i]["mpjpe"] == f"{best:.6f}"
            assert rows[i]["M"] == str(len(indices))

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

    @pytest.mark.parametrize("which", ["hyp", "gt"])
    @pytest.mark.parametrize("j", [17.0, True], ids=["float", "bool"])
    def test_joint_count_not_an_integer_exits_2(self, tiny_setup, tmp_path, which, j):
        bad = tmp_path / "bad.jsonl"
        header_only(tiny_setup["gt"], bad, j)
        files = {"hyp": tiny_setup["gt"], "gt": tiny_setup["gt"], which: bad}
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(files["hyp"]), "--gt", str(files["gt"]),
                        "--out", str(out)])
        assert proc.returncode == 2
        assert f"error: {bad}: line 1: header J must be an integer >= 1, " \
            f"got {json.dumps(j)}\n" in proc.stderr
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

    @pytest.mark.parametrize("bad_in", ["gt", "hyp"])
    @pytest.mark.parametrize("frame_id", [None, 1.0, True, ["a"]],
                             ids=["null", "float", "bool", "list"])
    def test_frame_id_not_a_string_or_integer_exits_2(self, tiny_setup, tmp_path, bad_in,
                                                      frame_id):
        # the rule an observation file's frame_id keeps; a pair of files
        # whose records both said null was scored as frame "None"
        gt = dataio.load_poses(tiny_setup["gt"])
        paths = {"gt": tmp_path / "gt.jsonl", "hyp": tmp_path / "hyp.jsonl"}
        for name, path in paths.items():
            frame = frame_id if bad_in == "gt" or name == "hyp" else "synth00000"
            dataio.save_poses(dataio.PoseDataset(gt.joint_names, gt.poses[:1],
                                                 [{"frame_id": frame, "hypothesis": 0}]), path)
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(paths["hyp"]), "--gt", str(paths["gt"]),
                        "--out", str(out)])
        assert proc.returncode == 2
        assert (f'error: {paths[bad_in]}: record 1: "frame_id" must be a string or an integer, '
                f"got {json.dumps(frame_id)}\n") in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_repeated_record_exits_2(self, tiny_setup, tmp_path):
        # three hypotheses of each frame, then the last record again
        gt = dataio.load_poses(tiny_setup["gt"])
        meta = [{"frame_id": gt.meta[i]["frame_id"], "hypothesis": m}
                for i in range(gt.num_poses) for m in range(3)]
        poses = np.repeat(gt.poses, 3, axis=0)
        hyp_path = tmp_path / "hyp.jsonl"
        dataio.save_poses(dataio.PoseDataset(gt.joint_names, np.concatenate([poses, poses[-1:]]),
                                             meta + meta[-1:]), hyp_path)
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp_path), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out)])
        assert proc.returncode == 2
        frame_id = gt.meta[-1]["frame_id"]
        assert (f"record {len(meta) + 1}: repeats hypothesis 2 of frame {frame_id}"
                in proc.stderr)
        assert not out.exists()

    @pytest.mark.parametrize("ids,named", [
        (["synth00000", "synth00000", "synth00001"],
         "record 2: repeats frame synth00000 of record 1"),
        (["x", "synth00000", None, "2"], "record 4: repeats frame 2 of record 3"),
    ], ids=["repeated-id", "record-without-id"])
    def test_repeated_ground_truth_frame_exits_2(self, tiny_setup, tmp_path, ids, named):
        # a record without a frame_id takes its index as its id
        gt = dataio.load_poses(tiny_setup["gt"])
        gt_path = tmp_path / "gt.jsonl"
        dataio.save_poses(dataio.PoseDataset(
            gt.joint_names, gt.poses[np.arange(len(ids)) % gt.num_poses],
            [{} if i is None else {"frame_id": i} for i in ids]), gt_path)
        hyp = tmp_path / "hyp.jsonl"
        self.write_counted(gt, [(meta["frame_id"], 1) for meta in gt.meta], hyp)
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp), "--gt", str(gt_path), "--out", str(out)])
        assert proc.returncode == 2
        assert f"error: {gt_path}: {named}\n" in proc.stderr
        assert not out.exists()

    def test_joint_count_that_differs_exits_2(self, tiny_setup, tmp_path):
        gt = dataio.load_poses(tiny_setup["gt"])
        hyp = tmp_path / "hyp.jsonl"
        dataio.save_poses(dataio.PoseDataset(gt.joint_names[:5], gt.poses[:, :5], gt.meta), hyp)
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out)])
        assert proc.returncode == 2
        assert f"{hyp} has 5 joints but {tiny_setup['gt']} has 17" in proc.stderr
        assert not out.exists()

    def test_scores_estimate_of_own_named_joints(self, tiny_setup, five_joint_setup,
                                                 tmp_path):
        # checkpoints store no joint names, so a 5-joint estimate is written
        # as joint0..joint4 while its ground truth keeps the dataset's names
        gt = dataio.load_poses(tiny_setup["gt"])
        gt5 = tmp_path / "gt5.jsonl"
        dataio.save_poses(dataio.PoseDataset(gt.joint_names[:5], gt.poses[:, :5], gt.meta), gt5)
        est = tmp_path / "est.jsonl"
        proc = run_cli(["estimate", "--model", str(five_joint_setup["ckpt"]),
                        "--obs", str(five_joint_setup["obs"]), "--out", str(est),
                        "-M", "2", "--seed", "3"])
        assert proc.returncode == 0, proc.stderr
        assert dataio.load_poses(est).joint_names != gt.joint_names[:5]
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(est), "--gt", str(gt5), "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        rows = list(csv.DictReader(open(out)))
        assert [r["frame_id"] for r in rows] == [*(m["frame_id"] for m in gt.meta), "aggregate"]
        assert all(r["M"] == "2" for r in rows)

    @pytest.mark.parametrize("flag,value", [("--seed", "1"), ("--config", "c.ini")])
    def test_takes_no_seed_or_config(self, tiny_setup, tmp_path, flag, value):
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(tiny_setup["gt"]), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out), flag, value])
        assert proc.returncode == 2
        assert f"unrecognized arguments: {flag}" in proc.stderr
        assert not out.exists()

    @staticmethod
    def write_counted(gt, counts, path):
        """A hypothesis file with counts[k] copies of each listed frame's pose."""
        keys = [(frame, m) for frame, count in counts for m in range(count)]
        index = {meta["frame_id"]: i for i, meta in enumerate(gt.meta)}
        dataio.save_poses(dataio.PoseDataset(
            gt.joint_names, np.stack([gt.poses[index.get(f, 0)] for f, _ in keys]),
            [{"frame_id": f, "hypothesis": m} for f, m in keys]), path)

    @pytest.mark.parametrize("stride,scored,aggregate_m", [("1", [0, 1], "5"), ("2", [0], "2")],
                             ids=["every-frame", "stride-2"])
    def test_m_column_counts_each_scored_frame(self, tiny_setup, tmp_path, capsys, stride,
                                               scored, aggregate_m):
        # frame 0 has 2 hypotheses and frame 1 has 5; a row gives its own
        # frame's count, the aggregate row the largest count it scores
        gt = dataio.load_poses(tiny_setup["gt"])
        frames = [meta["frame_id"] for meta in gt.meta]
        hyp = tmp_path / "hyp.jsonl"
        self.write_counted(gt, [(frames[0], 2), (frames[1], 5)], hyp)
        out = tmp_path / "eval.csv"
        assert cli.main(["evaluate", "--hyp", str(hyp), "--gt", str(tiny_setup["gt"]),
                         "--out", str(out), "--stride", stride]) == 0, capsys.readouterr().err
        rows = list(csv.DictReader(open(out)))
        assert [(r["frame_id"], r["M"]) for r in rows] == (
            [(frames[i], ["2", "5"][i]) for i in scored] + [("aggregate", aggregate_m)])

    @pytest.mark.parametrize("stride", ["1", "2"])
    def test_frame_missing_from_ground_truth_exits_2(self, tiny_setup, tmp_path, stride):
        gt = dataio.load_poses(tiny_setup["gt"])
        hyp = tmp_path / "hyp.jsonl"
        self.write_counted(gt, [(meta["frame_id"], 2) for meta in gt.meta] + [("not-in-gt", 1)],
                           hyp)
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out), "--stride", stride])
        assert proc.returncode == 2
        assert (f"{hyp}: record {2 * gt.num_poses + 1}: frame not-in-gt is not in "
                f"{tiny_setup['gt']}") in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("joints,frames,named", [
        (17, 1, "no hypotheses for frame synth00001"),
        (2, 2, "frame synth00000: need at least 3 joints for alignment"),
    ], ids=["frame-without-hypotheses", "two-joints"])
    def test_unscorable_files_exit_2(self, tiny_setup, tmp_path, joints, frames, named):
        gt = dataio.load_poses(tiny_setup["gt"])
        gt = dataio.PoseDataset(gt.joint_names[:joints], gt.poses[:, :joints], gt.meta)
        gt_path, hyp = tmp_path / "gt.jsonl", tmp_path / "hyp.jsonl"
        dataio.save_poses(gt, gt_path)
        self.write_counted(gt, [(meta["frame_id"], 2) for meta in gt.meta[:frames]], hyp)
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp), "--gt", str(gt_path), "--out", str(out)])
        assert proc.returncode == 2
        assert f"error: {named}\n" in proc.stderr
        assert not out.exists()

    def test_non_utf8_file_exits_2_naming_file_and_line(self, tiny_setup, tmp_path):
        lines = tiny_setup["gt"].read_bytes().splitlines(keepends=True)
        hyp = tmp_path / "hyp.jsonl"
        hyp.write_bytes(b"".join(lines[:2]) + b'{"joints": [0\xfc]}\n' + b"".join(lines[2:]))
        out = tmp_path / "eval.csv"
        proc = run_cli(["evaluate", "--hyp", str(hyp), "--gt", str(tiny_setup["gt"]),
                        "--out", str(out)])
        assert proc.returncode == 2
        assert f"error: {hyp}: line 3: not UTF-8 text (byte 0xfc)\n" in proc.stderr
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
        assert f'error: {rooted}: line 1: header "root_index" must be 0, got 1\n' in proc.stderr
        assert not (tmp_path / "e.csv").exists()
