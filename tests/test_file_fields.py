"""Every number field of the pose and observation files, and a pose header's joint names,
fed each kind of bad value through `poseprior.cli.main`: each exits 2 naming the line and
the field, and writes nothing."""

import contextlib
import io
import json

import pytest

from poseprior import cli, dataio

KINDS = ["string", "true", "null", "nested", "big-int", "count"]

# (id, keys to the field in its JSON line, how the message names it, entry to spoil): a
# list field gets the bad entry at that index (4 of joints, past the root at the origin);
# with None the whole field is replaced. A pose field's line comes first.
POSE_FIELDS = [
    ("joints", 2, ("joints",), '"joints"', 4),
    ("joint_names", 1, ("joint_names",), 'header "joint_names"', None),
]
OBS_FIELDS = [
    *[(f"camera-{key}", ("camera", key), f'camera "{key}"', None)
      for key in ("fx", "fy", "cx", "cy")],
    ("keypoint-mean", ("keypoints", 5, "mean"), 'keypoint 5: "mean"', 1),
    ("keypoint-cov", ("keypoints", 5, "cov"), 'keypoint 5: "cov"', 1),
    ("root-mean", ("root", "mean"), 'root "mean"', 1),
    ("root-cov", ("root", "cov"), 'root "cov"', 1),
    ("gt-pose", ("gt_pose",), '"gt_pose"', 4),
]


def bad_value(value, index, kind):
    """``value`` spoilt by ``kind``: its entry ``index`` (the whole value for None) becomes a
    string, true, null, a one-entry list or a 401-digit integer; "count" drops a list's
    last entry, or makes a whole value two of itself."""
    if kind == "count":
        return [value, value] if index is None else value[:-1]
    entry = value if index is None else value[index]
    bad = {"string": str(entry), "true": True, "null": None, "nested": [entry],
           "big-int": 10**400}[kind]
    return bad if index is None else value[:index] + [bad] + value[index + 1:]


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """One observed frame, its ground-truth pose file, and an untrained 17-joint checkpoint."""
    root = tmp_path_factory.mktemp("fields")
    skel = dataio.SyntheticSkeletonConfig(n_train=20, n_eval=1, seed=4)
    train, heldout, records = dataio.generate_synthetic(skel)
    paths = {name: root / f"{name}.jsonl" for name in ("train", "gt", "obs")}
    dataio.save_poses(train, paths["train"])
    dataio.save_poses(heldout, paths["gt"])
    dataio.save_observations(records, paths["obs"], skel.joint_names)
    paths["ckpt"] = root / "model.ckpt"
    assert cli.main(["train", "--poses", str(paths["train"]), "--out", str(paths["ckpt"]),
                     "--steps", "0", "--hidden", "8", "--T", "10"]) == 0
    return paths


def edited(path, line, keys, index, kind, tmp_path):
    """A copy of ``path`` whose JSON line ``line`` has its field at ``keys`` spoilt by ``kind``."""
    lines = path.read_text().splitlines()
    doc = json.loads(lines[line - 1])
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = bad_value(parent[keys[-1]], index, kind)
    lines[line - 1] = json.dumps(doc)
    bad = tmp_path / f"bad-{path.name}"
    bad.write_text("".join(text + "\n" for text in lines))
    return bad


def expect_exit_2(argv, out, message, capsys):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"error: {message} must be " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field,line,keys,named,index", POSE_FIELDS,
                         ids=[f[0] for f in POSE_FIELDS])
def test_bad_pose_field_exits_2(world, tmp_path, capsys, field, line, keys, named, index, kind):
    hyp = edited(world["gt"], line, keys, index, kind, tmp_path)
    out = tmp_path / "eval.csv"
    expect_exit_2(["evaluate", "--hyp", str(hyp), "--gt", str(world["gt"]), "--out", str(out)],
                  out, f"line {line}: {named}", capsys)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("field,keys,named,index", OBS_FIELDS, ids=[f[0] for f in OBS_FIELDS])
def test_bad_observation_field_exits_2(world, tmp_path, capsys, field, keys, named, index,
                                       kind):
    obs = edited(world["obs"], 2, keys, index, kind, tmp_path)
    out = tmp_path / "hyp.jsonl"
    expect_exit_2(["estimate", "--model", str(world["ckpt"]), "--obs", str(obs),
                   "--out", str(out), "-M", "1"], out, f"line 2: {named}", capsys)
