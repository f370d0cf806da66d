"""Every field of the pose and observation files, fed each kind of bad value through
`poseprior.cli.main`: a bad value exits 2 naming the file, the line and the field, and writes
nothing; a legal one exits 0. No case ends in a traceback, and none warns (the suite turns
a RuntimeWarning into an error)."""

import contextlib
import csv
import io
import json
import math

import pytest

from poseprior import cli, dataio

KINDS = ["string", "true", "null", "nested", "big-int", "count",
         "nan", "inf", "-inf", "zero", "negative", "huge"]
FINITE = ("zero", "negative", "huge")

# A number field: (id, line, keys to the field in its JSON line, how the message names it,
# entry to spoil, the kinds it takes, {kind: message of a rule checked past the reader}). A
# list field gets the bad entry at that index (4 of joints, past the root at the origin);
# with None the whole field is replaced.
FOCAL = "line 2: focal lengths must be positive"
POSE_FIELDS = [
    ("joints", 2, ("joints",), '"joints"', 4, FINITE, {}),
    ("joint_names", 1, ("joint_names",), 'header "joint_names"', None, (), {}),
]
OBS_FIELDS = [
    ("joint_names", 1, ("joint_names",), 'header "joint_names"', None, (), {}),
    *[(f"camera-{key}", 2, ("camera", key), f'camera "{key}"', None, ("huge",),
       {"zero": FOCAL, "negative": FOCAL}) for key in ("fx", "fy")],
    *[(f"camera-{key}", 2, ("camera", key), f'camera "{key}"', None, FINITE, {})
      for key in ("cx", "cy")],
    ("keypoint-mean", 2, ("keypoints", 5, "mean"), 'keypoint 5: "mean"', 1, FINITE, {}),
    # the off-diagonal entry: 1e303 leaves the covariance indefinite
    ("keypoint-cov", 2, ("keypoints", 5, "cov"), 'keypoint 5: "cov"', 1, ("zero", "negative"),
     {"huge": "line 2: non positive definite covariance, or one whose determinant overflows, "
              "at joints [5]"}),
    ("root-mean", 2, ("root", "mean"), 'root "mean"', 1, FINITE, {}),
    ("root-cov", 2, ("root", "cov"), 'root "cov"', 1, ("zero", "huge"),
     {"negative": "line 2: root estimate needs a finite mean and finite cov >= 0"}),
    # one coordinate at 1e303 mm puts the other joints below float64's resolution, so the
    # pose is collinear to Procrustes; it is refused, naming the frame, before sampling
    ("gt-pose", 2, ("gt_pose",), '"gt_pose"', 4, ("zero", "negative"),
     {"huge": "frame synth00000: ground-truth joints are collinear"}),
]

class _Missing:
    """The value of a deleted key; its repr is the case's test id, the same in every run."""

    def __repr__(self):
        return "MISSING"


MISSING = _Missing()  # the key is deleted
# A field that is not a number: (id, line, keys, value, the message after the path, or None
# where the value is legal). A pose file's cases go through evaluate, the others estimate.
POSE_CASES = [
    *[("format", 1, ("format",), value,
       'line 1: not a poseprior/poses file: header "format" must be "poseprior/poses"')
      for value in ("poseprior/observations", None, 1, MISSING)],
    *[("version", 1, ("version",), value,
       f'line 1: header "version" must be 1, got {json.dumps(value)}')
      for value in (2, 0, "1", True, 1.0, None)],
    *[("J", 1, ("J",), value, f"line 1: header J must be an integer >= 1, got {json.dumps(value)}")
      for value in (0, -1, 1.5, True, "17", None)],
    ("J", 1, ("J",), 16, 'line 1: header "joint_names" must be a list of 16 strings'),
    *[("root-index", 1, ("root_index",), value,
       f'line 1: header "root_index" must be 0, got {json.dumps(value)}')
      for value in (1, -1, "0", None, True, 0.0)],
    ("root-index", 1, ("root_index",), MISSING, None),
    *[("meta", 2, ("meta",), value, 'line 2: "meta" must be a JSON object')
      for value in ([1], "x", None, 1)],
    ("meta", 2, ("meta", "note"), "an extra key", None),
]
OBS_CASES = [
    *[("format", 1, ("format",), value,
       'line 1: not a poseprior/observations file: header "format" must be '
       '"poseprior/observations"') for value in ("poseprior/poses", None, MISSING)],
    *[("version", 1, ("version",), value,
       f'line 1: header "version" must be 1, got {json.dumps(value)}')
      for value in (2, "1", True)],
    ("version", 1, ("version",), MISSING, 'line 1: header "version" must be 1, got null'),
    *[("J", 1, ("J",), value, f"line 1: header J must be an integer >= 1, got {json.dumps(value)}")
      for value in (0, 1.5, True, None)],
    ("J", 1, ("J",), 18, 'line 1: header "joint_names" must be a list of 18 strings'),
    *[("frame-id", 2, ("frame_id",), value,
       f'line 2: "frame_id" must be a string or an integer, got {json.dumps(value)}')
      for value in (None, True, 1.5, [1], {})],
    ("frame-id", 2, ("frame_id",), MISSING, "line 2: malformed observation record ('frame_id')"),
    *[("frame-id", 2, ("frame_id",), value, None) for value in (7, "any text")],
    *[("valid", 2, ("keypoints", 5, "valid"), value,
       f'line 2: keypoint 5: "valid" must be true or false, got {value!r}')
      for value in ("true", 1, None, [True])],
    *[("valid", 2, ("keypoints", 5, "valid"), value, None) for value in (False, MISSING)],
    # an invalid keypoint's numbers need not be finite: the writer saves them as they are
    ("invalid-keypoint", 2, ("keypoints", 5),
     {"mean": [math.nan, math.inf], "cov": [-math.inf, math.nan, 0], "valid": False}, None),
    *[("gt-frame", 2, ("gt_frame",), value,
       f'line 2: "gt_frame" must be "absolute_camera" or "root_relative", '
       f"got {json.dumps(value)}") for value in ("camera", None, 1, ["absolute_camera"])],
    ("gt-frame", 2, ("gt_frame",), "root_relative",
     "line 2: root-relative pose must have the root joint at the origin"),
    *[("gt-frame", 2, ("gt_frame",), value, None) for value in ("absolute_camera", MISSING)],
]


def bad_value(value, index, kind):
    """``value`` spoilt by ``kind``: its entry ``index`` (the whole value for None) becomes a
    string, true, null, a one-entry list, a 401-digit integer, NaN, +-inf, 0, -1 or 1e303;
    "count" drops a list's last entry, or makes a whole value two of itself."""
    if kind == "count":
        return [value, value] if index is None else value[:-1]
    entry = value if index is None else value[index]
    bad = {"string": str(entry), "true": True, "null": None, "nested": [entry],
           "big-int": 10**400, "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
           "zero": 0, "negative": -1, "huge": 1e303}[kind]
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


def edited(path, line, keys, tmp_path, spoil):
    """A copy of ``path`` whose JSON line ``line`` has its field at ``keys`` replaced by
    ``spoil`` of its value (None where it is absent), or deleted where that is MISSING."""
    lines = path.read_text().splitlines()
    doc = json.loads(lines[line - 1])
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    value = spoil(parent.get(keys[-1]) if isinstance(parent, dict) else parent[keys[-1]])
    if value is MISSING:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = value
    lines[line - 1] = json.dumps(doc)
    bad = tmp_path / f"bad-{path.name}"
    bad.write_text("".join(text + "\n" for text in lines))
    return bad


def expect(argv, out, message, capsys):
    """``cli.main(argv)`` exits 0 and writes ``out`` for a None ``message``, else exits 2
    with an error line that starts with ``message`` and writes nothing."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if message is None:
        assert code == 0, err
        assert out.exists()
    else:
        assert code == 2, err
        assert f"\nerror: {message}" in f"\n{err}"
        assert not out.exists()


def evaluate(world, hyp, message, tmp_path, capsys):
    out = tmp_path / "eval.csv"
    expect(["evaluate", "--hyp", str(hyp), "--gt", str(world["gt"]), "--out", str(out)],
           out, message, capsys)


def estimate(world, obs, message, tmp_path, capsys):
    out = tmp_path / "hyp.jsonl"
    expect(["estimate", "--model", str(world["ckpt"]), "--obs", str(obs), "--out", str(out),
            "-M", "1"], out, message, capsys)


def number_cases(fields, legal):
    """A (field, kind) parameter for each field of ``fields`` and each kind that the field
    takes (``legal``) or refuses."""
    return [pytest.param(field, kind, id=f"{field[0]}-{kind}")
            for field in fields for kind in KINDS if (kind in field[5]) == legal]


def number_case(path, field, kind, tmp_path):
    """The file of a number field's case, and the message it exits 2 with (None where the
    field takes the kind). Every message names the file."""
    _, line, keys, named, index, legal, checked = field
    bad = edited(path, line, keys, tmp_path, lambda value: bad_value(value, index, kind))
    if kind in legal:
        return bad, None
    return bad, f"{bad}: {checked.get(kind, f'line {line}: {named} must be ')}"


@pytest.mark.parametrize("field,kind", number_cases(POSE_FIELDS, legal=False))
def test_bad_pose_field_exits_2(world, tmp_path, capsys, field, kind):
    evaluate(world, *number_case(world["gt"], field, kind, tmp_path), tmp_path, capsys)


@pytest.mark.parametrize("field,kind", number_cases(POSE_FIELDS, legal=True))
def test_legal_pose_value_exits_0(world, tmp_path, capsys, field, kind):
    evaluate(world, *number_case(world["gt"], field, kind, tmp_path), tmp_path, capsys)


@pytest.mark.parametrize("field,kind", number_cases(OBS_FIELDS, legal=False))
def test_bad_observation_field_exits_2(world, tmp_path, capsys, field, kind):
    estimate(world, *number_case(world["obs"], field, kind, tmp_path), tmp_path, capsys)


@pytest.mark.parametrize("field,kind", number_cases(OBS_FIELDS, legal=True))
def test_legal_observation_value_exits_0(world, tmp_path, capsys, field, kind):
    estimate(world, *number_case(world["obs"], field, kind, tmp_path), tmp_path, capsys)


@pytest.mark.parametrize("field,line,keys,value,message", POSE_CASES,
                         ids=[f"{c[0]}-{c[3]!r}" for c in POSE_CASES])
def test_pose_field_value(world, tmp_path, capsys, field, line, keys, value, message):
    hyp = edited(world["gt"], line, keys, tmp_path, lambda _: value)
    evaluate(world, hyp, message and f"{hyp}: {message}", tmp_path, capsys)


@pytest.mark.parametrize("field,line,keys,value,message", OBS_CASES,
                         ids=[f"{c[0]}-{c[3]!r}" for c in OBS_CASES])
def test_observation_field_value(world, tmp_path, capsys, field, line, keys, value, message):
    obs = edited(world["obs"], line, keys, tmp_path, lambda _: value)
    estimate(world, obs, message and f"{obs}: {message}", tmp_path, capsys)


def test_unalignable_ground_truth_exits_2_before_the_model_is_read(world, tmp_path, capsys):
    # the model file does not exist: the ground truth is refused before it is opened
    field = next(field for field in OBS_FIELDS if field[0] == "gt-pose")
    obs, message = number_case(world["obs"], field, "huge", tmp_path)
    out = tmp_path / "hyp.jsonl"
    expect(["estimate", "--model", str(tmp_path / "absent.ckpt"), "--obs", str(obs),
            "--out", str(out)], out, message, capsys)


def test_huge_keypoint_mean_gets_a_finite_reprojection(world, tmp_path, capsys):
    # the keypoint's residual, about 1e303 px, overflows when squared, but the mean
    # over the frame's 17 joints is finite
    field = next(field for field in OBS_FIELDS if field[0] == "keypoint-mean")
    obs, _ = number_case(world["obs"], field, "huge", tmp_path)
    estimate(world, obs, None, tmp_path, capsys)
    with open(tmp_path / "hyp.jsonl.metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["frame_id"] for row in rows] == ["synth00000", "aggregate"]
    assert all(1e301 < float(row["reprojection_px"]) < math.inf for row in rows)
