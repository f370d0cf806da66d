import numpy as np
import pytest

from poseprior.cli import _mean_reprojection
from poseprior.errors import AlignmentError
from poseprior.geometry import ABSOLUTE_CAMERA, ROOT_RELATIVE, Camera, Pose, project, to_absolute
from poseprior.metrics import (
    PCK_THRESHOLD_MM,
    SimilarityTransform,
    _pck_at,
    auc,
    best_of_m,
    mpjpe,
    pa_mpjpe,
    pck,
    per_joint_std,
    procrustes_align,
)
from poseprior.numeric import RngStream
from poseprior.observation import KeypointObservation
from poseprior.sampler import HypothesisSet

CAM = Camera(fx=1000.0, fy=1000.0, cx=500.0, cy=500.0)


def rel_pose(arr):
    arr = np.asarray(arr, dtype=float)
    arr = arr - arr[0]
    return Pose(arr, ROOT_RELATIVE)


def random_pose(rng, joints=8, frame=ROOT_RELATIVE):
    arr = 100.0 * rng.standard_normal((joints, 3))
    if frame == ROOT_RELATIVE:
        arr -= arr[0]
        return Pose(arr, ROOT_RELATIVE)
    arr[:, 2] += 4000.0
    return Pose(arr, ABSOLUTE_CAMERA)


def random_rotation(rng):
    a = rng.standard_normal((3, 3))
    q, r = np.linalg.qr(a)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1
    return q


def brute_mpjpe(pred, gt):
    p = pred.joints - pred.joints[0]
    g = gt.joints - gt.joints[0]
    total = 0.0
    for j in range(p.shape[0]):
        total += np.sqrt(np.sum((p[j] - g[j]) ** 2))
    return total / p.shape[0]


class TestMpjpe:
    def test_identity(self):
        rng = RngStream(50, 0)
        p = random_pose(rng)
        assert mpjpe(p, p) == 0.0

    def test_single_displaced_joint(self):
        g = np.zeros((15, 3))
        g[1:] = RngStream(51, 0).standard_normal((14, 3))
        g[0] = 0.0
        p = g.copy()
        p[3] += [30.0, 0.0, 0.0]
        assert mpjpe(rel_pose(p), rel_pose(g)) == pytest.approx(2.0)

    def test_brute_force_agreement(self):
        rng = RngStream(52, 0)
        for _ in range(100):
            p, g = random_pose(rng), random_pose(rng)
            assert mpjpe(p, g) == pytest.approx(brute_mpjpe(p, g), abs=1e-9)

    def test_translation_invariance(self):
        rng = RngStream(53, 0)
        p = random_pose(rng, frame=ABSOLUTE_CAMERA)
        g = random_pose(rng, frame=ABSOLUTE_CAMERA)
        shifted_p = Pose(p.joints + [11.0, -7.0, 120.0], ABSOLUTE_CAMERA)
        shifted_g = Pose(g.joints + [11.0, -7.0, 120.0], ABSOLUTE_CAMERA)
        assert mpjpe(shifted_p, shifted_g) == pytest.approx(mpjpe(p, g), rel=1e-12)

    def test_joint_count_mismatch(self):
        rng = RngStream(54, 0)
        with pytest.raises(ValueError):
            mpjpe(random_pose(rng, joints=5), random_pose(rng, joints=6))


class TestProcrustes:
    def test_planted_rotation_translation(self):
        rng = RngStream(55, 0)
        g = random_pose(rng)
        r = random_rotation(rng)
        pred = Pose(g.joints @ r.T + np.array([50.0, -30.0, 20.0]) - (g.joints @ r.T + np.array([50.0, -30.0, 20.0]))[0], ROOT_RELATIVE)
        transform, aligned = procrustes_align(pred, g)
        assert np.allclose(aligned, g.joints, atol=1e-8)
        # the recovered rotation undoes the planted one
        assert np.allclose(transform.rotation @ r, np.eye(3), atol=1e-8)
        assert transform.scale == pytest.approx(1.0)

    def test_identity(self):
        rng = RngStream(56, 0)
        g = random_pose(rng)
        transform, aligned = procrustes_align(g, g)
        assert np.allclose(transform.rotation, np.eye(3), atol=1e-9)
        assert transform.scale == pytest.approx(1.0)
        assert np.allclose(aligned, g.joints, atol=1e-9)

    def test_pure_scale(self):
        rng = RngStream(57, 0)
        g = random_pose(rng)
        pred = Pose(2.0 * g.joints, ROOT_RELATIVE)
        transform, aligned = procrustes_align(pred, g)
        assert transform.scale == pytest.approx(0.5)
        assert np.allclose(aligned, g.joints, atol=1e-8)

    def test_collinear_gt_rejected(self):
        line = np.zeros((5, 3))
        line[:, 0] = np.arange(5.0)
        pred = random_pose(RngStream(58, 0), joints=5)
        with pytest.raises(AlignmentError):
            procrustes_align(pred, Pose(line, ROOT_RELATIVE))

    def test_optimality_against_random_transforms(self):
        rng = RngStream(59, 0)
        p, g = random_pose(rng), random_pose(rng)
        _, aligned = procrustes_align(p, g)
        best = np.sum((aligned - g.joints) ** 2)
        for _ in range(100):
            r = random_rotation(rng)
            s = rng.uniform(0.5, 2.0)
            t = 50.0 * rng.standard_normal(3)
            candidate = SimilarityTransform(r, s, t).apply(p.joints)
            assert best <= np.sum((candidate - g.joints) ** 2) + 1e-9


class TestPaMpjpe:
    def test_rotated_prediction_scores_zero(self):
        rng = RngStream(60, 0)
        g = random_pose(rng)
        r = random_rotation(rng)
        rotated = g.joints @ r.T
        pred = Pose(rotated - rotated[0], ROOT_RELATIVE)
        assert pa_mpjpe(pred, g) == pytest.approx(0.0, abs=1e-8)

    def test_similarity_invariance(self):
        rng = RngStream(61, 0)
        p, g = random_pose(rng), random_pose(rng)
        r = random_rotation(rng)
        morphed = 1.7 * p.joints @ r.T + np.array([9.0, 8.0, 7.0])
        morphed = Pose(morphed - morphed[0], ROOT_RELATIVE)
        assert pa_mpjpe(morphed, g) == pytest.approx(pa_mpjpe(p, g), abs=1e-8)

    def test_brute_force_agreement(self):
        rng = RngStream(62, 0)
        for _ in range(100):
            p, g = random_pose(rng), random_pose(rng)
            pj, gj = p.joints, g.joints
            p0 = pj - pj.mean(axis=0)
            g0 = gj - gj.mean(axis=0)
            u, s, vt = np.linalg.svd(p0.T @ g0)
            d = np.sign(np.linalg.det(vt.T @ u.T))
            flip = np.diag([1.0, 1.0, d])
            rot = vt.T @ flip @ u.T
            scale = np.sum(s * np.diag(flip)) / np.sum(p0 * p0)
            aligned = scale * p0 @ rot.T + gj.mean(axis=0)
            want = np.mean(np.linalg.norm(aligned - gj, axis=1))
            assert pa_mpjpe(p, g) == pytest.approx(want, abs=1e-9)


class TestPck:
    def test_exact_match(self):
        p = random_pose(RngStream(63, 0))
        assert pck(p, p) == 100.0

    def test_boundary_count(self):
        g = np.zeros((10, 3))
        g[1:] = 10.0 * RngStream(64, 0).standard_normal((9, 3))
        p = g.copy()
        p[4] += [151.0, 0.0, 0.0]
        assert pck(rel_pose(p), rel_pose(g)) == pytest.approx(90.0)

    def test_zero_threshold(self):
        rng = RngStream(65, 0)
        p, g = random_pose(rng), random_pose(rng)
        # only exactly-correct joints count at threshold 0; the shared
        # root is always exact in a root-relative comparison
        zero = np.array([0.0])
        assert _pck_at(p, g, zero)[0] == pytest.approx(100.0 / 8)
        assert _pck_at(p, p, zero)[0] == 100.0

    def test_exactly_at_threshold_excluded(self):
        g = np.zeros((4, 3))
        g[1] = [500.0, 0.0, 0.0]
        g[2] = [0.0, 500.0, 0.0]
        p = g.copy()
        p[3] = [150.0, 0.0, 0.0]
        assert pck(rel_pose(p), rel_pose(g)) == pytest.approx(75.0)


class TestAuc:
    def test_exact_match(self):
        p = random_pose(RngStream(66, 0))
        assert auc(p, p) == pytest.approx(100.0)

    def test_joints_at_max_threshold_never_count(self):
        # every non-root joint exactly 150 mm off in its own direction:
        # no threshold in [0, 150] counts it (strict at the endpoint),
        # so only the exact root contributes
        rng = RngStream(64, 1)
        joints = 50
        # quarter-millimeter grid keeps g + 150 - g exact in floating point
        g = np.round(4.0 * 300.0 * rng.standard_normal((joints, 3))) / 4.0
        g[0] = 0.0
        offsets = np.zeros((joints, 3))
        axes = rng.integers(0, 3, joints)
        signs = np.where(rng.uniform(size=joints) < 0.5, -1.0, 1.0)
        for j in range(1, joints):  # axis-aligned so the norm is exactly 150
            offsets[j, axes[j]] = 150.0 * signs[j]
        p = g + offsets
        assert auc(rel_pose(p), rel_pose(g)) == pytest.approx(100.0 / joints)

    def test_brute_force_agreement(self):
        rng = RngStream(67, 0)
        for _ in range(100):
            p, g = random_pose(rng), random_pose(rng)
            pj = p.joints - p.joints[0]
            gj = g.joints - g.joints[0]
            dist = np.linalg.norm(pj - gj, axis=1)
            total = 0.0
            for th in np.linspace(0.0, 150.0, 31):
                total += 100.0 * np.mean((dist < th) | (dist == 0.0))
            assert auc(p, g) == pytest.approx(total / 31, abs=1e-9)

    def test_equals_mean_of_pck_bitwise(self):
        rng = RngStream(67, 1)
        for _ in range(300):
            p, g = random_pose(rng), random_pose(rng)
            per_threshold = [_pck_at(p, g, np.array([th]))[0]
                             for th in np.linspace(0.0, PCK_THRESHOLD_MM, 31)]
            assert per_threshold[-1] == pck(p, g)
            assert auc(p, g) == float(np.mean(per_threshold))


class TestBestOfM:
    def test_single_hypothesis(self):
        rng = RngStream(68, 0)
        p, g = random_pose(rng), random_pose(rng)
        assert best_of_m([p], g) == pytest.approx(mpjpe(p, g))

    def test_monotone_in_m(self):
        rng = RngStream(69, 0)
        g = random_pose(rng)
        hyps = [random_pose(rng) for _ in range(20)]
        values = [best_of_m(hyps[: m + 1], g) for m in range(20)]
        assert all(values[i + 1] <= values[i] for i in range(19))

    def test_contains_ground_truth(self):
        rng = RngStream(70, 0)
        g = random_pose(rng)
        hyps = [random_pose(rng), g, random_pose(rng)]
        assert best_of_m(hyps, g) == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            best_of_m([], random_pose(RngStream(71, 0)))


class TestPerJointStd:
    def test_identical_hypotheses(self):
        p = random_pose(RngStream(72, 0))
        assert per_joint_std([p, p, p]) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_case(self):
        a = np.zeros((4, 3))
        a[1] = [100.0, 0.0, 0.0]
        b = a.copy()
        b[3] = [10.0, 0.0, 0.0]
        got = per_joint_std([rel_pose(a), rel_pose(b)])
        assert got == pytest.approx(5.0 / 4.0)

    def test_brute_force_agreement(self):
        rng = RngStream(73, 0)
        hyps = [random_pose(rng, joints=6) for _ in range(15)]
        stacked = np.stack([h.joints for h in hyps])
        total = 0.0
        for j in range(6):
            per_axis = [np.std(stacked[:, j, k]) for k in range(3)]
            total += np.sqrt(sum(v * v for v in per_axis))
        assert per_joint_std(hyps) == pytest.approx(total / 6, abs=1e-9)

    def test_needs_two(self):
        with pytest.raises(ValueError):
            per_joint_std([random_pose(RngStream(74, 0))])


class TestReprojectionError:
    """The one reprojection rule, `cli._mean_reprojection`."""

    ROOT = np.array([40.0, -30.0, 4000.0])

    def make_obs(self, means, valid):
        j = means.shape[0]
        return KeypointObservation(means, np.tile([1.0, 0.0, 1.0], (j, 1)), valid)

    def make_case(self, seed, behind=()):
        """One-hypothesis set with the given joints moved behind the camera,
        and the projections of the unmoved pose."""
        pose = random_pose(RngStream(seed, 0))
        means = project(to_absolute(pose, self.ROOT).joints, CAM)
        rel = pose.joints.copy()
        rel[list(behind), 2] = -self.ROOT[2] - 100.0 * np.arange(len(behind))
        return HypothesisSet(poses=[Pose(rel, ROOT_RELATIVE)], roots=self.ROOT[None]), means

    def test_exact_projection(self):
        hyp, means = self.make_case(75)
        assert _mean_reprojection(hyp, self.make_obs(means, np.ones(8, dtype=bool)), CAM) == 0.0

    def test_three_four_five(self):
        hyp, means = self.make_case(76)
        means[2] += [3.0, 4.0]
        valid = np.zeros(8, dtype=bool)
        valid[2] = True
        assert _mean_reprojection(hyp, self.make_obs(means, valid), CAM) == pytest.approx(5.0)

    def test_no_valid_joints(self):
        hyp, _ = self.make_case(77)
        obs = self.make_obs(np.zeros((8, 2)), np.zeros(8, dtype=bool))
        assert np.isnan(_mean_reprojection(hyp, obs, CAM))

    def test_behind_camera_joints_skipped(self):
        # joint 6 lies on the camera plane, joint 7 behind it
        hyp, means = self.make_case(78, behind=(6, 7))
        means[5] += [30.0, 40.0]
        obs = self.make_obs(means, np.ones(8, dtype=bool))
        assert _mean_reprojection(hyp, obs, CAM) == pytest.approx(50.0 / 6)
        only_behind = self.make_obs(means, np.arange(8) >= 6)
        assert np.isnan(_mean_reprojection(hyp, only_behind, CAM))

    def test_pools_over_hypothesis_joint_pairs(self):
        # hypothesis 0 counts joint 1 only (5 px), hypothesis 1 counts
        # joints 1-3 (5, 0, 0 px): the pooled mean is 10/4, not the
        # mean of the per-hypothesis means
        skipped, means = self.make_case(79, behind=(2, 3))
        full, _ = self.make_case(79)
        hyp = HypothesisSet(poses=skipped.poses + full.poses, roots=np.stack([self.ROOT] * 2))
        means[1] += [3.0, 4.0]
        obs = self.make_obs(means, np.isin(np.arange(8), [1, 2, 3]))
        assert _mean_reprojection(hyp, obs, CAM) == pytest.approx(2.5)
