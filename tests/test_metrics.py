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
    hypothesis_errors,
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


def reference_pa_mpjpe(pred, gt):
    """PA-MPJPE of one pose, computed on its own 2-D arrays as before batching."""
    p, g = pred.joints, gt.joints
    p_mean, g_mean = p.mean(axis=0), g.mean(axis=0)
    p0, g0 = p - p_mean, g - g_mean
    p_var = float(np.sum(p0 * p0))
    u, s, vh = np.linalg.svd(p0.T @ g0)
    v = vh.T
    d = np.sign(np.linalg.det(v @ u.T))
    flip = np.ones(3)
    flip[-1] = d if d != 0.0 else 1.0
    rot = v @ np.diag(flip) @ u.T
    scale = float(np.sum(s * flip)) / p_var
    translation = g_mean - scale * rot @ p_mean
    aligned = scale * p @ rot.T + translation
    return float(np.mean(np.linalg.norm(aligned - g, axis=1)))


def reference_mpjpe(pred, gt):
    p = pred.joints - pred.joints[0] if pred.frame == ABSOLUTE_CAMERA else pred.joints
    return float(np.mean(np.linalg.norm(p - gt.joints, axis=1)))


class TestHypothesisErrors:
    @pytest.mark.parametrize("m", [1, 2, 50])
    @pytest.mark.parametrize("frame", [ROOT_RELATIVE, ABSOLUTE_CAMERA])
    def test_equals_per_pose_metrics_bitwise(self, m, frame):
        rng = RngStream(160 + m, 0)
        for _ in range(5):
            gt = random_pose(rng, joints=17)
            poses = [random_pose(rng, joints=17, frame=frame) for _ in range(m)]
            errors, pa_errors = hypothesis_errors(poses, gt)
            assert errors.shape == pa_errors.shape == (m,)
            for k, pose in enumerate(poses):
                assert errors[k] == mpjpe(pose, gt) == reference_mpjpe(pose, gt)
                assert pa_errors[k] == pa_mpjpe(pose, gt) == reference_pa_mpjpe(pose, gt)
            assert best_of_m(poses, gt) == min(reference_mpjpe(p, gt) for p in poses)

    def test_takes_a_hypothesis_set(self):
        # an (M, J, 3) array, a list of Pose and a HypothesisSet give the same bits
        rng = RngStream(164, 0)
        gt = random_pose(rng)
        poses = [random_pose(rng) for _ in range(3)]
        arr = np.stack([p.joints for p in poses])
        hyp = HypothesisSet(arr, np.zeros((3, 3)))
        for form in (poses, hyp):
            for got, want in zip(hypothesis_errors(form, gt), hypothesis_errors(arr, gt)):
                assert np.array_equal(got, want)
            assert best_of_m(form, gt) == best_of_m(arr, gt)
            assert per_joint_std(form) == per_joint_std(arr)

    def test_coincident_hypothesis_raises_like_pa_mpjpe(self):
        rng = RngStream(165, 0)
        gt = random_pose(rng)
        flat = Pose(np.zeros((8, 3)), ROOT_RELATIVE)
        with pytest.raises(AlignmentError) as single:
            pa_mpjpe(flat, gt)
        with pytest.raises(AlignmentError) as batched:
            hypothesis_errors([random_pose(rng), flat], gt)
        assert str(batched.value) == str(single.value) == "prediction joints are all coincident"

    def test_ground_truth_rank_checked_once(self, monkeypatch):
        calls = []
        rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda a: calls.append(1) or rank(a))
        rng = RngStream(166, 0)
        gt = random_pose(rng)
        hypothesis_errors([random_pose(rng) for _ in range(50)], gt)
        assert len(calls) == 1

    def test_joint_count_mismatch(self):
        rng = RngStream(167, 0)
        with pytest.raises(ValueError, match="joint count mismatch"):
            hypothesis_errors([random_pose(rng, joints=5)], random_pose(rng, joints=6))


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


class TestFarOffPoses:
    """Poses at or above 2^400 mm are scored in units of 2^k mm: every square and product of
    coordinates stays finite, and each figure is the scale times the unscaled one."""

    @pytest.mark.parametrize("scale", [2.0**300, 2.0**401, 1e155, 1e303])
    def test_figures_scale_with_the_poses(self, scale):
        rng = RngStream(170, 0)
        gt = random_pose(rng, joints=17)
        poses = np.stack([random_pose(rng, joints=17).joints for _ in range(4)])
        errors, pa_errors = hypothesis_errors(poses, gt)
        far_errors, far_pa = hypothesis_errors(scale * poses, Pose(scale * gt.joints))
        np.testing.assert_allclose(far_errors, scale * errors, rtol=1e-12)
        np.testing.assert_allclose(far_pa, scale * pa_errors, rtol=1e-12)
        assert best_of_m(scale * poses, Pose(scale * gt.joints)) == far_errors.min()
        assert per_joint_std(scale * poses) == pytest.approx(scale * per_joint_std(poses),
                                                             rel=1e-12)
        transform, aligned = procrustes_align(Pose(scale * poses[0]), Pose(scale * gt.joints))
        near, _ = procrustes_align(Pose(poses[0]), gt)
        assert transform.scale == pytest.approx(near.scale, rel=1e-12)
        np.testing.assert_allclose(aligned, transform.apply(scale * poses[0]), rtol=1e-9)

    @pytest.mark.parametrize("scale", [1e155, 1e303])
    def test_far_off_copy_of_the_ground_truth(self, scale):
        # the ground truth scaled: its MPJPE is (scale - 1) times the mean joint distance
        # from the root, and Procrustes undoes the scale
        gt = random_pose(RngStream(171, 0), joints=17)
        errors, pa_errors = hypothesis_errors([scale * gt.joints], gt)
        mean_norm = np.mean(np.linalg.norm(gt.joints, axis=1))
        assert errors[0] == pytest.approx(scale * mean_norm, rel=1e-12)
        assert pa_errors[0] < 1e-9 * mean_norm
        assert pck(Pose(scale * gt.joints), gt) == pytest.approx(100.0 / 17)  # the root

    def test_each_pose_has_its_own_units(self):
        # one far-off hypothesis leaves the bits of the others as they are, and
        # Procrustes scales it back to the ground truth's size
        rng = RngStream(172, 0)
        gt = random_pose(rng, joints=17)
        poses = np.stack([random_pose(rng, joints=17).joints for _ in range(3)])
        mixed = poses.copy()
        mixed[1] *= 1e300
        for got, want in zip(hypothesis_errors(mixed, gt), hypothesis_errors(poses, gt)):
            assert got[0] == want[0] and got[2] == want[2]
        errors, pa_errors = hypothesis_errors(mixed, gt)
        assert errors[1] > 1e300 and pa_errors[1] < 1000.0

    def test_a_figure_beyond_float64_reads_inf(self):
        gt = random_pose(RngStream(173, 0), joints=5)
        far = np.full((1, 5, 3), 1.5e308)
        far[0, 0] = 0.0
        far[0, 1:, 0] = -1.5e308
        errors, pa_errors = hypothesis_errors(far, gt)
        assert errors[0] == np.inf and np.isfinite(pa_errors[0])


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
        return HypothesisSet(rel[None], self.ROOT[None]), means

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
        hyp = HypothesisSet(np.concatenate([skipped.joints, full.joints]),
                            np.stack([self.ROOT] * 2))
        means[1] += [3.0, 4.0]
        obs = self.make_obs(means, np.isin(np.arange(8), [1, 2, 3]))
        assert _mean_reprojection(hyp, obs, CAM) == pytest.approx(2.5)

    def test_equals_per_hypothesis_projection_bitwise(self):
        # the batched rule gives the bits of projecting each hypothesis on
        # its own and summing its residuals in hypothesis order
        rng = RngStream(80, 0)
        poses, roots = [], []
        for m in range(7):
            rel = random_pose(rng).joints.copy()
            if m in (2, 5):
                rel[[3, 6], 2] = -self.ROOT[2] - 50.0      # behind the camera
            if m == 4:
                rel[1:, 2] = -self.ROOT[2] - 10.0          # only the root in front
            poses.append(Pose(rel, ROOT_RELATIVE))
            roots.append(self.ROOT + 30.0 * rng.standard_normal(3))
        hyp = HypothesisSet(poses, np.stack(roots))
        means = project(to_absolute(poses[0], roots[0]).joints, CAM) \
            + rng.standard_normal((8, 2))
        obs = self.make_obs(means, np.arange(8) != 0)
        total, count = 0.0, 0
        for pose, root in zip(poses, roots):
            joints = to_absolute(pose, root).joints
            ok = obs.valid & (joints[:, 2] > 0.0)
            if np.any(ok):
                residual = np.linalg.norm(project(joints[ok], CAM) - means[ok], axis=1)
                total += float(residual.sum())
                count += residual.size
        assert _mean_reprojection(hyp, obs, CAM) == total / count
