import numpy as np
import pytest

from poseprior.errors import InsufficientSupportError
from poseprior.geometry import ABSOLUTE_CAMERA, Camera, Pose, project
from poseprior.numeric import RngStream, SymMat2, eig_2x2, spd_inverse_2x2
from poseprior.observation import (
    Heatmap,
    KeypointObservation,
    fit_gaussian_heatmap,
    log_likelihood,
    log_likelihood_grad,
    rotate_covariance,
    scale_covariance,
    sum_sources,
)

CAM = Camera(fx=1100.0, fy=1100.0, cx=500.0, cy=500.0)


def random_setup(rng, joints=6, all_valid=False):
    pts = np.column_stack([
        rng.uniform(-800, 800, joints),
        rng.uniform(-800, 800, joints),
        rng.uniform(2500, 6000, joints),
    ])
    pose = Pose(pts, ABSOLUTE_CAMERA)
    means = project(pts, CAM) + rng.standard_normal((joints, 2)) * 20.0
    covs = np.zeros((joints, 3))
    for j in range(joints):
        a = rng.uniform(2.0, 30.0)
        c = rng.uniform(2.0, 30.0)
        b = rng.uniform(-0.5, 0.5) * np.sqrt(a * c)
        covs[j] = (a, b, c)
    valid = np.ones(joints, dtype=bool) if all_valid \
        else rng.uniform(size=joints) < 0.8
    return pose, KeypointObservation(means, covs, valid)


def naive_log_likelihood(pose, obs, cam):
    """Independent per-joint product of explicit 2D Gaussian densities."""
    total = 0.0
    for j in range(obs.num_joints):
        if not obs.valid[j]:
            continue
        a, b, c = obs.covs[j]
        sigma = np.array([[a, b], [b, c]])
        det = np.linalg.det(sigma)
        r = obs.means[j] - project(pose.joints[j], cam)
        quad = r @ np.linalg.solve(sigma, r)
        total += -np.log(2.0 * np.pi) - 0.5 * np.log(det) - 0.5 * quad
    return total


class TestLogLikelihood:
    def test_perfect_projection_isotropic(self):
        rng = RngStream(31, 0)
        pose, _ = random_setup(rng, joints=5, all_valid=True)
        sigma2 = 4.0
        obs = KeypointObservation(
            project(pose.joints, CAM),
            np.tile([sigma2, 0.0, sigma2], (5, 1)),
            np.ones(5, dtype=bool),
        )
        want = 5 * -np.log(2.0 * np.pi * sigma2)
        assert log_likelihood(pose, obs, CAM) == pytest.approx(want)

    def test_no_valid_joints(self):
        rng = RngStream(32, 0)
        pose, obs = random_setup(rng)
        empty = obs.with_validity(np.zeros(obs.num_joints, dtype=bool))
        assert log_likelihood(pose, empty, CAM) == 0.0

    def test_matches_naive_product(self):
        rng = RngStream(33, 0)
        for _ in range(50):
            pose, obs = random_setup(rng)
            got = log_likelihood(pose, obs, CAM)
            assert got == pytest.approx(naive_log_likelihood(pose, obs, CAM), rel=1e-12)

    def test_behind_camera_joint_unobserved(self):
        # valid joints at non-positive depth count as unobserved, in the
        # likelihood and in its gradient
        pts = np.array([[0.0, 0.0, -100.0], [50.0, 0.0, 0.0], [0.0, 30.0, 3000.0]])
        pose = Pose(pts, ABSOLUTE_CAMERA)
        obs = KeypointObservation(
            np.full((3, 2), 480.0), np.tile([4.0, 1.0, 9.0], (3, 1)), np.ones(3, dtype=bool))
        front = obs.with_validity(np.array([False, False, True]))
        assert log_likelihood(pose, obs, CAM) == log_likelihood(pose, front, CAM)
        grad = log_likelihood_grad(pose, obs, CAM)
        assert np.all(grad[:2] == 0.0) and np.any(grad[2] != 0.0)
        assert np.array_equal(grad, log_likelihood_grad(pose, front, CAM))

    def test_ray_invariance_per_joint(self):
        # scaling a joint along its camera ray leaves its likelihood unchanged
        rng = RngStream(34, 0)
        pose, obs = random_setup(rng, joints=3, all_valid=True)
        base = log_likelihood(pose, obs, CAM)
        for k in (0.5, 2.0):
            scaled = Pose(pose.joints * k, ABSOLUTE_CAMERA)
            assert log_likelihood(scaled, obs, CAM) == pytest.approx(base, rel=1e-12)


class TestLogLikelihoodGrad:
    def test_stationary_at_perfect_projection(self):
        rng = RngStream(35, 0)
        pose, _ = random_setup(rng, joints=4, all_valid=True)
        obs = KeypointObservation(
            project(pose.joints, CAM),
            np.tile([4.0, 0.5, 3.0], (4, 1)),
            np.ones(4, dtype=bool),
        )
        assert np.allclose(log_likelihood_grad(pose, obs, CAM), 0.0, atol=1e-12)

    def test_invalid_joint_zero_row(self):
        rng = RngStream(36, 0)
        pose, obs = random_setup(rng, joints=6)
        grad = log_likelihood_grad(pose, obs, CAM)
        assert np.all(grad[~obs.valid] == 0.0)

    def test_matches_finite_differences(self):
        rng = RngStream(37, 0)
        h = 1e-3
        for _ in range(40):
            pose, obs = random_setup(rng)
            grad = log_likelihood_grad(pose, obs, CAM)
            for j in range(pose.num_joints):
                for k in range(3):
                    d = np.zeros((pose.num_joints, 3))
                    d[j, k] = h
                    fd = (log_likelihood(Pose(pose.joints + d, ABSOLUTE_CAMERA), obs, CAM)
                          - log_likelihood(Pose(pose.joints - d, ABSOLUTE_CAMERA), obs, CAM)) / (2 * h)
                    assert abs(grad[j, k] - fd) <= max(1e-5 * abs(fd), 1e-9)

    def test_masking_leaves_other_joints_alone(self):
        rng = RngStream(38, 0)
        pose, obs = random_setup(rng, joints=6, all_valid=True)
        grad_full = log_likelihood_grad(pose, obs, CAM)
        valid = obs.valid.copy()
        valid[2] = False
        grad_masked = log_likelihood_grad(pose, obs.with_validity(valid), CAM)
        assert np.all(grad_masked[2] == 0.0)
        keep = np.ones(6, dtype=bool)
        keep[2] = False
        assert np.array_equal(grad_masked[keep], grad_full[keep])

    def test_mask_linearity(self):
        # full gradient equals the sum of single-joint gradients
        rng = RngStream(38, 1)
        pose, obs = random_setup(rng, joints=6, all_valid=True)
        total = np.zeros((6, 3))
        for j in range(6):
            only_j = np.zeros(6, dtype=bool)
            only_j[j] = True
            total += log_likelihood_grad(pose, obs.with_validity(only_j), CAM)
        assert np.allclose(total, log_likelihood_grad(pose, obs, CAM), atol=1e-12)


class TestSumSources:
    def test_single_source(self):
        g = np.arange(12.0).reshape(4, 3)
        assert np.array_equal(sum_sources([g]), g)

    def test_cancellation(self):
        g = np.arange(12.0).reshape(4, 3)
        assert np.all(sum_sources([g, -g]) == 0.0)

    def test_linearity_against_summed_likelihood(self):
        rng = RngStream(39, 0)
        pose, obs1 = random_setup(rng, all_valid=True)
        _, obs2 = random_setup(rng, all_valid=True)
        obs2 = KeypointObservation(
            project(pose.joints, CAM) + rng.standard_normal((6, 2)) * 10.0,
            obs2.covs, obs2.valid)
        summed = sum_sources([
            log_likelihood_grad(pose, obs1, CAM),
            log_likelihood_grad(pose, obs2, CAM),
        ])
        h = 1e-3
        for j in (0, 3):
            for k in range(3):
                d = np.zeros((6, 3))
                d[j, k] = h
                up = Pose(pose.joints + d, ABSOLUTE_CAMERA)
                dn = Pose(pose.joints - d, ABSOLUTE_CAMERA)
                fd = ((log_likelihood(up, obs1, CAM) + log_likelihood(up, obs2, CAM))
                      - (log_likelihood(dn, obs1, CAM) + log_likelihood(dn, obs2, CAM))) / (2 * h)
                assert abs(summed[j, k] - fd) <= max(1e-5 * abs(fd), 1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sum_sources([np.zeros((3, 3)), np.zeros((4, 3))])
        with pytest.raises(ValueError):
            sum_sources([])


def render_heatmap(center, cov, size=64, stride=1.0, origin=(0.0, 0.0)):
    xs = origin[0] + stride * np.arange(size)
    ys = origin[1] + stride * np.arange(size)
    gx, gy = np.meshgrid(xs, ys)
    d = np.stack([gx - center[0], gy - center[1]], axis=-1)
    inv = spd_inverse_2x2(cov).as_array()
    quad = np.einsum("hwi,ij,hwj->hw", d, inv, d)
    values = np.exp(-0.5 * quad)
    return Heatmap(width=size, height=size, values=values,
                   origin=np.asarray(origin, dtype=float), stride=stride)


class TestFitGaussianHeatmap:
    def test_planted_recovery(self):
        center = np.array([30.7, 25.2])
        cov = SymMat2(9.0, 2.5, 4.0)
        c, sig = fit_gaussian_heatmap(render_heatmap(center, cov))
        assert np.linalg.norm(c - center) < 0.1
        got = np.array([sig.a, sig.b, sig.c])
        assert np.allclose(got, [9.0, 2.5, 4.0], rtol=0.02)

    def test_symmetric_map_centered(self):
        center = np.array([31.5, 31.5])
        c, sig = fit_gaussian_heatmap(render_heatmap(center, SymMat2(6.0, 0.0, 6.0)))
        assert np.allclose(c, center, atol=1e-6)
        assert abs(sig.b) < 1e-8

    def test_normalization_invariance(self):
        hm = render_heatmap(np.array([20.0, 40.0]), SymMat2(5.0, -1.0, 8.0))
        scaled = Heatmap(hm.width, hm.height, 37.5 * hm.values, hm.origin, hm.stride)
        c1, s1 = fit_gaussian_heatmap(hm)
        c2, s2 = fit_gaussian_heatmap(scaled)
        assert np.allclose(c1, c2)
        assert np.allclose([s1.a, s1.b, s1.c], [s2.a, s2.b, s2.c])

    def test_respects_pixel_mapping(self):
        center = np.array([150.0, 220.0])
        cov = SymMat2(16.0, 0.0, 16.0)
        hm = render_heatmap(center, cov, size=48, stride=4.0, origin=(100.0, 150.0))
        c, _ = fit_gaussian_heatmap(hm)
        assert np.linalg.norm(c - center) < 0.1

    def test_insufficient_support(self):
        tiny = Heatmap(1, 1, np.array([[1.0]]))
        with pytest.raises(InsufficientSupportError):
            fit_gaussian_heatmap(tiny)
        with pytest.raises(InsufficientSupportError):
            fit_gaussian_heatmap(Heatmap(4, 4, np.zeros((4, 4))))

    def test_eigenvalue_clamp(self):
        # plant a thin Gaussian (sigma^2 = 0.16 px^2); recovery clamps to 0.25
        c, sig = fit_gaussian_heatmap(render_heatmap(
            np.array([32.0, 32.0]), SymMat2(9.0, 0.0, 0.16)))
        evals, _ = eig_2x2(sig)
        assert evals[1] >= 0.25 - 1e-12
        assert evals[0] == pytest.approx(9.0, rel=0.05)


class TestCovarianceEdits:
    def test_scale_identity(self):
        s = SymMat2(3.0, 1.0, 2.0)
        out = scale_covariance(s, 1.0)
        assert (out.a, out.b, out.c) == (3.0, 1.0, 2.0)

    def test_scale_arithmetic(self):
        out = scale_covariance(SymMat2(1.0, 0.0, 2.0), 4.0)
        assert (out.a, out.b, out.c) == (4.0, 0.0, 8.0)

    def test_scale_preserves_eigenvectors(self):
        rng = RngStream(40, 0)
        for _ in range(100):
            arr = rng.standard_normal((2, 2))
            m = SymMat2.from_array(arr @ arr.T + 0.5 * np.eye(2))
            _, v1 = eig_2x2(m)
            _, v2 = eig_2x2(scale_covariance(m, 3.7))
            assert np.allclose(np.abs(v1), np.abs(v2), atol=1e-9)

    def test_scale_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scale_covariance(SymMat2(1.0, 0.0, 1.0), 0.0)

    def test_rotate_identity(self):
        s = SymMat2(3.0, 1.0, 2.0)
        out = rotate_covariance(s, 0.0)
        assert np.allclose([out.a, out.b, out.c], [3.0, 1.0, 2.0])

    def test_rotate_isotropic_invariant(self):
        s = SymMat2(2.0, 0.0, 2.0)
        for theta in (0.3, 1.2, -2.0):
            out = rotate_covariance(s, theta)
            assert np.allclose([out.a, out.b, out.c], [2.0, 0.0, 2.0], atol=1e-12)

    def test_rotate_preserves_eigenvalues(self):
        rng = RngStream(41, 0)
        for _ in range(100):
            arr = rng.standard_normal((2, 2))
            m = SymMat2.from_array(arr @ arr.T + 0.1 * np.eye(2))
            theta = rng.uniform(-np.pi, np.pi)
            w1, _ = eig_2x2(m)
            w2, _ = eig_2x2(rotate_covariance(m, theta))
            assert np.allclose(w1, w2, atol=1e-9)

    def test_rotate_quarter_turn_swaps_axes(self):
        out = rotate_covariance(SymMat2(9.0, 0.0, 1.0), np.pi / 2)
        assert np.allclose([out.a, out.b, out.c], [1.0, 0.0, 9.0], atol=1e-9)

    def test_edits_preserve_definiteness(self):
        rng = RngStream(42, 0)
        for _ in range(100):
            arr = rng.standard_normal((2, 2))
            m = SymMat2.from_array(arr @ arr.T + 0.05 * np.eye(2))
            assert scale_covariance(m, rng.uniform(0.01, 100.0)).is_positive_definite()
            assert rotate_covariance(m, rng.uniform(-np.pi, np.pi)).is_positive_definite()


class TestObservationValidation:
    def test_rejects_non_pd_on_valid_joint(self):
        with pytest.raises(ValueError):
            KeypointObservation(
                np.zeros((2, 2)),
                np.array([[1.0, 2.0, 1.0], [1.0, 0.0, 1.0]]),
                np.array([True, True]),
            )

    def test_ignores_cov_on_invalid_joint(self):
        obs = KeypointObservation(
            np.zeros((2, 2)),
            np.array([[1.0, 2.0, 1.0], [1.0, 0.0, 1.0]]),
            np.array([False, True]),
        )
        assert obs.num_joints == 2

    @pytest.mark.parametrize("field,row", [("means", [np.nan, 0.0]), ("means", [0.0, np.inf]),
                                           ("covs", [np.nan, 0.0, 1.0]),
                                           ("covs", [1.0, 0.0, np.inf])],
                             ids=["nan-mean", "inf-mean", "nan-cov", "inf-cov"])
    def test_rejects_non_finite_on_valid_joint(self, field, row):
        arrays = {"means": np.zeros((3, 2)), "covs": np.tile([1.0, 0.0, 1.0], (3, 1))}
        arrays[field][1] = row
        with pytest.raises(ValueError, match=r"non-finite .* joints \[1\]"):
            KeypointObservation(arrays["means"], arrays["covs"], np.ones(3, dtype=bool))

    def test_ignores_non_finite_on_invalid_joint(self):
        means = np.array([[np.nan, 0.0], [1.0, 2.0]])
        covs = np.array([[np.nan, 0.0, 1.0], [1.0, 0.0, 1.0]])
        obs = KeypointObservation(means, covs, np.array([False, True]))
        assert obs.num_joints == 2
