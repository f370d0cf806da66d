import numpy as np
import pytest

from poseprior.errors import DefinitenessError
from poseprior.numeric import (
    RngStream,
    SymMat2,
    eig_2x2,
    spd_inverse_2x2,
    svd_3x3,
)


def random_spd(rng, max_cond=1e6):
    lo = rng.uniform(-3, 3)
    spread = rng.uniform(0, np.log10(max_cond))
    evals = 10.0 ** np.array([lo, lo + spread])
    theta = rng.uniform(0, np.pi)
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return SymMat2.from_array(r @ np.diag(evals) @ r.T)


class TestSpdInverse:
    def test_identity(self):
        inv = spd_inverse_2x2(SymMat2(1.0, 0.0, 1.0))
        assert (inv.a, inv.b, inv.c) == (1.0, 0.0, 1.0)

    def test_diagonal(self):
        inv = spd_inverse_2x2(SymMat2(4.0, 0.0, 9.0))
        assert inv.a == pytest.approx(0.25)
        assert inv.c == pytest.approx(1.0 / 9.0)
        assert inv.b == 0.0

    def test_multiply_back_random(self):
        rng = RngStream(101, 0)
        for _ in range(1000):
            m = random_spd(rng)
            inv = spd_inverse_2x2(m)
            prod = m.as_array() @ inv.as_array()
            assert np.allclose(prod, np.eye(2), rtol=1e-10, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(DefinitenessError):
            spd_inverse_2x2(SymMat2(1.0, 2.0, 1.0))
        with pytest.raises(DefinitenessError):
            spd_inverse_2x2(SymMat2(-1.0, 0.0, 1.0))


class TestEig:
    def test_diagonal(self):
        w, v = eig_2x2(SymMat2(3.0, 0.0, 1.0))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_hand_case(self):
        # [[2,1],[1,2]] has eigenpairs (3, (1,1)/sqrt2) and (1, (1,-1)/sqrt2)
        w, v = eig_2x2(SymMat2(2.0, 1.0, 2.0))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(np.abs(v[0]), [1 / np.sqrt(2)] * 2)
        assert np.allclose(np.abs(v[1]), [1 / np.sqrt(2)] * 2)

    def test_reconstruction_random(self):
        rng = RngStream(102, 0)
        for _ in range(1000):
            arr = rng.standard_normal((2, 2))
            m = SymMat2.from_array(arr + arr.T)
            w, v = eig_2x2(m)
            assert w[0] >= w[1]
            assert np.allclose(v @ v.T, np.eye(2), atol=1e-12)
            recon = v.T @ np.diag(w) @ v
            assert np.allclose(recon, m.as_array(), atol=1e-9)

    def test_eigen_equation(self):
        m = SymMat2(2.5, -0.7, 1.1)
        w, v = eig_2x2(m)
        for wi, vi in zip(w, v):
            assert np.allclose(m.as_array() @ vi, wi * vi, atol=1e-9)


class TestSvd3x3:
    def test_identity(self):
        _, s, _ = svd_3x3(np.eye(3))
        assert np.allclose(s, 1.0)

    def test_diagonal(self):
        _, s, _ = svd_3x3(np.diag([5.0, 2.0, 1.0]))
        assert np.allclose(s, [5.0, 2.0, 1.0])

    def test_reconstruction_random(self):
        rng = RngStream(103, 0)
        for _ in range(200):
            m = rng.standard_normal((3, 3))
            u, s, v = svd_3x3(m)
            assert np.allclose(u @ np.diag(s) @ v.T, m, rtol=1e-8, atol=1e-8)
            assert np.allclose(u @ u.T, np.eye(3), atol=1e-10)
            assert np.allclose(v @ v.T, np.eye(3), atol=1e-10)
            assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-10

    def test_stack_equals_each_matrix_bitwise(self):
        stack = RngStream(104, 0).standard_normal((50, 3, 3))
        u, s, v = svd_3x3(stack)
        for k, m in enumerate(stack):
            uk, sk, vk = svd_3x3(m)
            assert np.array_equal(u[k], uk) and np.array_equal(s[k], sk)
            assert np.array_equal(v[k], vk)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            svd_3x3(np.eye(2))
        with pytest.raises(ValueError):
            svd_3x3(np.full((3, 3), np.nan))


class TestRngStream:
    def test_standard_normal_moments(self):
        draws = RngStream(2, 0).standard_normal(100_000)
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.02

    def test_fixed_seed_reproducible(self):
        a = RngStream(7, 3).standard_normal(4)
        b = RngStream(7, 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(7, 3).standard_normal(4)
        b = RngStream(7, 4).standard_normal(4)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("a,b", [
        ((-1, 0), (-2, 0)), ((-1, 0), (-1000, 0)), ((2**63, 0), (2**63 + 1, 0)),
        ((0, 2**63), (0, 2**63 + 1)),
    ], ids=["seed-minus-1-2", "seed-minus-1-1000", "seed-2^63", "stream-2^63"])
    def test_keys_at_or_above_2_63_stay_distinct(self, a, b):
        # a key passed to Philox as a list went through float64 there, which rounded these
        # pairs together; every negative seed is such a key after the 64-bit mask
        assert not np.array_equal(RngStream(*a).standard_normal(4),
                                  RngStream(*b).standard_normal(4))

    def test_top_key_draws(self):
        # a list key warned "invalid value encountered in cast", an error in this suite
        assert np.isfinite(RngStream(2**64 - 1, 0).standard_normal(4)).all()

    @pytest.mark.parametrize("key", [(0, 0), (7, 2**40), (2**63 - 1, 2**48 + 5),
                                     (123, (5 << 24) + 49)])
    def test_keys_below_2_63_draw_as_a_list_key_does(self, key):
        want = np.random.Generator(np.random.Philox(key=list(key))).standard_normal(8)
        assert np.array_equal(RngStream(*key).standard_normal(8), want)
