import numpy as np
import pytest

from helpers import radius_certificate

from specbulk.equivalents import second_order
from specbulk.errors import ValidationError
from specbulk.fixed_point import solve_g
from specbulk.nonneg import (
    check_cs_radius,
    perron_left_vector,
    spectral_radius,
)

FUZZ_CASES = 1000  # the acceptance suite reruns these at 10^4


class TestSpectralRadius:
    def test_identity(self):
        assert spectral_radius(np.eye(3)) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert spectral_radius([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(0.0)

    def test_offdiagonal(self):
        assert spectral_radius([[0.0, 2.0], [3.0, 0.0]]) == pytest.approx(np.sqrt(6))

    def test_complex_input(self):
        assert spectral_radius([[1j]]) == pytest.approx(1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            spectral_radius(np.ones((2, 3)))


class TestPerron:
    def test_symmetric_ones(self):
        np.testing.assert_allclose(
            perron_left_vector([[1.0, 1.0], [1.0, 1.0]]), [0.5, 0.5]
        )

    def test_diagonal(self):
        np.testing.assert_allclose(perron_left_vector(np.diag([3.0, 1.0])), [1.0, 0.0])

    def test_hand_oracle(self):
        # v^T M = sqrt(6) v^T for M = [[0,2],[3,0]] gives v ~ (sqrt3, sqrt2)
        v = perron_left_vector([[0.0, 2.0], [3.0, 0.0]])
        s3, s2 = np.sqrt(3), np.sqrt(2)
        np.testing.assert_allclose(v, [s3 / (s3 + s2), s2 / (s3 + s2)], atol=1e-12)

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError, match="negative entry"):
            perron_left_vector([[1.0, -0.1], [0.0, 1.0]])

    def test_power_iteration_agrees(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            m = rng.uniform(0.0, 1.0, size=(5, 5))
            v_full = perron_left_vector(m, method="full_eigen")
            v_pow = perron_left_vector(m, method="power_iteration")
            np.testing.assert_allclose(v_full, v_pow, atol=1e-8)

    def test_certificate_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            m = rng.uniform(0.0, 2.0, size=(6, 6))
            cert = radius_certificate(m)
            v = cert.left_perron
            resid = np.abs(v @ m - cert.rho * v).max()
            assert resid <= 1e-10 * cert.rho


class TestCauchySchwarzRadius:
    def test_equal_matrices(self):
        m = np.array([[1.0, 2.0], [0.5, 1.0]])
        res = check_cs_radius(m, m, m)
        assert res.ok
        assert res.rho_c == pytest.approx(np.sqrt(res.rho_a * res.rho_b))

    def test_zero_c(self):
        res = check_cs_radius(np.ones((3, 3)), np.ones((3, 3)), np.zeros((3, 3)))
        assert res.ok and res.rho_c == 0.0

    def test_hypothesis_violation_names_entry(self):
        a = np.ones((2, 2))
        b = np.ones((2, 2))
        c = np.ones((2, 2))
        c[1, 0] = 1.5
        with pytest.raises(ValidationError, match=r"\(1, 0\)"):
            check_cs_radius(a, b, c)

    def test_fuzz_cs(self):
        rng = np.random.default_rng(3)
        for _ in range(FUZZ_CASES):
            n = int(rng.integers(2, 6))
            a = rng.uniform(0.0, 1.0, size=(n, n))
            b = rng.uniform(0.0, 1.0, size=(n, n))
            u = rng.uniform(-1.0, 1.0, size=(n, n))
            c = np.sqrt(a * b) * u
            assert check_cs_radius(a, b, c).ok

    def test_fuzz_monotonicity(self):
        # |A_ij| <= B_ij implies rho(A) <= rho(B)
        rng = np.random.default_rng(4)
        for _ in range(FUZZ_CASES):
            n = int(rng.integers(2, 6))
            b = rng.uniform(0.0, 1.0, size=(n, n))
            a = b * rng.uniform(-1.0, 1.0, size=(n, n))
            assert spectral_radius(a) <= spectral_radius(b) + 1e-10


class TestSolverTieIn:
    def test_omega_radius_matches_perron(self, threeclass256):
        z = 1.5 + 0.8j
        pt1 = solve_g(z, threeclass256)
        pt2 = solve_g(np.conj(z), threeclass256)
        so = second_order(pt1, pt2, threeclass256)
        omega_abs = np.abs(so.omega)
        v = perron_left_vector(omega_abs)
        assert v.min() >= 0.0
        assert spectral_radius(omega_abs) == pytest.approx(
            so.spectral_radius_omega, abs=1e-10
        )
