import dataclasses
import warnings

import numpy as np
import pytest

from helpers import form_models, log_det_quadrature, mp_params, threeclass_params

from specbulk.equivalents import (
    SecondOrderSet,
    class_trace_functional,
    first_order,
    log_det_at,
    log_det_functional,
    omega_radius_bound,
    q_bar_trace,
    qt_bar_trace,
    q_da_q_equivalent,
    qt_ca_qt_equivalent,
    qt_w_da_wt_qt_equivalent,
    second_order,
    second_order_from_equivalents,
)
from specbulk.errors import ConsistencyError, NearSupportError, ValidationError
from specbulk.fixed_point import (
    SolverOptions,
    _psi_jacobian,
    _trace_terms,
    g_derivative,
    solve_g,
)
from specbulk.model import ModelParams, validate_model
from specbulk.montecarlo import SampleSpectral, sample_w, trial_seed

OPTS = SolverOptions(tol=1e-12)

# Module-level Monte Carlo checks run at 5 standard errors: the equivalents
# carry a genuine O(1/p) trace bias that 3-sigma tests can resolve at high
# trial counts; the acceptance suite asserts the strict 3-sigma criteria.
MC_SIGMAS = 5.0


def _mc_mean_se(values):
    arr = np.asarray(values)
    return arr.mean(), arr.std(ddof=1) / np.sqrt(arr.size)


@pytest.fixture(scope="module")
def threeclass128():
    return threeclass_params(128)


class TestFirstOrder:
    def test_scalar_reduction(self):
        params = mp_params(2, 1, p=8)
        pt = solve_g(2j, params, OPTS)
        eq = first_order(pt, params)
        expected = -1.0 / (2j * (1.0 + params.c[0] * pt.g[0]))
        np.testing.assert_allclose(eq.q_tilde_bar, expected * np.eye(8), rtol=1e-12)
        np.testing.assert_allclose(eq.q_bar_diag, params.c0 * pt.g, rtol=1e-15)

    def test_large_z_asymptote(self, threeclass128):
        # the 1e-5/|z| window needs |z| well above the covariance scale
        # (deviations are of order C_max/|z|^2, with C_max ~ 40 here)
        z = 1e7j
        eq = first_order(solve_g(z, threeclass128, OPTS), threeclass128)
        assert np.abs(eq.q_bar_diag - (-1.0 / z)).max() <= 1e-5 / abs(z)
        assert np.abs(eq.q_tilde_bar - (-1.0 / z) * np.eye(128)).max() <= 1e-5 / abs(z)

    def test_trace_against_monte_carlo(self, threeclass128):
        z = -1.0
        pt = solve_g(z, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        det = q_bar_trace(eq, threeclass128)
        vals = []
        for t in range(200):
            sp = SampleSpectral(sample_w(threeclass128, trial_seed(101, t)), threeclass128)
            vals.append(sp.trace_q(z).real / threeclass128.n)
        mean, se = _mc_mean_se(vals)
        assert abs(mean - det.real) <= MC_SIGMAS * se

    @pytest.mark.parametrize("form", sorted(form_models()))
    def test_qt_bar_trace_from_stored_form(self, form):
        # the trace from the stored form, the padded entry of an odd p's odd
        # block left out, is the trace of the expanded p x p Qtbar
        params = form_models()[form]
        for z in (2.0 + 1.0j, -0.5):
            eq = first_order(solve_g(z, params, OPTS), params)
            ref = np.trace(eq.q_tilde_bar) / params.p
            assert abs(qt_bar_trace(eq, params) - ref) <= 1e-14 * abs(ref)

    def test_trace_consistency_rejects_edited_point(self):
        # a point from solve_g agrees with its own traces; one whose g_tilde
        # no longer matches its g must be refused
        params = threeclass_params(64)
        pt = solve_g(-1.0, params, OPTS)
        first_order(pt, params)
        edited = dataclasses.replace(pt, g_tilde=pt.g_tilde + 1e-6)
        with pytest.raises(ConsistencyError, match="disagrees with gt_a"):
            first_order(edited, params)

    def test_inversion_residual_rejects_near_singular_mixture(self):
        # g a relative 1e-10 short of where M = I + sum c_b g_b C_b turns
        # singular, with g_tilde consistent with it: the inversion of M
        # leaves a residual near 1e-7, which Qtbar may not carry
        params = form_models()["one_block"]
        z = 1.0 + 0.5j
        lam = np.linalg.eigvalsh(np.tensordot(params.c, params.blocks, 1)).max()
        g = np.full(params.k, -(1.0 - 1e-10) / lam, dtype=complex)
        t, _ = _trace_terms(g, z, params)
        edited = dataclasses.replace(solve_g(z, params, OPTS), g=g, g_tilde=-t / z)
        with pytest.raises(NearSupportError, match="solved to only"):
            first_order(edited, params)


class TestSecondOrder:
    def test_conjugate_pair_is_nonnegative(self, threeclass128):
        z = 1.5 + 0.5j
        so = second_order(
            solve_g(z, threeclass128, OPTS),
            solve_g(np.conj(z), threeclass128, OPTS),
            threeclass128,
        )
        assert np.abs(so.omega.imag).max() <= 1e-12
        assert so.omega.real.min() >= -1e-12

    @pytest.mark.parametrize("eta, warns", [(1e-9, True), (1e-6, False)])
    def test_ill_conditioned_warning(self, eta, warns):
        # on the conjugate pair 1.5 +- i eta inside the bulk (0.17, 5.83),
        # 1 - rho(Omega) is about 0.83 eta: within 1e-8 of 1 at eta = 1e-9,
        # where R = (I - Omega)^{-1} Omega amplifies by about 1e9, and not
        # at eta = 1e-6
        params = mp_params(1, 2, p=16)
        points = (solve_g(1.5 + 1j * eta, params, OPTS),
                  solve_g(1.5 - 1j * eta, params, OPTS), params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if warns:
                with pytest.warns(RuntimeWarning, match="R is ill-conditioned"):
                    so = second_order(*points)
            else:
                so = second_order(*points)
        assert 1.0 - so.spectral_radius_omega == pytest.approx(0.834 * eta, rel=1e-3)

    def test_radius_at_one_or_more_rejected(self):
        # Qtbar scaled until rho(Omega), quadratic in it, reaches 1.5: the
        # kernel is refused, not returned with a warning
        params = mp_params(1, 2, p=16)
        eq = first_order(solve_g(1.5 + 0.1j, params, OPTS), params)
        rho = second_order_from_equivalents(eq, eq, params).spectral_radius_omega
        scaled = dataclasses.replace(eq, q_tilde=eq.q_tilde * np.sqrt(1.5 / rho))
        with pytest.raises(NearSupportError, match="rho"):
            second_order_from_equivalents(scaled, scaled, params)

    def test_scalar_response(self):
        params = mp_params(1, 1, p=8)
        pt = solve_g(2j, params, OPTS)
        so = second_order(pt, pt, params)
        omega = so.omega[0, 0]
        np.testing.assert_allclose(so.r[0, 0], omega / (1 - omega), rtol=1e-12)

    def test_radius_below_one_and_bound(self, threeclass128):
        z = 2j
        so = second_order(
            solve_g(z, threeclass128, OPTS),
            solve_g(np.conj(z), threeclass128, OPTS),
            threeclass128,
        )
        bound = omega_radius_bound(z, np.conj(z), threeclass128)
        assert so.spectral_radius_omega < 1.0
        assert so.spectral_radius_omega <= bound + 1e-9

    def test_mixed_points_radius(self, threeclass128):
        so = second_order(
            solve_g(2j, threeclass128, OPTS),
            solve_g(-1.0, threeclass128, OPTS),
            threeclass128,
        )
        assert so.spectral_radius_omega < 1.0

    def test_response_symmetry_relation(self, threeclass128):
        # r_da(z2,z1) c_a g_a(z1) g_a(z2) = r_ad(z1,z2) c_d g_d(z1) g_d(z2)
        z1, z2 = 2j, -1.0 + 0j
        pt1 = solve_g(z1, threeclass128, OPTS)
        pt2 = solve_g(z2, threeclass128, OPTS)
        so12 = second_order(pt1, pt2, threeclass128)
        so21 = second_order(pt2, pt1, threeclass128)
        c = threeclass128.c
        g1, g2 = pt1.g, pt2.g
        for a in range(3):
            for d in range(3):
                lhs = so21.r[d, a] * c[a] * g1[a] * g2[a]
                rhs = so12.r[a, d] * c[d] * g1[d] * g2[d]
                assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-12)

    def test_derivative_identity_closes(self, threeclass128):
        # d/dz m(z) from the kernel matches the numerical derivative
        z = 3.0 + 2.0j
        h = 1e-4
        opts = SolverOptions(tol=1e-14)
        pt = solve_g(z, threeclass128, opts)
        dm = threeclass128.c0 * complex(
            threeclass128.c @ g_derivative(pt, threeclass128)
        )
        m_plus = solve_g(z + h, threeclass128, opts).m_mu
        m_minus = solve_g(z - h, threeclass128, opts).m_mu
        fd = (m_plus - m_minus) / (2 * h)
        assert abs(dm - fd) / abs(fd) <= 1e-5
        # g' solves with the Jacobian of Psi, which at the fixed point is Omega(z, z)
        t, minv = _trace_terms(pt.g, z, threeclass128)
        jac = _psi_jacobian(t, minv, z, threeclass128)
        omega = second_order(pt, pt, threeclass128).omega
        assert np.abs(jac - omega).max() <= 1e-10 * np.abs(omega).max()

    def test_radius_below_one_random_models(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            p = 16
            sizes = tuple(int(rng.integers(1, 5)) * 2 for _ in range(k))
            covs = tuple(
                np.diag(rng.uniform(0.1, 3.0, size=p)) for _ in range(k)
            )
            params = validate_model(
                ModelParams(p=p, class_sizes=sizes, covariances=covs)
            )
            z = complex(rng.uniform(-20, 20), rng.uniform(1e-2, 10))
            so = second_order(
                solve_g(z, params), solve_g(np.conj(z), params), params
            )
            assert so.spectral_radius_omega < 1.0
            assert (so.spectral_radius_omega
                    <= omega_radius_bound(z, np.conj(z), params) + 1e-9)


class TestPairEquivalents:
    def test_q_da_q_with_zero_kernel(self, threeclass128):
        z = 2j
        pt = solve_g(z, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        so = SecondOrderSet(
            z1=z, z2=z,
            omega=np.zeros((3, 3), dtype=complex),
            r=np.zeros((3, 3), dtype=complex),
            spectral_radius_omega=0.0,
        )
        coeff = q_da_q_equivalent(so, eq, eq, 1, threeclass128)
        assert coeff[0] == 0 and coeff[2] == 0
        assert coeff[1] == pytest.approx(
            threeclass128.c0**2 * pt.g[1] ** 2, rel=1e-14
        )

    def test_q_da_q_scalar(self):
        params = mp_params(2, 1, p=8)
        pt = solve_g(-1.0, params, OPTS)
        eq = first_order(pt, params)
        so = second_order(pt, pt, params)
        coeff = q_da_q_equivalent(so, eq, eq, 0, params)
        expected = params.c0**2 * pt.g[0] ** 2 * (1.0 + so.r[0, 0])
        assert coeff[0] == pytest.approx(expected, rel=1e-14)

    def test_q_da_q_exact_pair_identity(self):
        # k=1: (1/n) tr of the equivalent equals (m(z1)-m(z2))/(z1-z2)
        params = mp_params(2, 1, p=16)
        for z1, z2 in ((2j, -1.0 + 0j), (-1.0 + 0j, -2.0 + 0j)):
            pt1, pt2 = solve_g(z1, params, OPTS), solve_g(z2, params, OPTS)
            eq1, eq2 = first_order(pt1, params), first_order(pt2, params)
            so = second_order(pt1, pt2, params)
            val = complex(params.c @ q_da_q_equivalent(so, eq1, eq2, 0, params))
            exact = (pt1.m_mu - pt2.m_mu) / (z1 - z2)
            assert abs(val - exact) <= 1e-10 * abs(exact)

    def test_q_da_q_derivative_sum_rule(self, threeclass128):
        # z1 = z2: summing class blocks recovers m'(z)
        z = 2j
        pt = solve_g(z, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        so = second_order(pt, pt, threeclass128)
        total = sum(
            complex(threeclass128.c @ q_da_q_equivalent(so, eq, eq, a, threeclass128))
            for a in range(3)
        )
        dm = threeclass128.c0 * complex(
            threeclass128.c @ g_derivative(pt, threeclass128)
        )
        assert abs(total - dm) <= 1e-10 * abs(dm)

    def test_q_da_q_monte_carlo(self, threeclass128):
        z1 = z2 = -1.0
        pt = solve_g(z1, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        so = second_order(pt, pt, threeclass128)
        det = complex(threeclass128.c @ q_da_q_equivalent(so, eq, eq, 1, threeclass128))
        vals = []
        for t in range(200):
            sp = SampleSpectral(sample_w(threeclass128, trial_seed(102, t)), threeclass128)
            vals.append(sp.trace_q_pair_class(z1, z2, 1).real / threeclass128.n)
        mean, se = _mc_mean_se(vals)
        assert abs(mean - det.real) <= MC_SIGMAS * se

    def test_qt_ca_qt_with_zero_kernel(self, threeclass128):
        z = 2j
        pt = solve_g(z, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        so = SecondOrderSet(
            z1=z, z2=z,
            omega=np.zeros((3, 3), dtype=complex),
            r=np.zeros((3, 3), dtype=complex),
            spectral_radius_omega=0.0,
        )
        mat = qt_ca_qt_equivalent(so, eq, eq, 2, threeclass128)
        expected = eq.q_tilde_bar @ threeclass128.covariances[2] @ eq.q_tilde_bar
        np.testing.assert_allclose(mat, expected, rtol=1e-14)

    @pytest.mark.parametrize("form", ["diagonal_singular", "basis_k1", "one_block",
                                      "two_blocks_odd"])
    def test_qt_ca_qt_matches_dense_products(self, form):
        # the one product Qt_1 (C_a + sum_b R_ba C_b) Qt_2 against the k
        # dense triple products Qt_1 C_b Qt_2, summed with the weights R_ba
        params = form_models()[form]
        pt1 = solve_g(2.0 + 1.0j, params, OPTS)
        pt2 = solve_g(-0.5, params, OPTS)
        eq1, eq2 = first_order(pt1, params), first_order(pt2, params)
        so = second_order(pt1, pt2, params)
        for a in range(params.k):
            mat = qt_ca_qt_equivalent(so, eq1, eq2, a, params)
            ref = sum(((b == a) + so.r[b, a]) * eq1.q_tilde_bar @ cov @ eq2.q_tilde_bar
                      for b, cov in enumerate(params.covariances))
            assert np.abs(mat - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_qt_ca_qt_large_z(self, threeclass128):
        z = 1e6j
        pt = solve_g(z, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        so = second_order(pt, pt, threeclass128)
        mat = qt_ca_qt_equivalent(so, eq, eq, 1, threeclass128)
        target = threeclass128.covariances[1] / z**2
        assert np.abs(mat - target).max() <= 1e-4 * np.abs(target).max()

    def test_qt_ca_qt_monte_carlo(self):
        params = mp_params(2, 1, p=128)
        z = -1.0
        pt = solve_g(z, params, OPTS)
        eq = first_order(pt, params)
        so = second_order(pt, pt, params)
        det = np.trace(qt_ca_qt_equivalent(so, eq, eq, 0, params)).real / params.p
        vals = []
        for t in range(200):
            sp = SampleSpectral(sample_w(params, trial_seed(103, t)), params)
            vals.append(sp.trace_qt_cov_pair(z, z, 0).real / params.p)
        mean, se = _mc_mean_se(vals)
        assert abs(mean - det) <= MC_SIGMAS * se

    def test_qt_w_da_wt_qt_scale_factor(self, threeclass128):
        z1, z2 = 2j, -1.0 + 0j
        pt1 = solve_g(z1, threeclass128, OPTS)
        pt2 = solve_g(z2, threeclass128, OPTS)
        eq1 = first_order(pt1, threeclass128)
        eq2 = first_order(pt2, threeclass128)
        so = second_order(pt1, pt2, threeclass128)
        for a in range(3):
            mat = qt_w_da_wt_qt_equivalent(so, eq1, eq2, a, threeclass128)
            base = qt_ca_qt_equivalent(so, eq1, eq2, a, threeclass128)
            scale = (z1 * z2 * threeclass128.c0 * threeclass128.c[a]
                     * pt1.g[a] * pt2.g[a])
            np.testing.assert_allclose(mat, scale * base, rtol=1e-14)

    def test_qt_w_da_wt_qt_psd_at_real_z(self, threeclass128):
        z = -1.0
        pt = solve_g(z, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        so = second_order(pt, pt, threeclass128)
        mat = qt_w_da_wt_qt_equivalent(so, eq, eq, 0, threeclass128)
        assert np.abs(mat.imag).max() <= 1e-10
        sym = 0.5 * (mat.real + mat.real.T)
        assert np.abs(mat.real - sym).max() <= 1e-10
        assert np.linalg.eigvalsh(sym).min() >= -1e-10

    def test_qt_w_da_wt_qt_monte_carlo(self, threeclass128):
        # the kernel is the equivalent of Qt W D_a W^T Qt (its own proof and
        # the z -> infinity scale fix the normalization)
        z = -1.0
        pt = solve_g(z, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        so = second_order(pt, pt, threeclass128)
        det = np.trace(
            qt_w_da_wt_qt_equivalent(so, eq, eq, 0, threeclass128)
        ).real / threeclass128.p
        vals = []
        for t in range(200):
            sp = SampleSpectral(sample_w(threeclass128, trial_seed(104, t)), threeclass128)
            vals.append(
                sp.trace_wt_qt_pair_w_class(z, z, 0).real / threeclass128.p
            )
        mean, se = _mc_mean_se(vals)
        assert abs(mean - det) <= MC_SIGMAS * se

    def test_mismatched_points_rejected(self, threeclass128):
        pt1 = solve_g(2j, threeclass128, OPTS)
        pt2 = solve_g(3j, threeclass128, OPTS)
        eq1 = first_order(pt1, threeclass128)
        eq2 = first_order(pt2, threeclass128)
        so = second_order(pt1, pt1, threeclass128)
        with pytest.raises(ValidationError, match="does not match"):
            q_da_q_equivalent(so, eq1, eq2, 0, threeclass128)


class TestClassTrace:
    def test_far_negative_z_vanishes(self, threeclass128):
        z = -1e6
        pt = solve_g(z, threeclass128, OPTS)
        for a in range(3):
            val = class_trace_functional(z, a, pt, threeclass128)
            assert abs(val) <= threeclass128.class_sizes[a] * 1e-3

    def test_against_block_trace_identity(self, threeclass128):
        # z tr D_a Qbar + n_a reproduces the same value: two routes, one number
        z = -1.0
        pt = solve_g(z, threeclass128, OPTS)
        eq = first_order(pt, threeclass128)
        for a in range(3):
            route_a = class_trace_functional(z, a, pt, threeclass128)
            route_b = (z * threeclass128.class_sizes[a] * eq.q_bar_diag[a].real
                       + threeclass128.class_sizes[a])
            assert abs(route_a - route_b) <= 1e-8 * max(1.0, abs(route_a))

    def test_monte_carlo_mp(self):
        params = mp_params(1, 1, p=64)
        z = -1.0
        pt = solve_g(z, params, OPTS)
        det = class_trace_functional(z, 0, pt, params)
        vals = []
        for t in range(200):
            sp = SampleSpectral(sample_w(params, trial_seed(105, t)), params)
            vals.append(np.sum(sp.lam / (sp.lam + 1.0)))
        mean, se = _mc_mean_se(vals)
        assert abs(mean - det) <= MC_SIGMAS * se

    def test_small_negative_z_against_monte_carlo(self, threeclass128):
        z = -1e-2
        pt = solve_g(z, threeclass128, OPTS)
        det = sum(class_trace_functional(z, a, pt, threeclass128) for a in range(3))
        vals = []
        for t in range(100):
            sp = SampleSpectral(sample_w(threeclass128, trial_seed(106, t)), threeclass128)
            vals.append(np.sum(sp.lam / (sp.lam - z)))
        mean, se = _mc_mean_se(vals)
        assert abs(mean - det) <= MC_SIGMAS * se

    def test_rejects_bad_z(self, threeclass128):
        pt = solve_g(-1.0, threeclass128, OPTS)
        with pytest.raises(ValidationError):
            class_trace_functional(1.0, 0, pt, threeclass128)
        with pytest.raises(ValidationError):
            class_trace_functional(-2.0, 0, pt, threeclass128)


class TestLogDet:
    def test_degenerate_model(self):
        params = validate_model(
            ModelParams(p=8, class_sizes=(4,), covariances=(np.zeros((8, 8)),))
        )
        assert log_det_functional(1.7, params) == pytest.approx(
            8 * np.log(1.7), rel=1e-9
        )

    def test_monte_carlo_mp(self):
        params = mp_params(1, 1, p=128)
        det = log_det_functional(1.0, params, OPTS)
        vals = []
        for t in range(200):
            sp = SampleSpectral(sample_w(params, trial_seed(107, t)), params)
            vals.append(sp.log_det_shifted(1.0))
        mean, se = _mc_mean_se(vals)
        assert abs(mean - det) <= MC_SIGMAS * se

    def test_large_sigma2_scaling(self):
        params = mp_params(1, 1, p=64)
        base = log_det_functional(1e4, params, OPTS)
        quadrupled = log_det_functional(4e4, params, OPTS)
        assert quadrupled - base == pytest.approx(64 * np.log(4.0), abs=0.2)

    @pytest.mark.parametrize("model, sigma2", [
        ("threeclass64", 0.1), ("threeclass64", 1.0), ("threeclass64", 1e4),
        ("mp32", 0.5), ("mp32", 1.0), ("mp32", 4.0),
    ])
    def test_closed_form_matches_quadrature(self, model, sigma2):
        params = (threeclass_params(64) if model == "threeclass64"
                  else mp_params(1, 2, p=32))
        value = log_det_functional(sigma2, params, OPTS)
        reference = log_det_quadrature(sigma2, params, OPTS)
        assert abs(value - reference) <= 1e-9 * max(1.0, abs(reference))

    def test_sigma2_derivative_is_qtbar_trace(self):
        # d/dsigma2 of the equivalent is tr Qtbar(-sigma2)
        params = threeclass_params(64)
        sigma2, h = 1.0, 1e-5
        fd = (log_det_functional(sigma2 + h, params, OPTS)
              - log_det_functional(sigma2 - h, params, OPTS)) / (2 * h)
        eq = first_order(solve_g(-sigma2, params, OPTS), params)
        trace = np.trace(eq.q_tilde_bar).real
        assert abs(fd - trace) <= 1e-7 * abs(trace)

    @pytest.mark.parametrize("form", ["identity_p_below_n", "one_block"])
    def test_rejects_indefinite_mixture(self, form):
        # a point at z = -1 edited so that M = I + sum c_b g_b C_b has an
        # eigenvalue -1: log det M is refused, on the eigenvalues of M with
        # joint spectra and by the Cholesky factors of its blocks otherwise
        params = form_models()[form]
        if params.spectra is None:
            lam = np.linalg.eigvalsh(np.tensordot(params.c, params.blocks, 1)).max()
        else:
            lam = (params.c @ params.spectra).max()
        point = solve_g(-1.0, params, OPTS)
        edited = dataclasses.replace(point, g=np.full(params.k, -2.0 / lam, dtype=complex))
        with pytest.raises(ConsistencyError, match="not positive definite"):
            log_det_at(edited, params)

    def test_rejects_nonpositive_sigma2(self):
        params = mp_params(1, 1, p=8)
        with pytest.raises(ValidationError):
            log_det_functional(0.0, params)
        # the closed form needs a point solved on the negative real axis
        with pytest.raises(ValidationError):
            log_det_at(solve_g(2j, params), params)
