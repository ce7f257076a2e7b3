import numpy as np
import pytest

from helpers import mixture_matrix, mp_params, mp_stieltjes, psi_step, threeclass_params

from specbulk import fixed_point
from specbulk.equivalents import second_order
from specbulk.errors import ConsistencyError, ValidationError
from specbulk.fixed_point import (
    SolverOptions,
    _check_admissible,
    g_derivative,
    initial_guess,
    solve_g,
    solve_grid,
)
from specbulk.model import ModelParams, validate_model


class TestPsiStep:
    def test_zero_start_single_class(self):
        # with g = 0 the inner matrix is I and the trace term equals 1
        params = mp_params(1, 1, p=8)
        f = psi_step(np.zeros(1, dtype=complex), 2j, params)
        np.testing.assert_allclose(f, [-1.0 / (2j - 1.0)], rtol=1e-15)

    def test_closed_form_solution_is_fixed(self):
        params = mp_params(2, 1, p=8)
        g_star = np.array([mp_stieltjes(2j, 2.0) / 2.0])
        f = psi_step(g_star, 2j, params)
        assert np.abs(f - g_star).max() <= 1e-14 * np.abs(g_star).max()

    def test_symmetric_classes_stay_symmetric(self):
        cov = np.eye(6)
        params = validate_model(
            ModelParams(p=6, class_sizes=(3, 3), covariances=(cov, cov))
        )
        g = np.array([0.1 + 0.2j, 0.1 + 0.2j])
        f = psi_step(g, 1 + 1j, params)
        assert f[0] == f[1]


class TestSolveG:
    def test_large_z_asymptote(self, threeclass256):
        for params in (mp_params(2, 1, p=8), threeclass256):
            point = solve_g(1e9j, params)
            assert np.abs(params.c0 * 1e9j * point.g + 1.0).max() <= 1e-6

    def test_mp_closed_form_negative_axis(self):
        params = mp_params(2, 1, p=16)
        point = solve_g(-1.0, params)
        m = params.c0 * complex(params.c @ point.g)
        ref = mp_stieltjes(-1.0 + 0j, 2.0)
        assert m.real > 0 and abs(m.imag) < 1e-12
        assert abs(m - ref) <= 1e-10 * abs(ref)

    def test_mp_against_eigenvalue_average(self):
        # brute-force oracle: spectral average of 1/(lam - z) at p = 4096
        from specbulk.montecarlo import sample_w

        params = mp_params(2, 1, p=4096)
        sample = sample_w(params, 123)
        m_emp = np.mean(1.0 / (sample.eigenvalues_wtw + 1.0))
        point = solve_g(-1.0, mp_params(2, 1, p=16))
        m_det = 2.0 * point.g[0].real
        assert abs(m_emp - m_det) <= 1e-3

    def test_conjugate_symmetry(self, threeclass256):
        z = 1.3 + 0.7j
        up = solve_g(z, threeclass256)
        dn = solve_g(np.conj(z), threeclass256)
        np.testing.assert_allclose(dn.g, np.conj(up.g), rtol=1e-9)
        np.testing.assert_allclose(dn.m_mu, np.conj(up.m_mu), rtol=1e-9)

    def test_consistency_relation(self, threeclass256):
        # c0 g_a = -1/(z (1 + gt_a))
        z = 0.8 + 0.5j
        pt = solve_g(z, threeclass256)
        lhs = threeclass256.c0 * pt.g
        rhs = -1.0 / (z * (1.0 + pt.g_tilde))
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(lhs).max()

    def test_uniqueness_from_random_starts(self):
        params = threeclass_params(64)
        z = 1.0 + 2.0j
        opts = SolverOptions(tol=1e-12)
        reference = solve_g(z, params, opts)
        rng = np.random.default_rng(8)
        cap = 1.0 / (params.c0 * z.imag)
        for _ in range(16):
            g0 = rng.uniform(-1, 1, 3) * cap + 1j * rng.uniform(0, 1, 3) * cap
            pt = solve_g(z, params, opts, warm_start=g0)
            assert np.abs(pt.g - reference.g).max() <= 10 * opts.tol * np.abs(
                reference.g
            ).max()

    def test_half_plane_constraints(self, threeclass256):
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = complex(rng.uniform(-5, 28), rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 1))
            pt = solve_g(z, threeclass256)
            sign = np.sign(z.imag)
            assert (sign * pt.g.imag >= 0).all()
            assert (sign * (z * pt.g).imag >= -1e-13).all()
            assert (threeclass256.c0 * np.abs(pt.g) <= 1 / abs(z.imag) * (1 + 1e-9)).all()

    def test_stieltjes_asymptote_rate(self):
        # |c0 z g + 1| <= C'/y along z = iy: the constant fitted on the
        # lower decade must keep bounding the tail (the 1/y law sets in
        # once y clears the covariance scale C_max ~ 40)
        params = threeclass_params(64)
        ys = np.logspace(0, 6, 13)
        devs = []
        for y in ys:
            pt = solve_g(1j * y, params)
            devs.append(np.abs(params.c0 * 1j * y * pt.g + 1.0).max())
        scaled = np.asarray(devs) * ys
        c_fit = scaled[ys <= 100.0].max()
        assert (scaled[ys > 100.0] <= 1.05 * c_fit).all()

    def test_banach_regime_monotone_residuals(self):
        # pure undamped Picard above the contraction threshold, checked
        # down to just above the floating-point noise floor
        params = threeclass_params(64)
        eta0 = params.c_max * np.sqrt(2 * params.k / params.c0)
        z = 1.0 + 1.1j * eta0
        g = initial_guess(z, params)
        resids = []
        for _ in range(60):
            f = psi_step(g, z, params)
            resid = np.abs(f - g).max() / np.abs(g).max()
            if resid < 1e-13:
                break
            resids.append(resid)
            g = f
        assert len(resids) >= 5
        assert all(r2 < r1 for r1, r2 in zip(resids, resids[1:]))

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            solve_g(0.0, mp_params(1, 1, p=4))

    @pytest.mark.parametrize("model, z, warm_z, extra", [
        ("threeclass", 2 + 1j, None, 0),
        # certified by the real-axis Newton: no projection, no re-trace
        ("threeclass", -1.0, None, 0),
        # the warm trial from across the gap stalls within its budget and
        # the ladder solves the point cold; both count
        ("threeclass", 0.9 + 1e-6j, 2 + 1e-6j, 0),
        # the commuting fast path: the ladder next to the axis, the real
        # Newton at -1 and a warm start from across the bulk
        ("mp", 1.5 + 1e-6j, None, 0),
        ("mp", -1.0, None, 0),
        ("mp", 1.0 + 1e-3j, 5.0 + 1e-3j, 0),
    ], ids=["(2+1j)-0", "-1.0-0", "(0.9+1e-06j)-warm-0",
            "mp-(1.5+1e-06j)-0", "mp--1.0-0", "mp-(1+0.001j)-warm-0"])
    def test_one_inversion_per_evaluation(self, monkeypatch, model, z, warm_z, extra):
        # g_tilde comes from the traces of the last evaluation
        params = threeclass_params(64) if model == "threeclass" else mp_params(1, 2, p=16)
        warm = None if warm_z is None else solve_g(warm_z, params).g
        calls = []
        inner = fixed_point._trace_terms

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(fixed_point, "_trace_terms", counted)
        point = solve_g(z, params, warm_start=warm)
        assert len(calls) == point.iterations + extra

    @pytest.mark.parametrize("z", [1 + 0.5j, 0.3 + 0.01j, 2 + 1e-3j])
    def test_wrong_branch_warm_start(self, z):
        # the other root of z m^2 + (c0 z - c0 + 1) m + c0 = 0 is a fixed
        # point of Psi with the wrong half-plane signs: the warm trial
        # converges on it in one evaluation and is rejected, and the ladder
        # solves the point as it does cold
        params = mp_params(1, 2, p=16)
        c0 = params.c0
        ref = mp_stieltjes(z, c0)
        other = -(c0 * z - c0 + 1.0) / z - ref  # the roots sum to -b/z
        cold = solve_g(z, params)
        point = solve_g(z, params, warm_start=[other / c0])
        assert abs(point.m_mu - ref) <= 1e-10 * abs(ref)
        assert point.iterations == cold.iterations + 1

    def test_warm_start_across_gap(self):
        # from 2 + 1e-6j in the gap (1.13, 4.23) into the lower component
        # at 0.9: the warm trial stalls, and costs no more than its budget
        # on top of the cold solve
        params = threeclass_params(64)
        z = 0.9 + 1e-6j
        warm = solve_g(2 + 1e-6j, params).g
        cold = solve_g(z, params)
        point = solve_g(z, params, warm_start=warm)
        assert np.abs(point.g - cold.g).max() <= 1e-10 * np.abs(cold.g).max()
        assert point.iterations <= fixed_point._TRIAL_EVALS + cold.iterations

    # reference g of three-class p=64 from the fixed halving ladder
    @pytest.mark.parametrize("z, g_ref", [
        (-1.0, [0.06599996431337712, 0.013950993879113506, 0.007884205165979671]),
        (100.0, [-0.0012628121018899419, -0.0013758525072083744,
                 -0.0015117283063145923]),
        (5 + 1e-3j, [-0.029252216401092386 + 0.0010245624846201065j,
                     0.04517585094736611 + 0.04471040339542178j,
                     0.01606602199596026 + 0.006477066639072986j]),
        (2.68, [-0.06819101799325199, 0.02594945780459073, 0.011141258514295848]),
    ])
    def test_cold_solve_cost(self, z, g_ref):
        # the halving ladder took 79, 71, 47 and 85 evaluations here; the
        # real points -1 and 100 are certified by the real-axis Newton from
        # the asymptote, 2.68 in the gap falls back to the ladder and a
        # second real-axis trial from its g. The ladder's levels start from
        # the cubic Hermite predictor: 5 + 1e-3j takes 19 evaluations, 29
        # with the secant predictor
        params = threeclass_params(64)
        point = solve_g(z, params)
        g_ref = np.asarray(g_ref, dtype=complex)
        assert np.abs(point.g - g_ref).max() <= 1e-10 * np.abs(g_ref).max()
        assert point.iterations <= 35
        if z in (-1.0, 100.0):
            assert point.iterations <= 12
        if z == 5 + 1e-3j:
            assert point.iterations <= 22
        if isinstance(z, float):
            assert second_order(point, point, params).spectral_radius_omega < 1.0

    @pytest.mark.parametrize("warm", [None, [-0.013475, -0.032456, 0.148502]],
                             ids=["cold", "warm-real-root"])
    def test_real_point_inside_support_rejected(self, warm):
        # x = 10 lies in the upper component (4.2, 26.5). The warm start is
        # next to a real fixed point there whose kernel has rho(Omega) ~ 6:
        # the real-axis Newton converges to it and only the certificate
        # rejects it. The trial from the ladder's g at Im z = 1e-9 is not
        # certified either
        with pytest.raises(ConsistencyError, match="not certified"):
            solve_g(10.0, threeclass_params(64), warm_start=warm)

    def test_spurious_real_root_after_ladder_rejected(self):
        # x = 6.43 lies in the upper component. The trial from the real
        # part of the ladder's g at Im z = 1e-9 converges within its budget
        # to a real fixed point whose kernel has rho(Omega) ~ 14, so only
        # the certificate of that second trial rejects it
        with pytest.raises(ConsistencyError, match="not certified"):
            solve_g(6.43, threeclass_params(64))

    @pytest.mark.parametrize("aggressive", [False, True])
    @pytest.mark.parametrize("x", [-0.125, -0.01, 0.01, 0.125])
    def test_ladder_backs_off_near_atom(self, monkeypatch, x, aggressive):
        # atom of mass 1/2 at zero, continuous part from 0.17. The default
        # step schedule never rejects a level here; counting every level as
        # quick and growing the ratio by 1e6 makes capped levels stall and,
        # at x = +-0.01, land on the wrong branch. The ladder must step back
        # to the admissible root
        if aggressive:
            monkeypatch.setattr(fixed_point, "_LADDER_QUICK", 10)
            monkeypatch.setattr(fixed_point, "_LADDER_GROWTH", 1e6)
        params = mp_params(1, 2, p=16)
        for eta in (0.0, 1e-9, 1e-6, 0.1):
            z = complex(x, eta)
            point = solve_g(z, params)
            ref = mp_stieltjes(z, params.c0)
            assert abs(point.m_mu - ref) <= 1e-10 * abs(ref)
            if eta:
                _check_admissible(point.z, point.g, params)

    def test_unvalidated_params_rejected(self):
        raw = ModelParams(p=4, class_sizes=(4,), covariances=(np.eye(4),))
        with pytest.raises(ValidationError, match="validate_model"):
            solve_g(2j, raw)


class TestSolveGrid:
    def test_single_point_matches_solve_g(self):
        params = mp_params(1, 1, p=8)
        single = solve_grid([2j], params)[0]
        direct = solve_g(2j, params)
        np.testing.assert_allclose(single.g, direct.g, rtol=1e-12)

    def test_conjugate_pairs(self):
        params = mp_params(2, 1, p=8)
        pts = solve_grid([1 + 1j, 1 - 1j, 2 + 0.5j, 2 - 0.5j], params)
        np.testing.assert_allclose(pts[1].g, np.conj(pts[0].g), rtol=1e-10)
        np.testing.assert_allclose(pts[3].g, np.conj(pts[2].g), rtol=1e-10)

    def test_real_points_rejected(self):
        with pytest.raises(ValidationError, match="explicit eta"):
            solve_grid([2j, 1.0], mp_params(1, 1, p=4))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            solve_grid([], mp_params(1, 1, p=4))

    def test_error_annotated_with_index(self):
        from specbulk.errors import NonConvergenceError

        params = mp_params(1, 1, p=4)
        starved = SolverOptions(tol=1e-12, max_iter=3)
        with pytest.raises(NonConvergenceError, match="grid index 1") as info:
            solve_grid([1e9j, 0.5 + 1e-8j], params, starved)
        # the annotated exception keeps its context fields
        assert info.value.z is not None
        assert info.value.residual is not None
        assert info.value.iterations is not None

    def test_sweep_cost(self):
        # the cubic Hermite predictor plus the Newton corrector on the
        # shipped density grid (3.3 evaluations a point with the secant
        # predictor, 2.4 with the Hermite one); cold solves at spread points
        # give the same g
        params = threeclass_params(64)
        zs = np.linspace(0.0, 30.0, 601) + 0.005j
        pts = solve_grid(zs, params)
        evals = sum(pt.iterations for pt in pts)
        assert evals <= 2.5 * len(zs)
        for i in (1, 150, 300, 450, 600):
            cold = solve_g(zs[i], params)
            assert np.abs(pts[i].g - cold.g).max() <= 1e-10 * np.abs(cold.g).max()

    def test_sweep_slope_matches_derivative(self, monkeypatch):
        # the slope the sweep predicts from, taken from the Jacobian the
        # point's own corrector built, is g'(z) at the solved point
        params = threeclass_params(64)
        zs = np.linspace(0.0, 30.0, 601) + 0.005j
        slopes = {}
        predict = fixed_point._predict

        def recording(z, z1, g1, d1, z0, g0, d0):
            slopes[z1] = d1
            return predict(z, z1, g1, d1, z0, g0, d0)

        monkeypatch.setattr(fixed_point, "_predict", recording)
        pts = solve_grid(zs, params)
        for i in (1, 150, 300, 450, 599):
            ref = g_derivative(pts[i], params)
            assert np.abs(slopes[zs[i]] - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_predictor_across_support_gap(self):
        # uneven steps from below the lower component (0.66, 1.13) into it,
        # across the gap to 4.23 and deep into the upper component: the
        # predictor may start far off, the answer may not
        params = threeclass_params(64)
        xs = [0.5, 0.55, 0.9, 2.0, 2.05, 3.0, 20.0]
        pts = solve_grid([x + 1e-3j for x in xs], params)
        for x, pt in zip(xs, pts):
            cold = solve_g(x + 1e-3j, params)
            assert np.abs(pt.g - cold.g).max() <= 1e-10 * np.abs(cold.g).max()
            _check_admissible(pt.z, pt.g, params)

    def test_predictor_kept_in_half_plane(self):
        # next to the hard edge at zero (c0 = 1, g ~ z^{-1/2}) the secant
        # through g(0.002i) and g(0.02 + 0.002i) lands in the lower
        # half-plane; starting from the last solution takes a few steps
        params = mp_params(1, 1, p=32)
        pts = solve_grid([0.002j, 0.02 + 0.002j, 0.04 + 0.002j], params)
        cold = solve_g(0.04 + 0.002j, params)
        assert np.abs(pts[2].g - cold.g).max() <= 1e-10 * np.abs(cold.g).max()
        assert pts[2].iterations <= 10

    def test_eta_descent_stabilizes(self, threeclass256):
        # inside the bulk the density stabilizes between eta=1e-3 and 1e-4
        d3 = solve_g(5.0 + 1e-3j, threeclass256).m_mu.imag / np.pi
        d4 = solve_g(5.0 + 1e-4j, threeclass256).m_mu.imag / np.pi
        assert abs(d3 - d4) / d4 <= 5e-3


class TestDerivative:
    def test_large_z_asymptote(self):
        params = mp_params(2, 1, p=8)
        pt = solve_g(1e6j, params)
        d = g_derivative(pt, params)
        np.testing.assert_allclose(d, [1.0 / (params.c0 * (1e6j) ** 2)], rtol=1e-5)

    def test_matches_finite_differences_mp(self):
        params = mp_params(2, 1, p=16)
        opts = SolverOptions(tol=1e-14)
        pt = solve_g(-1.0, params, opts)
        d = g_derivative(pt, params)
        h = 1e-5
        fd = (solve_g(-1.0 + h, params, opts).g - solve_g(-1.0 - h, params, opts).g) / (2 * h)
        assert np.abs(d - fd).max() / np.abs(fd).max() <= 1e-6

    def test_matches_finite_differences_threeclass(self, threeclass256):
        opts = SolverOptions(tol=1e-14)
        pt = solve_g(2j, threeclass256, opts)
        d = g_derivative(pt, threeclass256)
        h = 1e-5
        fd = (solve_g(2j + h, threeclass256, opts).g
              - solve_g(2j - h, threeclass256, opts).g) / (2 * h)
        assert np.abs(d - fd).max() / np.abs(fd).max() <= 1e-6


class TestSolverOptions:
    def test_validation(self):
        with pytest.raises(ValidationError):
            SolverOptions(tol=0.0)
        with pytest.raises(ValidationError):
            SolverOptions(max_iter=0)


class TestKernels:
    # the real-BLAS block kernels and the joint-eigenbasis kernels against
    # their einsum definitions on the expanded p x p operators

    @pytest.mark.parametrize("z", [2 + 0.5j, -1.0])
    def test_trace_terms_match_einsum(self, z):
        params = threeclass_params(64)
        g = solve_g(z, params).g
        g = g if z.imag else g.real
        t, minv = fixed_point._trace_terms(g, z, params)
        dense = fixed_point._dense(minv, params)
        ref = np.array([np.einsum("ij,ji->", cov, dense)
                        for cov in params.covariances]) / params.p
        assert minv.shape == (2, 32, 32)
        assert t.dtype == ref.dtype == (complex if z.imag else float)
        assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max()
        inv = np.linalg.inv(mixture_matrix(g, params))
        assert np.abs(dense - inv).max() <= 1e-13 * np.abs(inv).max()

    @pytest.mark.parametrize("kind", ["complex-distinct", "real-same"])
    def test_pair_traces_match_einsum(self, kind):
        params = threeclass_params(64)
        rng = np.random.default_rng(3)
        shape = params.blocks.shape[1:]
        if kind == "complex-distinct":
            left = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            right = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        else:
            left = right = rng.standard_normal(shape)
        pair = fixed_point._pair_traces(left, right, params)
        covs = np.array(params.covariances)
        ref = np.einsum("aij,jk,bkl,li->ab", covs, fixed_point._dense(left, params),
                        covs, fixed_point._dense(right, params)) / params.p
        assert pair.dtype == ref.dtype == (float if kind == "real-same" else complex)
        assert np.abs(pair - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("z", [2 + 0.5j, -1.0])
    @pytest.mark.parametrize("commuting", ["diagonal", "basis"])
    def test_trace_terms_1d_match_einsum(self, z, commuting):
        params = _commuting(commuting)
        g = solve_g(z, params).g
        g = g if z.imag else g.real
        t, minv = fixed_point._trace_terms(g, z, params)
        dense = np.linalg.inv(mixture_matrix(g, params))
        ref = np.array([np.einsum("ij,ji->", cov, dense)
                        for cov in params.covariances]) / params.p
        assert minv.shape == (params.p,)
        assert t.dtype == ref.dtype == (complex if z.imag else float)
        assert np.abs(t - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(_expand(minv, params) - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("kind", ["complex-distinct", "real-same"])
    @pytest.mark.parametrize("commuting", ["diagonal", "basis"])
    def test_pair_traces_1d_match_einsum(self, kind, commuting):
        params = _commuting(commuting)
        rng = np.random.default_rng(3)
        if kind == "complex-distinct":
            left = rng.standard_normal(params.p) + 1j * rng.standard_normal(params.p)
            right = rng.standard_normal(params.p) + 1j * rng.standard_normal(params.p)
        else:
            left = right = rng.standard_normal(params.p)
        pair = fixed_point._pair_traces(left, right, params)
        covs = np.array(params.covariances)
        ref = np.einsum("aij,jk,bkl,li->ab", covs, _expand(left, params), covs,
                        _expand(right, params)) / params.p
        assert pair.dtype == ref.dtype == (float if kind == "real-same" else complex)
        assert np.abs(pair - ref).max() <= 1e-13 * np.abs(ref).max()


def _commuting(kind):
    """A diagonal two-class model (no basis), or C and C^2 for a Toeplitz C."""
    if kind == "diagonal":
        covs = (np.diag(np.repeat([0.5, 3.0], 16)), np.diag(np.linspace(1.0, 4.0, 32)))
    else:
        idx = np.arange(32)
        cov = 0.3 ** np.abs(idx[:, None] - idx[None, :])
        covs = (cov, cov @ cov)
    params = validate_model(ModelParams(p=32, class_sizes=(16, 48), covariances=covs))
    assert params.spectra is not None
    assert (params.basis is None) == (kind == "diagonal")
    return params


def _expand(diag, params):
    """The p x p matrix with eigenvalues diag in the model's joint eigenbasis."""
    u = params.basis
    return np.diag(diag) if u is None else (u * diag) @ u.T
