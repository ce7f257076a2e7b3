import collections
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    form_models,
    mixture_matrix,
    mp_params,
    mp_stieltjes,
    psi_step,
    threeclass_params,
)

from specbulk import fixed_point
from specbulk.cli import load_config, model_from_config
from specbulk.equivalents import second_order
from specbulk.errors import (
    ConsistencyError,
    NonConvergenceError,
    NumericalSingularityError,
    ValidationError,
)
from specbulk.fixed_point import (
    SolverOptions,
    _check_bound,
    _violates_signs,
    g_derivative,
    initial_guess,
    solve_g,
    solve_grid,
)
from specbulk.model import ModelParams, validate_model

ROOT = Path(__file__).resolve().parent.parent


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
                assert not _violates_signs(point.z, point.g)
                _check_bound(point.z, point.g, params)

    def test_first_level_restarts_higher(self):
        # at Re z = 13.5 on three-class p = 64 the first ladder level, from
        # the asymptote at Im z = 1, stalls and starts again at Im z = 2.
        # The reference sweeps down from a point solved at 13.5 + 2i, each
        # point a warm start from the one before
        params = threeclass_params(64)
        etas = np.r_[2.0, 1.0, np.geomspace(0.5, 1e-4, 13)]
        sweep = solve_grid(13.5 + 1j * etas, params)
        for eta, ref in ((1.0, sweep[1]), (1e-4, sweep[-1])):
            point = solve_g(complex(13.5, eta), params)
            assert not _violates_signs(point.z, point.g)
            _check_bound(point.z, point.g, params)
            assert np.abs(point.g - ref.g).max() <= 1e-10 * np.abs(ref.g).max()

    @pytest.mark.parametrize("max_iter", [20, 26])
    def test_max_iter_bounds_whole_solve(self, max_iter):
        # the ladder down to 0.5 + 1e-8i takes 27 evaluations in all; a
        # smaller budget stops it within itself. At 26 an accepted level
        # spends the last evaluation, and the error carries its residual.
        params = mp_params(1, 1, p=4)
        with pytest.raises(NonConvergenceError) as info:
            solve_g(0.5 + 1e-8j, params, SolverOptions(max_iter=max_iter))
        assert info.value.iterations <= max_iter
        assert np.isfinite(info.value.residual)
        assert solve_g(0.5 + 1e-8j, params, SolverOptions(max_iter=40)).iterations == 27

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
        pts = solve_grid([1 + 1j, 1 - 1j, 2 + 0.5j, 2 - 0.5j, 3 + 0.5j, 3 - 0.5j], params)
        for upper, lower in zip(pts[::2], pts[1::2]):
            np.testing.assert_allclose(lower.g, np.conj(upper.g), rtol=1e-10)
        for pt in pts:
            _assert_certified(pt, params)

    def test_stack_across_half_planes(self, monkeypatch):
        # a sweep out along Im z = 0.5 and back along Im z = -0.5: one stack
        # of fill points holds points of both half-planes
        params = mp_params(2, 1, p=8)
        xs = np.linspace(1.0, 1.5, 30)
        zs = list(xs + 0.5j) + list(xs[::-1] - 0.5j)
        stacks = _record_stacks(monkeypatch)
        pts = solve_grid(zs, params)
        assert any((z.imag > 0).any() and (z.imag < 0).any() for z, _, _ in stacks)
        monkeypatch.undo()
        for z, pt in zip(zs, pts):
            cold = solve_g(z, params)
            assert np.abs(pt.g - cold.g).max() <= 1e-10 * np.abs(cold.g).max()
            _assert_certified(pt, params)

    def test_repeated_points(self):
        # anchors and fill points at one z, and a gap whose two anchors
        # share a z, on a commuting model
        params = mp_params(1, 2, p=16)
        zs = [2j] * 6 + [1 + 1j] * 5 + [2 + 1j] * 3
        pts = solve_grid(zs, params)
        for z, pt in zip(zs, pts):
            cold = solve_g(z, params)
            assert np.abs(pt.g - cold.g).max() <= 1e-10 * np.abs(cold.g).max()
            _assert_certified(pt, params)

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

    def test_starved_fill_point_keeps_its_error(self, monkeypatch):
        # indices 0, 1 and 2 are anchors; the prediction at 2 of g near
        # 1e9 i (1 + 0.01 j) is nearly exact, so the step doubles and index 3
        # is a fill point; its start, interpolated between anchors near 1e9 i,
        # is far from g at 0.5 + 1e-8i, and its stack spends the whole budget
        # there
        params = mp_params(1, 1, p=4)
        zs = [1e9j * (1 + 0.01 * j) for j in range(7)]
        zs[3] = 0.5 + 1e-8j
        anchors = _record_anchors(monkeypatch)
        with pytest.raises(NonConvergenceError, match="grid index 3 ") as info:
            solve_grid(zs, params, SolverOptions(max_iter=3))
        assert 3 not in [zs.index(z) for z in anchors]
        assert info.value.z == zs[3]
        assert np.isfinite(info.value.residual)
        assert info.value.iterations == 3

    def test_rejected_fill_point_takes_the_ladder(self, monkeypatch):
        # the same grid with the default budget: the stack rejects index 3
        # on its own merits, and the point then spends and ends as solve_g
        # warm-started from its interpolant, every evaluation counted
        params = mp_params(1, 1, p=4)
        zs = [1e9j * (1 + 0.01 * j) for j in range(7)]
        zs[3] = 0.5 + 1e-3j
        evals = _record_evaluations(monkeypatch)
        stacks = _record_stacks(monkeypatch)
        pts = solve_grid(zs, params)
        assert sum(evals.values()) == sum(pt.iterations for pt in pts)
        (z, guess, (_, _, _, _, accepted, aborted)), = stacks
        n = list(z[:, 0]).index(zs[3])
        assert not accepted[n] and not aborted.any()
        monkeypatch.undo()
        warm = solve_g(zs[3], params, warm_start=guess[n])
        assert pts[3].iterations == warm.iterations > fixed_point._TRIAL_EVALS
        np.testing.assert_array_equal(pts[3].g, warm.g)
        cold = solve_g(zs[3], params)
        assert np.abs(pts[3].g - cold.g).max() <= 1e-10 * np.abs(cold.g).max()
        _assert_certified(pts[3], params)

    def test_aborted_stack_retries_each_start(self):
        # a guess at which M = (1 + c g) I is singular aborts the whole
        # stack: each point tries its own start after the one evaluation
        # the stack spent, as a warm-started solve_g would
        params = mp_params(1, 1, p=4)
        zs = [1.0 + 0.1j, 2.0 + 0.1j, 3.0 + 0.1j, 2.5 + 0.2j]
        starts = np.array([solve_g(z, params).g * (1 + 1e-6) for z in zs])
        starts[1] = -1.0 / params.c[0]
        g, _, evals, _, accepted, aborted = fixed_point._stacked_trial(
            np.array(zs)[:, None], starts, params, fixed_point.DEFAULT_OPTIONS)
        assert aborted.all() and not accepted.any() and (evals == 1).all()
        points = [None] * len(zs)
        fixed_point._fill(zs, points, np.arange(len(zs)), starts, params,
                          fixed_point.DEFAULT_OPTIONS)
        for z, start, pt in zip(zs, starts, points):
            warm = solve_g(z, params, warm_start=start)
            assert pt.iterations == warm.iterations + 1
            np.testing.assert_array_equal(pt.g, warm.g)
            _assert_certified(pt, params)
        assert points[1].iterations > fixed_point._TRIAL_EVALS  # the ladder

    @pytest.mark.parametrize("name", ["mp", "atom"])
    def test_each_point_counts_its_evaluations(self, monkeypatch, name):
        # every evaluation made at a point's z counts in its iterations, and
        # so do those of its ladder levels, which lie above it at its Re z
        params, zs = _shipped_grid(name)
        evals = _record_evaluations(monkeypatch)
        ladders = _record_ladders(monkeypatch)
        pts = solve_grid(zs, params)
        assert sum(evals.values()) == sum(pt.iterations for pt in pts)
        assert zs[0] in ladders
        for pt in pts:
            spent = evals[pt.z]
            if pt.z in ladders:
                spent += sum(n for z, n in evals.items() if z.real == pt.z.real and z != pt.z)
            assert spent == pt.iterations

    @pytest.mark.parametrize("name", ["mp", "atom"])
    def test_stacks_bounded_by_entries(self, monkeypatch, name):
        # a stack holds at most max(p, 2^16 // p) points: the whole fill of
        # a shipped grid is one stack
        params, zs = _shipped_grid(name)
        stacks = _record_stacks(monkeypatch)
        anchors = _record_anchors(monkeypatch)
        solve_grid(zs, params)
        sizes = [len(z) for z, _, _ in stacks]
        assert len(sizes) == 1 and sizes[0] <= max(params.p, 2**16 // params.p)
        assert sum(sizes) + len(anchors) == len(zs)

    def test_stacks_split_at_their_entry_bound(self, monkeypatch):
        # at p = 256 a stack holds at most 256 points, one 256 x 256 array
        params = mp_params(1, 1, p=256)
        zs = np.linspace(0.0, 5.0, 1001) + 1e-3j
        stacks = _record_stacks(monkeypatch)
        anchors = _record_anchors(monkeypatch)
        solve_grid(zs, params)
        sizes = [len(z) for z, _, _ in stacks]
        assert len(sizes) > 1 and max(sizes) == 256
        assert sum(sizes) + len(anchors) == len(zs)

    @pytest.mark.parametrize("name", ["mp", "atom"])
    def test_fill_points_accepted_by_their_stacks(self, monkeypatch, name):
        # the anchor steps keep every interpolated start within reach of the
        # stack's Newton steps: no fill point is rejected, so every point
        # that takes the ladder is an anchor, the first one among them
        params, zs = _shipped_grid(name)
        stacks = _record_stacks(monkeypatch)
        anchors = _record_anchors(monkeypatch)
        ladders = _record_ladders(monkeypatch)
        solve_grid(zs, params)
        assert stacks and all(accepted.all() for _, _, (*_, accepted, _) in stacks)
        assert ladders[0] == zs[0] and set(ladders) <= set(anchors)

    def test_fill_point_over_the_bound_raises(self, monkeypatch):
        # a fill point that its stack accepts with c0 |g| > 1/|Im z| raises
        # ConsistencyError annotated with its grid index
        params, zs = _shipped_grid("mp")
        inner = fixed_point._stacked_trial
        broken = []

        def breaking(z, guess, params, opts):
            g, resid, evals, t, accepted, aborted = inner(z, guess, params, opts)
            rows = np.flatnonzero(accepted)
            n = rows[len(rows) // 2]
            g[n] = 2.0 / (params.c0 * abs(z[n, 0].imag))
            broken.append(z[n, 0])
            return g, resid, evals, t, accepted, aborted

        monkeypatch.setattr(fixed_point, "_stacked_trial", breaking)
        with pytest.raises(ConsistencyError, match="violates c0") as info:
            solve_grid(zs, params)
        assert str(info.value).startswith(f"grid index {list(zs).index(broken[0])} ")

    def test_anchor_step_follows_prediction_error(self, monkeypatch):
        # every anchor's prediction is its solution times 1 + eps, with eps
        # rising from 1e-14 to 0.5 over three fifths of the grid and 0.5
        # after it: each step is the span
        # h3 = h1 (16 s^2 (s - 1)^2 tol^(1/4) / E)^(1/4) from the measured
        # error E, rounded down, doubling at most and at least 1; the steps
        # double, shrink, and end at 1. At every grid index 4 mod 5 the
        # predictor instead returns g1, as it does when it does not trust
        # its cubic, and the step after that anchor halves
        params, zs = _shipped_grid("mp")
        exact = [pt.g for pt in solve_grid(zs, params)]
        eps = np.minimum(np.logspace(-14, 8, len(zs)), 0.5)
        index = {z: i for i, z in enumerate(zs)}
        predict = fixed_point._predict

        def off_by_eps(z, z1, g1, *args):
            i = index.get(z)  # None at the levels of a ladder
            if i is None or z1 not in index:  # a ladder, the last level at a grid z
                return predict(z, z1, g1, *args)
            return g1 if i % 5 == 4 else exact[i] * (1.0 + eps[i])

        monkeypatch.setattr(fixed_point, "_predict", off_by_eps)
        anchors = _record_anchors(monkeypatch)
        pts = solve_grid(zs, params)
        at = [index[z] for z in anchors]
        assert at[:3] == [0, 1, 2] and at[-1] == len(zs) - 1
        root_tol = fixed_point.DEFAULT_OPTIONS.tol ** 0.25
        doubled = shrunk = floored = halved = False
        for a, b, i, nxt in zip(at, at[1:], at[2:], at[3:]):
            h1, h2 = b - a, i - b
            if i % 5 == 4:
                step = max(1, h2 // 2)
                halved |= h2 > 1
            else:
                guess = exact[i] * (1.0 + eps[i])
                error = np.abs(pts[i].g - guess).max() / np.abs(pts[i].g).max()
                s = 1.0 + h2 / h1
                bound = 16.0 * s**2 * (s - 1.0) ** 2 * root_tol
                h3 = h1 * (bound / error) ** 0.25 if error else np.inf
                step = max(1, int(min(2 * h2, h3)))
                doubled |= step == 2 * h2
                shrunk |= step < h2
                floored |= h3 < 1.0
            assert nxt == min(i + step, len(zs) - 1)
        assert doubled and shrunk and floored and halved

    @pytest.mark.parametrize("name", ["mp", "atom", "basis_k1", "identity_p_below_n",
                                      "diagonal_singular"])
    def test_commuting_sweep_matches_cold_solves(self, monkeypatch, name):
        # the shipped density grids, and a grid across the support of every
        # commuting stored form; most points are filled between anchors
        if name in ("mp", "atom"):
            params, zs = _shipped_grid(name)
        else:
            params = form_models()[name]
            assert params.spectra is not None
            xs = np.linspace(0.0, 1.2 * (1.0 + np.sqrt(1.0 / params.c0)) ** 2 * params.c_max,
                             301)
            zs = xs + 0.1j * (xs[1] - xs[0])
        anchors = _record_anchors(monkeypatch)
        pts = solve_grid(zs, params)
        assert len(anchors) < 0.6 * len(zs)
        monkeypatch.undo()
        for z, pt in zip(zs, pts):
            cold = solve_g(z, params)
            assert np.abs(pt.g - cold.g).max() <= 1e-10 * np.abs(cold.g).max()
            _assert_certified(pt, params)

    def test_block_model_solves_every_point(self, monkeypatch):
        # a model without joint spectra keeps step 1: every point is an anchor
        params = threeclass_params(64)
        zs = np.linspace(0.0, 30.0, 61) + 0.05j
        anchors = _record_anchors(monkeypatch)
        solve_grid(zs, params)
        assert anchors == list(zs)

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
            assert not _violates_signs(pt.z, pt.g)
            _check_bound(pt.z, pt.g, params)

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


class TestSolveSmall:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("stack", [(), (40,)], ids=["one", "stack"])
    @pytest.mark.parametrize("near_singular", [False, True], ids=["random", "near_singular"])
    @pytest.mark.parametrize("imag", [0.0, 1.0], ids=["real", "complex"])
    def test_matches_linalg_solve(self, k, stack, near_singular, imag):
        # division, Cramer's rule and np.linalg.solve agree to a few units
        # of the condition number times the rounding unit, on well and badly
        # conditioned systems alike, real or complex
        rng = np.random.default_rng(k)
        shape = stack + (k, k)
        a = rng.standard_normal(shape) + 1j * imag * rng.standard_normal(shape)
        if near_singular:  # the last row 2.5 times the first, up to 1e-9; 1e-9 a at k = 1
            a[..., -1, :] = 2.5 * (k > 1) * a[..., 0, :] + 1e-9 * a[..., -1, :]
        b = rng.standard_normal(stack + (k,)) + 1j * imag * rng.standard_normal(stack + (k,))
        if not imag:
            a, b = a.real.copy(), b.real.copy()
        x = fixed_point._solve_small(a, b)
        ref = np.linalg.solve(a, b[..., None])[..., 0]
        assert x.shape == ref.shape and x.dtype == ref.dtype
        err = np.abs(x - ref).max(-1) / np.abs(ref).max(-1)
        assert (err <= 1e-14 * np.linalg.cond(a)).all()

    @pytest.mark.parametrize("a", [
        [[0.0]], [[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [1.0, 3.0]],
        [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]],
    ], ids=["1x1", "2x2-rank-one", "2x2-zero-row", "3x3"])
    def test_singular_raises(self, a):
        # as np.linalg.solve does, alone and as one system of a stack
        a = np.array(a)
        b = np.ones(len(a))
        stack = np.stack([np.eye(len(a)), a])
        for args in ((a, b), (stack, np.stack([b, b]))):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(args[0], args[1][..., None])
            with pytest.raises(np.linalg.LinAlgError):
                fixed_point._solve_small(*args)


class TestStackedTrial:
    @pytest.mark.parametrize("name", ["basis_k1", "identity_p_below_n", "diagonal_singular"])
    def test_matches_trial_point_by_point(self, name):
        # starts from close to far off, one on the conjugate branch, at
        # points of both half-planes: the stack accepts, rejects and counts
        # as `_trial` does at each point alone
        params = form_models()[name]
        rng = np.random.default_rng(5)
        zs = rng.uniform(0.05, 4.0, 24) + 1j * 10.0 ** rng.uniform(-3.0, 0.0, 24)
        zs[::5] = np.conj(zs[::5])
        gs = np.array([solve_g(z, params).g for z in zs])
        spread = np.repeat([1e-8, 1e-3, 0.3, 1.0], 6)[:, None]
        noise = rng.standard_normal(gs.shape) + 1j * rng.standard_normal(gs.shape)
        starts = gs * (1.0 + spread * noise)
        starts[3] = np.conj(gs[3])
        opts = fixed_point.DEFAULT_OPTIONS
        g, resid, evals, t, accepted, aborted = fixed_point._stacked_trial(
            zs[:, None], starts, params, opts)
        assert 0 < accepted.sum() < len(zs) and not aborted.any()
        for n, z in enumerate(zs):
            alone, resid_n, evals_n, t_n, _, _ = fixed_point._trial(complex(z), starts[n],
                                                                   params, opts)
            assert (alone is not None, evals_n) == (accepted[n], evals[n])
            if alone is not None:
                assert np.abs(g[n] - alone).max() <= 1e-13 * np.abs(alone).max()
                assert abs(resid[n] - resid_n) <= 1e-3 * opts.tol
                assert np.abs(t[n] - t_n).max() <= 1e-13 * np.abs(t_n).max()


    def test_rejects_the_other_root(self):
        # on C = I the fixed point equation is the Marchenko-Pastur
        # quadratic; its other root meets tol at once but has the wrong
        # half-plane signs, and the stack rejects it as `_trial` does
        params = form_models()["identity_p_below_n"]
        c0 = params.c0
        zs = np.array([0.5 + 0.1j, 1.5 + 0.01j, 3.0 - 0.1j])
        other = np.array([[c0 / (z * mp_stieltjes(z, c0)) / c0] for z in zs])
        opts = fixed_point.DEFAULT_OPTIONS
        _, resid, evals, _, accepted, _ = fixed_point._stacked_trial(zs[:, None], other,
                                                                     params, opts)
        assert (resid <= opts.tol).all() and (evals == 1).all()
        assert not accepted.any()
        for z, start in zip(zs, other):
            assert fixed_point._trial(complex(z), start, params, opts)[0] is None


def _shipped_grid(name):
    """The model and the density grid x + i eta of configs/<name>.json."""
    cfg, _ = load_config(ROOT / "configs" / f"{name}.json")
    section = cfg["density"]
    xs = np.linspace(section["x_min"], section["x_max"], section["n_points"])
    return model_from_config(cfg), xs + 1j * max(1e-5, 0.1 * (xs[1] - xs[0]))


def _record_anchors(monkeypatch):
    """The list of z at which solve_grid calls solve_g, filled as it runs."""
    anchors = []
    inner = fixed_point.solve_g

    def recording(z, *args, **kwargs):
        anchors.append(z)
        return inner(z, *args, **kwargs)

    monkeypatch.setattr(fixed_point, "solve_g", recording)
    return anchors


def _record_stacks(monkeypatch):
    """The z, guesses and result of each stack that solve_grid corrects,
    filled as it runs."""
    stacks = []
    inner = fixed_point._stacked_trial

    def recording(z, guess, params, opts):
        result = inner(z, guess, params, opts)
        stacks.append((z, np.array(guess), result))
        return result

    monkeypatch.setattr(fixed_point, "_stacked_trial", recording)
    return stacks


def _record_ladders(monkeypatch):
    """The list of z at which a solve takes the continuation ladder, filled
    as it runs."""
    ladders = []
    inner = fixed_point._ladder

    def recording(z, *args):
        ladders.append(z)
        return inner(z, *args)

    monkeypatch.setattr(fixed_point, "_ladder", recording)
    return ladders


def _record_evaluations(monkeypatch):
    """Psi evaluations by z, one for each point of a stacked evaluation."""
    counts = collections.Counter()
    inner = fixed_point._psi_eval

    def counting(g, z, params):
        counts.update(complex(zv) for zv in np.ravel(z))
        return inner(g, z, params)

    monkeypatch.setattr(fixed_point, "_psi_eval", counting)
    return counts


def _assert_certified(point, params):
    """The point's own residual, half-plane sign and |g| bound checks."""
    _, resid, _, _ = fixed_point._psi_eval(point.g, point.z, params)
    assert resid <= fixed_point.DEFAULT_OPTIONS.tol
    assert not _violates_signs(point.z, point.g)
    _check_bound(point.z, point.g, params)


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

    @pytest.mark.parametrize("tol", [np.inf, np.nan, -1e-12, True, "1e-12", 1j])
    def test_tol_finite_positive_real(self, tol):
        with pytest.raises(ValidationError, match="tol"):
            SolverOptions(tol=tol)

    @pytest.mark.parametrize("max_iter", [True, 40.0, np.inf, "40", -3])
    def test_max_iter_whole_number(self, max_iter):
        with pytest.raises(ValidationError, match="max_iter"):
            SolverOptions(max_iter=max_iter)

    def test_numpy_scalars_accepted(self):
        opts = SolverOptions(tol=np.float64(1e-10), max_iter=np.int64(50))
        assert opts.max_iter == 50


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


NAN, INF = float("nan"), float("inf")


class TestCertificateHelpers:
    # the half-plane, sign, bound and floor tests of the corrector, pinned
    # on the edge cases: either half-plane, the real axis, Im z = -0.0,
    # NaN and inf entries, and a denominator z - t below _NORM_FLOOR

    @pytest.mark.parametrize("z, candidate, expected", [
        (1 + 2j, [0.1 + 0.3j, -0.2 + 0.01j], False),
        (1 + 2j, [0.1 + 0.3j, 0.2 - 0.01j], True),
        (1 + 2j, [1.0 - 0.019j], False),  # within 2% of the largest |entry|
        (1 + 2j, [1.0 - 0.021j], True),
        (1 - 2j, [0.1 - 0.3j, 0.2 - 0.01j], False),
        (1 - 2j, [0.1 - 0.3j, 0.2 + 0.01j], True),
        (1 + 2j, [0.5, -1.5], False),  # a real candidate
        (2.0 + 0j, [0.1 - 5j], False),  # the real axis has no half-plane
        (complex(2.0, -0.0), [0.1 - 5j], False),
        (1 + 2j, [NAN, 0.2 - 5j], False),  # NaN scale: no comparison holds
        (1 + 2j, [complex(0.1, NAN)], False),
        (1 + 2j, [INF, 0.2 - 5j], False),  # inf scale: no finite part is below it
        (1 + 2j, [complex(0.1, -INF)], False),
        (1 - 2j, [complex(0.1, INF)], False),
    ], ids=["upper-in", "upper-out", "upper-slack", "upper-past-slack", "lower-in",
            "lower-out", "real-candidate", "real-z", "minus-zero-z", "nan-real",
            "nan-imag", "inf-real", "minus-inf-imag", "inf-imag-lower"])
    def test_wrong_half_plane(self, z, candidate, expected):
        with np.errstate(all="ignore"):  # as in _trial
            assert fixed_point._wrong_half_plane(np.array(candidate), z) is expected

    @pytest.mark.parametrize("z, g, expected", [
        (2j, [0.5j], False),  # -1/z: Im g > 0, Im z g = 0
        (2j, [0.3 + 0.2j, 0.1 + 0.4j], False),
        (2j, [0.3 - 0.2j], True),
        (2j, [0.5 - 1e-12j], False),  # Im g within the 1e-10 slack
        (2j, [0.5 - 1e-9j], True),
        (2j, [-1e-12 + 0.5j], False),  # Im z g within the slack
        (2j, [-1e-9 + 0.5j], True),
        (-1 + 1j, [0.1 + 0.5j], True),  # Im z g = 0.1 - 0.5 < 0
        (-2j, [-0.5j], False),
        (-2j, [0.5j], True),
        (2.0 + 0j, [0.5j], True),  # at real z the sign taken is -1
        (complex(2.0, -0.0), [-0.5j], False),
        (2j, [NAN + 0.5j, 0.5j], False),
        (2j, [complex(0.3, NAN)], False),
        (2j, [complex(INF, 1.0)], False),
        (2j, [complex(0.0, -INF)], False),
    ], ids=["upper-asymptote", "upper-two", "upper-im-g", "upper-slack",
            "upper-past-slack", "upper-zg-slack", "upper-zg-past-slack",
            "upper-im-zg", "lower-in", "lower-out", "real-z",
            "minus-zero-z", "nan-real", "nan-imag", "inf-real", "minus-inf-imag"])
    def test_violates_signs(self, z, g, expected):
        with np.errstate(all="ignore"):  # as in _trial
            assert fixed_point._violates_signs(z, np.array(g)) is expected

    @pytest.mark.parametrize("z, g, raises", [
        (2j, [0.5j], False),
        (2j, [0.5j * (1.0 + 1e-9)], False),  # within the 1e-8 slack
        (2j, [0.5j * (1.0 + 1e-7)], True),
        (-2j, [0.4 - 0.3j], False),
        (-2j, [0.4 - 0.31j], True),
        (0.5j, [1.0, 2.0j], False),
        (0.5j, [1.0, 2.1j], True),
        (2j, [NAN], False),
        (2j, [complex(INF, 0.0)], True),
        (2j, [complex(0.0, -INF)], True),
    ], ids=["upper-in", "upper-slack", "upper-out", "lower-in", "lower-out",
            "two-in", "two-out", "nan", "inf-real", "minus-inf-imag"])
    def test_check_bound(self, z, g, raises):
        params = mp_params(1, 1, p=4)  # c0 = 1: the bound is |g_a| <= 1/|Im z|
        if raises:
            with pytest.raises(ConsistencyError):
                _check_bound(z, np.array(g), params)
        else:
            _check_bound(z, np.array(g), params)

    @pytest.mark.parametrize("z", [2.0 + 0j, complex(2.0, -0.0)], ids=["real", "minus-zero"])
    def test_check_bound_undefined_on_the_real_axis(self, z):
        # solve_g checks the bound at complex z only
        with pytest.raises(ZeroDivisionError):
            _check_bound(z, np.array([0.5]), mp_params(1, 1, p=4))

    @pytest.mark.parametrize("model", ["identity", "two_blocks"])
    @pytest.mark.parametrize("z", [1.5 + 0.7j, 1.5 - 0.7j, -0.8 + 0j, complex(3.0, -0.0)],
                             ids=["upper", "lower", "real", "minus-zero"])
    def test_psi_eval(self, model, z):
        params = mp_params(1, 2, p=16) if model == "identity" else threeclass_params(64)
        g = initial_guess(z, params)
        g = g.real if z.imag == 0.0 else g
        f, resid, t, minv = fixed_point._psi_eval(g, z, params)
        ref_t, ref_minv = fixed_point._trace_terms(g, z, params)
        np.testing.assert_array_equal(t, ref_t)
        np.testing.assert_array_equal(minv, ref_minv)
        expected = -1.0 / (params.c0 * (z - t))
        np.testing.assert_array_equal(f, expected)
        assert np.signbit(f.imag).tolist() == np.signbit(expected.imag).tolist()
        assert type(resid) is float
        assert resid == np.abs(f - g).max() / (np.abs(g).max() + fixed_point._NORM_FLOOR)
        # against the dense definition of Psi
        dense = np.linalg.inv(mixture_matrix(g, params))
        traces = np.array([np.trace(cov @ dense) for cov in params.covariances]) / params.p
        ref = -1.0 / (params.c0 * (z - traces))
        assert np.abs(f - ref).max() <= 1e-13 * np.abs(ref).max()

    @pytest.mark.parametrize("g", [[NAN], [INF], [complex(NAN, 1.0)]],
                             ids=["nan", "inf", "nan-complex"])
    def test_psi_eval_non_finite_iterate(self, g):
        # a non-finite iterate gives a NaN residual, which no tol accepts
        params = mp_params(1, 1, p=4)
        with np.errstate(all="ignore"):  # as in _trial
            _, resid, _, _ = fixed_point._psi_eval(np.array(g), 2j, params)
        assert np.isnan(resid)

    @pytest.mark.parametrize("z, raises", [
        (1.0 + 0j, True),  # z - t = 0 exactly: t = 1 at g = 0 on C = I
        (1.0 + 1e-31j, True),
        (1.0 - 1e-31j, True),
        (1.0 + 1e-29j, False),
    ], ids=["zero", "upper-below-floor", "lower-below-floor", "above-floor"])
    def test_psi_eval_denominator_floor(self, z, raises):
        params = mp_params(1, 1, p=4)
        g = np.zeros(1)
        if raises:
            with pytest.raises(NumericalSingularityError, match="vanishing denominator"):
                fixed_point._psi_eval(g, z, params)
        else:
            f, resid, t, _ = fixed_point._psi_eval(g, z, params)
            assert t.tolist() == [1.0]
            np.testing.assert_array_equal(f, -1.0 / (params.c0 * (z - t)))
