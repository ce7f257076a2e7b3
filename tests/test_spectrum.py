import json
import warnings

import numpy as np
import pytest

from helpers import THREECLASS_SPECS, mp_density, mp_edges, mp_params, threeclass_params

from specbulk.errors import ValidationError
from specbulk.fixed_point import DEFAULT_OPTIONS, SolverOptions, _trace_terms, _trial, solve_g
from specbulk.model import CovarianceSpec, ModelParams, build_covariance, validate_model
from specbulk.montecarlo import sample_w, trial_seed, zero_eigenvalue_count
from specbulk.spectrum import (
    DensityGrid,
    _count,
    _trace_edge,
    atom_at_zero,
    density_at,
    density_grid,
    support_detect,
    write_density_csv,
    write_support_json,
)

OPTS = SolverOptions(tol=1e-10)


def _mp_grid(c0_num, c0_den, x_min, x_max, n_points):
    params = mp_params(c0_num, c0_den, p=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return density_grid(x_min, x_max, n_points, params, OPTS)


def _orthogonal_params(centre, p=1024):
    """Two classes on orthogonal coordinates: (10p/24) I on the first 24
    with n = 12, and (centre p/1000) I on the other 1000 with n = 1. W^T W is
    block diagonal, so the support is the union of two Marchenko-Pastur
    supports: centre (1 -+ sqrt(1/1000))^2 and 10 (1 -+ sqrt(1/2))^2."""
    wide = np.r_[np.full(24, 10 * p / 24), np.zeros(p - 24)]
    narrow = np.r_[np.zeros(24), np.full(p - 24, centre * p / 1000)]
    return validate_model(ModelParams(p=p, class_sizes=(12, 1),
                                      covariances=(np.diag(wide), np.diag(narrow))))


def _orthogonal_edges(centre):
    return [centre * (1 - np.sqrt(1 / 1000)) ** 2, centre * (1 + np.sqrt(1 / 1000)) ** 2,
            10 * (1 - np.sqrt(0.5)) ** 2, 10 * (1 + np.sqrt(0.5)) ** 2]


def _threeclass_c0_two():
    """The three Toeplitz classes of the demo at p = 64 with the shipped
    class sizes 4, 20 and 8 (c0 = 2)."""
    covs = tuple(build_covariance(spec, 64) for spec in THREECLASS_SPECS)
    return validate_model(ModelParams(p=64, class_sizes=(4, 20, 8), covariances=covs))


def _edges(grid):
    return [x for interval in grid.support for x in interval]


class TestDensityAt:
    def test_mp_closed_form_interior(self):
        val = density_at(1.0, 1e-5, mp_params(1, 1, p=16), OPTS)
        assert val == pytest.approx(np.sqrt(3) / (2 * np.pi), abs=2e-3)

    def test_vanishes_on_negative_axis(self):
        val = density_at(-5.0, 1e-5, mp_params(1, 1, p=16), OPTS)
        assert val <= 1e-3

    def test_threeclass_first_bulk_level(self, threeclass256):
        val = density_at(0.875, 1e-4, threeclass256, OPTS)
        assert val == pytest.approx(0.33, abs=0.03)

    def test_threeclass_matches_pooled_histogram_at_five(self, threeclass256):
        # near-axis density against a pooled eigenvalue histogram bin
        val = density_at(5.0, 1e-3, threeclass256, OPTS)
        lo, hi = 4.875, 5.125
        count = 0
        total = 0
        for t in range(300):
            eigs = sample_w(threeclass256, trial_seed(61, t)).eigenvalues_wtw
            count += int(np.sum((eigs >= lo) & (eigs < hi)))
            total += eigs.size
        hist = count / (total * (hi - lo))
        assert val == pytest.approx(hist, abs=0.02)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValidationError):
            density_at(1.0, 0.0, mp_params(1, 1, p=16))


class TestDensityGrid:
    def test_mp_square_support(self):
        grid = _mp_grid(1, 1, 0.0, 5.0, 501)
        assert len(grid.support) == 1
        lo, hi = grid.support[0]
        assert lo == pytest.approx(0.0, abs=0.02)
        assert hi == pytest.approx(4.0, abs=0.02)
        assert 0.98 <= grid.total_mass <= 1.02
        assert grid.atom_at_zero == 0.0

    def test_mp_narrow_support_edges(self):
        grid = _mp_grid(8, 1, 0.0, 3.0, 601)
        assert len(grid.support) == 1
        lo_ref, hi_ref = mp_edges(8.0)
        assert grid.support[0][0] == pytest.approx(lo_ref, abs=0.02)
        assert grid.support[0][1] == pytest.approx(hi_ref, abs=0.02)
        assert 0.98 <= grid.total_mass <= 1.02

    def test_atom_model_mass_and_support(self):
        grid = _mp_grid(1, 2, 0.0, 6.5, 651)
        assert grid.atom_at_zero == pytest.approx(0.5, abs=1e-12)
        assert 0.98 <= grid.total_mass <= 1.02
        lo_ref, hi_ref = mp_edges(0.5)
        assert len(grid.support) == 1
        assert grid.support[0][0] == pytest.approx(lo_ref, abs=0.02)
        assert grid.support[0][1] == pytest.approx(hi_ref, abs=0.02)

    def test_density_tracks_closed_form(self):
        grid = _mp_grid(2, 1, 0.0, 3.2, 321)
        ref = mp_density(grid.xs, 2.0)
        inside = (grid.xs > 0.4) & (grid.xs < 2.7)
        assert np.abs(grid.density[inside] - ref[inside]).max() <= 5e-3

    def test_threeclass_two_components(self, threeclass_grid):
        # the second and third humps share one component: the density dips
        # to ~0.02 near x = 13.5 but never vanishes between them
        assert len(threeclass_grid.support) == 2
        (l1, r1), (l2, r2) = threeclass_grid.support
        assert 0.6 <= l1 <= 0.7 and 1.1 <= r1 <= 1.3
        assert 4.1 <= l2 <= 4.3 and 26.3 <= r2 <= 26.6
        assert 0.98 <= threeclass_grid.total_mass <= 1.02

    def test_grid_invariants(self, threeclass_grid):
        # the shipped grid, the grids where an edge walk once returned
        # malformed intervals, and sub-spacing shifts of one grid, whose
        # edges agree with each other
        c0_two = _threeclass_c0_two()
        grids = [threeclass_grid, density_grid(0.0, 45.0, 451, c0_two)]
        grids += [density_grid(0.0, 30.0, 601, _orthogonal_params(c)) for c in (0.3, 0.51, 0.525)]
        shifted = [density_grid(f * 0.05, 30.0 + f * 0.05, 601, c0_two) for f in (0.2, 0.45, 0.8)]
        for g in grids + shifted:
            assert (g.density >= 0).all()
            assert all(l < r for l, r in g.support)
            assert all(r1 < l2 for (_, r1), (l2, _) in zip(g.support, g.support[1:]))
            assert g.support[0][0] >= 0.0 and g.support[-1][1] <= g.xs[-1]
        inner = [_edges(g)[:-1] for g in shifted]  # the last edge is the grid's end
        for edges in inner[1:]:
            np.testing.assert_allclose(edges, inner[0], rtol=1e-10, atol=0)

    def test_eta_refinement_shrinks(self):
        params = mp_params(1, 1, p=16)
        vals = [density_at(1.0, eta, params, OPTS) for eta in (4e-2, 2e-2, 1e-2, 5e-3)]
        diffs = np.abs(np.diff(vals))
        assert diffs[1] < diffs[0] and diffs[2] < diffs[1]

    def test_bad_ranges(self):
        params = mp_params(1, 1, p=8)
        with pytest.raises(ValidationError):
            density_grid(1.0, 1.0, 10, params)
        with pytest.raises(ValidationError):
            density_grid(0.0, 1.0, 1, params)


class TestSupportDetect:
    @pytest.mark.parametrize("centre", [0.3, 0.51, 0.525])
    def test_orthogonal_components_closed_form(self, centre):
        grid = density_grid(0.0, 30.0, 601, _orthogonal_params(centre))
        np.testing.assert_allclose(_edges(grid), _orthogonal_edges(centre), rtol=1e-9, atol=0)

    def test_gap_with_two_candidates(self):
        # spacing 0.1 puts 1.0 and 1.1 in the gap (0.9026, 1.1696); 1.1 is
        # a local minimum of the density, so both are candidates, and the
        # trial at 1.0 traces the whole gap; the reference edges come from
        # fine grids
        grid = density_grid(0.0, 45.0, 451, _threeclass_c0_two())
        np.testing.assert_allclose(
            _edges(grid), [0.2293001215, 0.9025808306, 1.1695539080, 40.3512650766],
            rtol=1e-9, atol=0)

    @pytest.mark.parametrize("classes, sizes, p, grid, edges", [
        # the trace from the lowest gap once stepped past its fold and
        # across the whole component, leaving an empty support; the
        # references come from 1,201- and 2,001-point grids
        (((1.2, 0.4),), (160,), 64, (0, 20, 301), [0.264136808216, 11.5434925821]),
        (((1.0, 0.4),), (128,), 64, (0, 16, 301), [0.114823695104, 8.21246119083]),
        # the shipped atom model (C = I, p = 16, n = 32): the gap next to the
        # atom once counted as support, from a left edge of 0
        (((1.0, 0.0),), (32,), 16, (0, 6.5, 44), [(np.sqrt(2) - 1) ** 2, (np.sqrt(2) + 1) ** 2]),
        (((1.0, 0.0),), (32,), 16, (0, 6.5, 40), [(np.sqrt(2) - 1) ** 2, (np.sqrt(2) + 1) ** 2]),
        # the gap (1.3716, 2.0087) holds no local minimum of the density:
        # only the neighbour of one across its edge finds it
        (((9.0867, 0.4533), (0.5948, 0.0465), (0.2014, 0.1106)), (18, 20, 64), 64,
         (0, 154, 301), [0.0, 1.371564111, 2.008723621, 26.6938562607]),
    ], ids=["toeplitz-1.2", "toeplitz-1", "atom-44", "atom-40", "neighbour"])
    def test_reference_edges(self, classes, sizes, p, grid, edges):
        covs = tuple(build_covariance(CovarianceSpec("toeplitz", scale=scale, rho=rho), p)
                     for scale, rho in classes)
        params = validate_model(ModelParams(p=p, class_sizes=sizes, covariances=covs))
        found = _edges(density_grid(*grid, params))
        np.testing.assert_allclose(found, edges, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("model, x, count", [
        # three-class p = 256, n = 32 (4, 20, 8): at 0.3, below the support,
        # every eigenvalue lies above x; in the gap at 2.68 the 4 of the
        # lowest component lie below it
        ("threeclass", 0.3, 32), ("threeclass", 2.68, 28),
        # the orthogonal model, n = 13 (12, 1): its narrow component of one
        # eigenvalue lies between 0.2 and 0.4
        ("orthogonal", 0.2, 13), ("orthogonal", 0.4, 12),
        # configs/atom.json's model, p = 16, n = 32: below its support, the
        # 16 eigenvalues above x are all counted by the negative eigenvalues
        # nu(M) of M, and the class term is 0
        ("atom", 0.1, 16),
    ])
    def test_count_value(self, threeclass256, model, x, count):
        # n (1 - F(x)) at a certified point outside the support; the first
        # four cases have 1 - t_a/x < 0 for some class, so the class term
        # counts, and the last is counted by nu(M) alone
        params = (threeclass256 if model == "threeclass"
                  else mp_params(1, 2, p=16) if model == "atom" else _orthogonal_params(0.3))
        g, _, _, t, _, _ = _trial(x, solve_g(x, params).g.real, params, DEFAULT_OPTIONS)
        assert g is not None
        assert _count(x, t, _trace_terms(g, x, params)[1], params) == count

    @pytest.mark.parametrize("x, toward, edge", [
        # without the count test, the left traces from 3.65 and 4.1 land on
        # the lowest gap's arc, where rho(Omega) < 1 too, and end at x = 0
        (3.65, -1, 1.1266209673), (4.1, -1, 1.1266209673), (1.2, 1, 4.2313605508),
    ])
    def test_trace_reaches_its_own_edge(self, x, toward, edge):
        params = threeclass_params(64)
        g, _, _, t, omega, _ = _trial(x, solve_g(x, params).g.real, params, DEFAULT_OPTIONS)
        dh = np.hstack([np.eye(3) - omega, -params.c0 * g[:, None] ** 2])
        count = _count(x, t, _trace_terms(g, x, params)[1], params)
        bound = 0.0 if toward < 0 else 30.0
        reached = _trace_edge(np.r_[g, x], dh, count, toward, bound, 0.05, params,
                              DEFAULT_OPTIONS)
        assert reached == pytest.approx(edge, rel=1e-9)

    def test_zero_density_grid_empty(self):
        params = mp_params(1, 1, p=8)
        grid = DensityGrid(
            xs=np.linspace(0, 1, 11),
            density=np.zeros(11),
            eta=1e-3,
            support=(),
            atom_at_zero=0.0,
            total_mass=0.0,
            params=params,
            opts=OPTS,
            g=np.zeros((11, params.k), dtype=complex),
        )
        assert support_detect(grid) == ()

    def test_empty_grid_rejected(self):
        # a one-point grid has no spacing to step from, as for density_grid
        params = mp_params(1, 1, p=8)
        for size in (0, 1):
            grid = DensityGrid(
                xs=np.linspace(0.5, 1.0, size), density=np.ones(size), eta=1e-3,
                support=(), atom_at_zero=0.0, total_mass=0.0, params=params, opts=OPTS,
                g=np.zeros((size, params.k), dtype=complex),
            )
            with pytest.raises(ValidationError):
                support_detect(grid)


class TestAtomAtZero:
    def test_wide_model_no_atom(self):
        assert atom_at_zero(mp_params(8, 1, p=16)) == 0.0

    def test_tall_model_rank_atom(self):
        assert atom_at_zero(mp_params(1, 2, p=16)) == 0.5

    def test_singular_quarter_rank(self):
        # rank p/4 with c0 = 2: half the Gram eigenvalues vanish
        p = 128
        cov = np.diag(np.r_[np.ones(p // 4), np.zeros(3 * p // 4)])
        params = validate_model(
            ModelParams(p=p, class_sizes=(p // 2,), covariances=(cov,))
        )
        est = atom_at_zero(params)
        assert est == pytest.approx(0.5, abs=0.05)
        for t in range(3):
            sample = sample_w(params, trial_seed(51, t))
            assert zero_eigenvalue_count(sample) == p // 4

    def test_singular_half_rank_no_atom(self):
        # rank p/2 with c0 = 2: W keeps full column rank, no atom
        p = 128
        cov = np.diag(np.r_[np.ones(p // 2), np.zeros(p // 2)])
        params = validate_model(
            ModelParams(p=p, class_sizes=(p // 2,), covariances=(cov,))
        )
        est = atom_at_zero(params)
        assert est <= 0.05
        for t in range(3):
            sample = sample_w(params, trial_seed(52, t))
            assert zero_eigenvalue_count(sample) == 0

    @pytest.mark.parametrize("covs, sizes, rank", [
        # rank-30 projectors sharing 10 directions: rank W = 50 of n = 80
        ((np.r_[np.ones(30), np.zeros(34)], np.r_[np.zeros(20), np.ones(30),
                                                  np.zeros(14)]), (40, 40), 50),
        # the projector class alone bounds the rank: 16 + 8 of n = 56
        ((np.r_[np.ones(16), np.zeros(48)], np.ones(64)), (48, 8), 24),
    ], ids=["overlap", "proper_subset"])
    def test_singular_rank_count(self, covs, sizes, rank):
        params = validate_model(ModelParams(
            p=64, class_sizes=sizes, covariances=tuple(np.diag(d) for d in covs)
        ))
        assert atom_at_zero(params) == 1.0 - rank / params.n
        for t in range(3):
            sample = sample_w(params, trial_seed(53, t))
            assert zero_eigenvalue_count(sample) == params.n - rank


class TestExports:
    def test_csv_and_json(self, tmp_path):
        grid = _mp_grid(2, 1, 0.0, 3.2, 161)
        csv_path = tmp_path / "density.csv"
        write_density_csv(grid, csv_path, header_comment="config_sha256=abc")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "# config_sha256=abc"
        assert lines[1] == "x,density"
        assert len(lines) == 2 + grid.xs.size
        # read_text translates "\r\n": every line, the comment and the
        # rows alike, ends in "\n" alone
        raw = csv_path.read_bytes()
        assert b"\r" not in raw and raw.count(b"\n") == len(lines)

        json_path = tmp_path / "support.json"
        write_support_json(grid, json_path)
        payload = json.loads(json_path.read_text())
        assert payload["eta"] == grid.eta
        assert payload["atom_at_zero"] == grid.atom_at_zero
        assert payload["support"] == [[l, r] for l, r in grid.support]
