import sys

import numpy as np
import pytest

from helpers import (
    empirical_resolvents,
    form_models,
    mp_params,
    mp_spec,
    threeclass_odd_params,
    threeclass_params,
)

from specbulk.equivalents import first_order
from specbulk.errors import NumericalSingularityError, ValidationError
from specbulk import montecarlo as mc
from specbulk.fixed_point import solve_g
from specbulk.model import (
    CovarianceSpec,
    ModelParams,
    ModelSpec,
    build_covariance,
    validate_model,
)
from specbulk.montecarlo import (
    EnsembleSample,
    SampleSpectral,
    _pooled_eigenvalues,
    _sqrt_covs,
    convergence_report,
    histogram_report,
    norm_bound_report,
    outlier_report,
    sample_w,
    trial_seed,
    variance_scaling_report,
    zero_eigenvalue_count,
)
from specbulk.spectrum import density_grid


@pytest.fixture(scope="module")
def two_class_small():
    cov1 = np.eye(32)
    cov2 = 2.0 * np.eye(32)
    return validate_model(
        ModelParams(p=32, class_sizes=(8, 8), covariances=(cov1, cov2))
    )


# one model per stored covariance form
FORM_MODELS = form_models()


def _spectral_model(name, request):
    if name == "two_class_small":
        return request.getfixturevalue(name)
    return FORM_MODELS[name]


class TestSampling:
    def test_deterministic_given_seed(self, two_class_small):
        s1 = sample_w(two_class_small, 42)
        s2 = sample_w(two_class_small, 42)
        assert np.array_equal(s1.w, s2.w)
        assert np.array_equal(s1.eigenvalues_wtw, s2.eigenvalues_wtw)

    @pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
    @pytest.mark.parametrize("p", [16, 17])
    def test_identity_draw_is_scaled_philox_normals(self, p, seed):
        # an identity covariance needs no root: W is Z / sqrt(p) bit for
        # bit, with column j of Z drawn from a fresh Philox stream keyed by
        # (seed, j); at odd p a column leaves its last Philox block part
        # used, so the next column shows whether the rekeyed state is fresh
        params = mp_params(1, 2, p=p)
        z = np.empty((params.p, params.n))
        for j in range(params.n):
            key = np.array([seed, j], dtype=np.uint64)
            z[:, j] = np.random.Generator(np.random.Philox(key=key)).standard_normal(params.p)
        assert np.array_equal(sample_w(params, seed).w, z / np.sqrt(params.p))

    @pytest.mark.parametrize("name", sorted(form_models()))
    def test_draw_matches_column_reference(self, name):
        # W bit for bit against a draw built column by column: column j of
        # Z from a fresh Philox keyed by (seed, j), then each class's root
        # times its columns of Z, for every stored form
        params = form_models()[name]
        roots = _sqrt_covs(params)
        for seed in (0, 7, 2**63 + 5):
            z = np.empty((params.p, params.n))
            for j in range(params.n):
                key = np.array([seed, j], dtype=np.uint64)
                z[:, j] = np.random.Generator(np.random.Philox(key=key)).standard_normal(params.p)
            ref = np.concatenate(
                [root[:, None] * z[:, sl] if root.ndim == 1 else root @ z[:, sl]
                 for root, sl in zip(roots, params.class_slices())], axis=1) / np.sqrt(params.p)
            assert np.array_equal(sample_w(params, seed).w, ref)

    def test_one_philox_per_draw(self, monkeypatch):
        # one generator serves every column of a draw
        params = threeclass_params(64)
        calls = []
        inner = np.random.Philox

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        sample_w(params, 3)
        assert len(calls) == 1

    def test_seeds_differ(self, two_class_small):
        assert not np.array_equal(
            sample_w(two_class_small, 1).w, sample_w(two_class_small, 2).w
        )

    def test_column_covariance_statistics(self):
        # E ||column of class a||^2 = (1/p) tr C_a and, for a fixed direction
        # u, E (u . column)^2 = u^T C_a u / p, aggregated over many columns
        p = 64
        covs = (
            np.eye(p),
            np.diag(np.linspace(0.5, 3.5, p)),
        )
        params = validate_model(
            ModelParams(p=p, class_sizes=(50, 50), covariances=covs)
        )
        rng = np.random.default_rng(0)
        u = rng.standard_normal(p)
        u /= np.linalg.norm(u)
        sq = {0: [], 1: []}
        proj = {0: [], 1: []}
        for t in range(100):
            s = sample_w(params, trial_seed(201, t))
            for a, sl in enumerate(params.class_slices()):
                sq[a].extend(np.sum(s.w[:, sl] ** 2, axis=0))
                proj[a].extend((u @ s.w[:, sl]) ** 2)
        for a in range(2):
            arr = np.asarray(sq[a])
            target = np.trace(covs[a]) / p
            se = arr.std(ddof=1) / np.sqrt(arr.size)
            assert abs(arr.mean() - target) <= 3 * se
            arr_p = np.asarray(proj[a])
            target_p = (u @ covs[a] @ u) / p
            se_p = arr_p.std(ddof=1) / np.sqrt(arr_p.size)
            assert abs(arr_p.mean() - target_p) <= 3 * se_p

    def test_zero_eigenvalue_floor(self):
        params = mp_params(1, 2, p=16)  # c0 = 1/2: at least n - p zeros
        s = sample_w(params, 7)
        assert zero_eigenvalue_count(s) >= params.n - params.p

    def test_largest_eigenvalue_near_edge(self):
        params = mp_params(2, 1, p=1024)
        s = sample_w(params, 1)
        edge = (1 + np.sqrt(0.5)) ** 2
        assert abs(s.eigenvalues_wtw[-1] - edge) <= 0.05

    def test_eigenvalues_sorted_nonnegative(self, two_class_small):
        s = sample_w(two_class_small, 3)
        assert (np.diff(s.eigenvalues_wtw) >= 0).all()
        assert (s.eigenvalues_wtw >= 0).all()


def _dense_root(cov):
    w, v = np.linalg.eigh(cov)
    return (v * np.sqrt(w)) @ v.T


class TestCovarianceRoots:
    @pytest.mark.parametrize("make", [lambda: threeclass_params(64), threeclass_odd_params],
                             ids=["threeclass_even", "threeclass_odd"])
    def test_roots_from_reflection_blocks(self, make):
        params = make()
        assert params.blocks.shape[1] == 2
        for cov, root in zip(params.covariances, _sqrt_covs(params)):
            scale = np.abs(cov).max()
            assert np.abs(root - root.T).max() <= 1e-14 * scale
            assert np.abs(root @ root - cov).max() <= 1e-13 * scale
            dense = _dense_root(cov)
            assert np.abs(root - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("p", [64, 65])
    def test_one_block_root_is_dense_root(self, p):
        # an increasing diagonal does not commute with the reversal: the one
        # block is C_a itself, and its root is the dense one bit for bit
        covs = (np.diag(np.linspace(0.5, 2.0, p)),
                build_covariance(CovarianceSpec("toeplitz", scale=1.0, rho=0.3), p))
        params = validate_model(ModelParams(p=p, class_sizes=(16, 48), covariances=covs))
        assert params.blocks.shape == (2, 1, p, p)
        for cov, root in zip(params.covariances, _sqrt_covs(params)):
            assert np.array_equal(root, _dense_root(cov))


class TestEmpiricalResolvents:
    def test_large_z_identity(self, two_class_small):
        s = sample_w(two_class_small, 5)
        q, qt = empirical_resolvents(s, 1e6j)
        n, p = two_class_small.n, two_class_small.p
        assert np.abs(q - (-1 / 1e6j) * np.eye(n)).max() <= 1e-4 / 1e6
        assert np.abs(qt - (-1 / 1e6j) * np.eye(p)).max() <= 1e-4 / 1e6

    def test_push_through_identities(self, two_class_small):
        # W^T Qt W = z Q + I_n and W Q W^T = z Qt + I_p, per sample
        s = sample_w(two_class_small, 6)
        z = 2j
        q, qt = empirical_resolvents(s, z)
        w = s.w
        assert np.abs(w.T @ qt @ w - (z * q + np.eye(two_class_small.n))).max() <= 1e-8
        assert np.abs(w @ q @ w.T - (z * qt + np.eye(two_class_small.p))).max() <= 1e-8

    def test_trace_difference(self, two_class_small):
        s = sample_w(two_class_small, 8)
        z = -0.7 + 0.3j
        q, qt = empirical_resolvents(s, z)
        p, n = two_class_small.p, two_class_small.n
        expected = (p - n) * (-1.0 / z)
        assert abs(np.trace(qt) - np.trace(q) - expected) <= 1e-8

    def test_real_z_on_spectrum_rejected(self, two_class_small):
        s = sample_w(two_class_small, 9)
        z_mid = float(s.eigenvalues_wtw[two_class_small.n // 2])
        with pytest.raises(NumericalSingularityError, match="complex shift"):
            empirical_resolvents(s, z_mid)

    @pytest.mark.parametrize("name", ["two_class_small", *FORM_MODELS])
    def test_spectral_cache_matches_dense(self, name, request):
        params = _spectral_model(name, request)
        s = sample_w(params, 10)
        sp = SampleSpectral(s, params)
        for z in (2j, -1.5 + 0j, 0.4 - 0.9j):
            q, qt = empirical_resolvents(s, z)
            assert abs(sp.trace_q(z) - np.trace(q)) <= 1e-9 * abs(np.trace(q))
            assert abs(sp.trace_qt(z) - np.trace(qt)) <= 1e-9 * abs(np.trace(qt))
            slices = params.class_slices()
            for a, sl in enumerate(slices):
                block = np.trace(q[sl, sl])
                assert abs(sp.trace_q_class(z, a) - block) <= 1e-9 * max(abs(block), 1)
                cov_tr = np.trace(params.covariances[a] @ qt)
                assert abs(sp.trace_qt_cov(z, a) - cov_tr) <= 1e-9 * max(abs(cov_tr), 1)
            rng = np.random.default_rng(0)
            d1 = rng.standard_normal(params.n)
            d2 = rng.standard_normal(params.n)
            assert abs(sp.bilinear_q(z, d1, d2) - d1 @ q @ d2) <= 1e-9

    @pytest.mark.parametrize("name", ["two_class_small", *FORM_MODELS])
    def test_pair_traces_match_dense(self, name, request):
        params = _spectral_model(name, request)
        s = sample_w(params, 11)
        sp = SampleSpectral(s, params)
        z1, z2 = 2j, -1.0 + 0j
        q1, qt1 = empirical_resolvents(s, z1)
        q2, qt2 = empirical_resolvents(s, z2)
        slices = params.class_slices()
        for a, sl in enumerate(slices):
            d_a = np.zeros((params.n, params.n))
            d_a[sl, sl] = np.eye(sl.stop - sl.start)
            dense = np.trace(d_a @ q1 @ q2)
            assert abs(sp.trace_q_pair_class(z1, z2, a) - dense) <= 1e-9 * max(abs(dense), 1)
            cov = params.covariances[a]
            dense_qt = np.trace(cov @ qt1 @ qt2)
            assert abs(sp.trace_qt_cov_pair(z1, z2, a) - dense_qt) <= 1e-9 * max(abs(dense_qt), 1)
            dense_w = np.trace(d_a @ s.w.T @ qt1 @ qt2 @ s.w)
            assert abs(sp.trace_wt_qt_pair_w_class(z1, z2, a) - dense_w) <= 1e-9 * max(abs(dense_w), 1)

    def test_cache_takes_no_svd(self, monkeypatch):
        # one eigh of the n x n Gram matrix builds the cache
        params = threeclass_params(64)
        sample = sample_w(params, 12)
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: pytest.fail("svd"))
        SampleSpectral(sample, params)


class TestConvergenceReport:
    @pytest.mark.parametrize("z", [5 + 0.5j, 2 + 1e-3j, -1.0, 15 - 2j])
    def test_qtbar_trace_from_m(self, z):
        # the report takes tr Qtbar as n m(z) + (n - p)/z: W^T W and W W^T
        # share their nonzero eigenvalues, and the equivalents do too
        params = threeclass_params(64)
        point = solve_g(z, params)
        dense = np.trace(first_order(point, params).q_tilde_bar)
        shortcut = params.n * point.m_mu + (params.n - params.p) / z
        assert abs(shortcut - dense) <= 1e-13 * abs(dense)

    def test_large_z_errors_tiny(self, two_class_small):
        rep = convergence_report(two_class_small, 1e6j, trials=3, seed=0)
        for m in rep.metrics:
            assert m.mean <= 1e-8

    def test_error_shrinks_with_p(self):
        spec = ModelSpec(
            p=32, classes=((8, CovarianceSpec("identity")),
                           (8, CovarianceSpec("toeplitz", scale=2.0, rho=0.4))),
        )
        means = []
        for p in (32, 64, 128):
            rep = convergence_report(spec.at_p(p), -1.0, trials=100, seed=1)
            means.append(rep.metric("I").mean)
        assert means[2] < means[1] < means[0]

    def test_trials_validated(self, two_class_small):
        with pytest.raises(ValidationError):
            convergence_report(two_class_small, 2j, trials=0)


class TestOutlierReport:
    def test_mp_concentration(self):
        det_params = mp_params(2, 1, p=16)
        grid = density_grid(0.0, 3.2, 641, det_params)
        sample_params = mp_params(2, 1, p=512)
        rep = outlier_report(sample_params, 100, grid, seed=13)
        assert rep.metric("max_distance").mean <= 0.1

    def test_zero_eigenvalues_at_zero(self):
        params = mp_params(1, 2, p=16)
        grid = density_grid(0.0, 6.5, 651, params)
        rep = outlier_report(params, 20, grid, seed=4)
        # the n - p kernel eigenvalues sit exactly at 0, which is in the set
        assert rep.metric("max_distance").mean <= 0.6

    def test_requires_support(self, two_class_small):
        with pytest.raises(ValidationError, match="support"):
            outlier_report(two_class_small, 5, ())


class TestHistogramReport:
    def test_mp_square_histogram(self):
        det_params = mp_params(1, 1, p=16)
        grid = density_grid(0.0, 4.5, 901, det_params)
        rep = histogram_report(mp_params(1, 1, p=512), 50, (0.0, 4.5, 0.05),
                               grid, seed=9)
        assert rep.metric("l1_distance").mean <= 0.05
        assert rep.metric("empirical_total_mass").mean == pytest.approx(1.0, abs=1e-9)
        assert rep.metric("deterministic_total_mass").mean == pytest.approx(1.0, abs=0.02)

    def test_zero_trials_rejected(self, two_class_small):
        grid = density_grid(0.0, 8.0, 161, two_class_small)
        with pytest.raises(ValidationError):
            histogram_report(two_class_small, 0, (0.0, 8.0, 0.25), grid)

    def test_nonuniform_bins_rejected(self, two_class_small):
        grid = density_grid(0.0, 8.0, 161, two_class_small)
        with pytest.raises(ValidationError, match="uniform"):
            histogram_report(two_class_small, 2, np.array([0.0, 1.0, 3.0]), grid)


class TestVarianceScaling:
    def test_symmetric_classes_equal_variance(self):
        spec = ModelSpec(
            p=64,
            classes=((8, CovarianceSpec("identity")),
                     (8, CovarianceSpec("identity"))),
        )
        rep = variance_scaling_report(spec, 2j, 200, (64,), seed=2)
        v1 = rep.metric("var_p64_class1").mean
        v2 = rep.metric("var_p64_class2").mean
        assert 0.4 <= v1 / v2 <= 2.5

    def test_ratio_near_four(self):
        spec = mp_spec(64, 64)
        rep = variance_scaling_report(spec, 2j, 300, (64, 128), seed=3)
        ratio = rep.metric("ratio_p64_to_p128_class1").mean
        assert 2.5 <= ratio <= 6.0


class TestNormBound:
    def test_bound_scales_with_covariance(self):
        base = mp_params(1, 1, p=128)
        scaled = validate_model(
            ModelParams(p=128, class_sizes=(128,), covariances=(4.0 * np.eye(128),))
        )
        rep_base = norm_bound_report(base, 10, seed=5)
        rep_scaled = norm_bound_report(scaled, 10, seed=5)
        m_base = rep_base.metric("max_norm_wwt")
        m_scaled = rep_scaled.metric("max_norm_wwt")
        assert m_scaled.threshold == pytest.approx(4.0 * m_base.threshold, rel=1e-12)
        assert m_scaled.mean == pytest.approx(4.0 * m_base.mean, rel=1e-12)
        assert rep_base.passed and rep_scaled.passed

    def test_tiny_size_reports_without_assertion(self):
        params = mp_params(1, 1, p=8)
        rep = norm_bound_report(params, 5, seed=6)
        assert rep.metric("max_norm_wwt").passed is None
        assert rep.passed  # nothing checked, nothing failed


def _diagonal_params_256():
    covs = (np.diag(np.repeat([0.5, 3.0], 128)), np.diag(np.linspace(1.0, 4.0, 256)))
    params = validate_model(ModelParams(p=256, class_sizes=(128, 384), covariances=covs))
    assert params.spectra is not None and params.basis is None  # 1-D roots
    return params


class TestPooledTrials:
    # sizes at which BLAS runs its GEMMs threaded; each workers value gets a
    # fresh model, so the pooled path also builds the covariance roots itself,
    # and a short switch interval makes the threads interleave often
    @pytest.mark.parametrize("make", [lambda: threeclass_params(256), _diagonal_params_256],
                             ids=["threeclass_blocks", "diagonal"])
    def test_bit_identical_across_workers(self, make):
        serial = _pooled_eigenvalues(make(), 20, 17, 1)
        report = norm_bound_report(make(), 20, seed=17).to_dict()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for workers in (2, 3):
                pooled = _pooled_eigenvalues(make(), 20, 17, workers)
                assert len(pooled) == len(serial)
                assert all(np.array_equal(a, b) for a, b in zip(serial, pooled))
                assert norm_bound_report(make(), 20, seed=17,
                                         workers=workers).to_dict() == report
        finally:
            sys.setswitchinterval(interval)

    def test_pool_sized_by_trials(self, two_class_small, monkeypatch):
        # four workers for three trials start three threads and report what
        # one worker reports
        sizes = []

        class Recording(mc.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", Recording)
        serial = norm_bound_report(two_class_small, 3, seed=5, workers=1).to_dict()
        assert norm_bound_report(two_class_small, 3, seed=5, workers=4).to_dict() == serial
        assert sizes == [3]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, two_class_small, workers):
        with pytest.raises(ValidationError, match="workers"):
            norm_bound_report(two_class_small, 3, seed=5, workers=workers)


class TestReportStructure:
    def test_json_fields(self, two_class_small):
        rep = norm_bound_report(two_class_small, 3, seed=11)
        payload = rep.to_dict()
        assert payload["trials"] == 3
        assert payload["seed"] == 11
        entry = payload["metrics"][0]
        assert set(entry) == {"metric", "mean", "stderr", "threshold", "pass"}

    def test_deterministic_report(self, two_class_small):
        grid = density_grid(0.0, 8.0, 161, two_class_small)
        rep1 = histogram_report(two_class_small, 5, (0.0, 8.0, 0.25), grid, seed=3)
        rep2 = histogram_report(two_class_small, 5, (0.0, 8.0, 0.25), grid, seed=3)
        assert rep1.to_dict() == rep2.to_dict()
