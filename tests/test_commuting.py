"""The commuting fast path against the dense path on the same models.

validate_model stores the joint spectra of commuting covariances, and the
kernels then work on diagonals in the joint eigenbasis; `dense_reference`
clears them so the same model goes through dense p x p matrices.
"""
import numpy as np
import pytest

from helpers import dense_reference, threeclass_params

from specbulk.equivalents import first_order, log_det_functional, second_order
from specbulk.fixed_point import SolverOptions, _trace_terms, g_derivative, solve_g
from specbulk.model import CovarianceSpec, ModelParams, build_covariance, validate_model
from specbulk.spectrum import density_grid

RTOL = 1e-12
OPTS = SolverOptions(tol=1e-13)


def _toeplitz(p, scale=1.0, rho=0.3):
    return build_covariance(CovarianceSpec("toeplitz", scale=scale, rho=rho), p)


def _model(p, sizes, covs):
    return validate_model(ModelParams(p=p, class_sizes=sizes, covariances=tuple(covs)))


def _commuting_models():
    toep = _toeplitz(32)
    return {
        "identity": _model(32, (64,), [np.eye(32)]),
        "scaled_identity": _model(24, (12, 36), [2.5 * np.eye(24), np.eye(24)]),
        "diagonal": _model(16, (8, 24), [np.diag(np.repeat([0.5, 3.0], 8)),
                                         np.diag(np.repeat([1.0, 2.0, 2.0, 4.0], 4))]),
        "toeplitz_k1": _model(32, (48,), [_toeplitz(32, scale=2.0)]),
        "dense_pair": _model(32, (16, 48), [toep, toep @ toep]),
    }


MODELS = _commuting_models()


def _close(fast, dense, rtol=RTOL):
    fast, dense = np.asarray(fast), np.asarray(dense)
    return np.abs(fast - dense).max() <= rtol * np.abs(dense).max()


def _points(params):
    edge = (1.0 + np.sqrt(1.0 / params.c0)) ** 2 * params.c_max
    return [2j, 0.7 + 0.5j, 0.5 * edge + 1e-3j, -1.0, 1.5 * edge]


class TestDetection:
    def test_kinds_store_spectra(self):
        for name, params in MODELS.items():
            assert params.spectra is not None, name
            assert params.spectra.shape == (params.k, params.p)
            assert (params.basis is None) == (name in ("identity", "scaled_identity",
                                                       "diagonal")), name

    def test_basis_diagonalises_every_class(self):
        for name in ("toeplitz_k1", "dense_pair"):
            params = MODELS[name]
            u = params.basis
            for cov, lam in zip(params.covariances, params.spectra):
                assert np.abs(u.T @ cov @ u - np.diag(lam)).max() <= 1e-12 * params.c_max

    def test_threeclass_keeps_dense_kernels(self, monkeypatch):
        # the two Toeplitz classes with rho 0.2 and 0.4 do not commute: the
        # probe rejects them before any eigh of a combination
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: pytest.fail("eigh"))
        params = threeclass_params(64)
        monkeypatch.undo()
        assert params.spectra is None and params.basis is None
        _, minv = _trace_terms(np.full(3, 0.01 + 0.01j), 1j, params)
        assert minv.shape == (64, 64)

    def test_near_commuting_pair_rejected(self):
        toep = _toeplitz(32)
        bent = toep @ toep
        bent[0, 1] = bent[1, 0] = bent[0, 1] + 1e-3
        assert _model(32, (16, 48), [toep, bent]).spectra is None

    def test_shared_probe_eigenvector_rejected_by_rotation(self, monkeypatch):
        # both classes have the probe vector v_i = 1/i as an eigenvector, so
        # C_1 C_2 v = C_2 C_1 v and the probe passes; on the complement of v
        # they are a Toeplitz and a diagonal matrix, which do not commute
        p = 32
        e = 1.0 / np.arange(1.0, p + 1.0)
        e /= np.linalg.norm(e)
        proj = np.eye(p) - np.outer(e, e)
        covs = [2.0 * np.outer(e, e) + proj @ _toeplitz(p) @ proj,
                3.0 * np.outer(e, e) + proj @ np.diag(np.linspace(0.5, 2.0, p)) @ proj]
        covs = [0.5 * (c + c.T) for c in covs]
        assert np.abs(covs[0] @ covs[1] @ e - covs[1] @ covs[0] @ e).max() <= 1e-14
        assert np.abs(covs[0] @ covs[1] - covs[1] @ covs[0]).max() > 1e-2
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        params = _model(p, (16, 48), covs)
        monkeypatch.undo()
        assert len(calls) == 1  # the basis eigh, reached only past the probe
        assert params.spectra is None and params.basis is None
        _, minv = _trace_terms(np.full(2, 0.01 + 0.01j), 1j, params)
        assert minv.shape == (p, p)


@pytest.mark.parametrize("name", sorted(MODELS))
class TestAgreement:
    def test_solve_and_derivative(self, name):
        fast = MODELS[name]
        dense = dense_reference(fast)
        for z in _points(fast):
            pf, pd = solve_g(z, fast, OPTS), solve_g(z, dense, OPTS)
            assert _close(pf.g, pd.g), z
            assert _close(pf.m_mu, pd.m_mu), z
            assert _close(pf.g_tilde, pd.g_tilde), z
            assert _close(g_derivative(pf, fast), g_derivative(pd, dense)), z

    def test_equivalents(self, name):
        fast = MODELS[name]
        dense = dense_reference(fast)
        for z in _points(fast):
            pd = solve_g(z, dense, OPTS)
            partner = solve_g(np.conj(z), dense, OPTS)
            ef, ed = first_order(pd, fast), first_order(pd, dense)
            assert ef.q_tilde.ndim == 1 and ed.q_tilde.ndim == 2
            assert _close(ef.q_tilde_bar, ed.q_tilde_bar), z
            sf, sd = second_order(pd, partner, fast), second_order(pd, partner, dense)
            assert _close(sf.omega, sd.omega), z
            assert abs(sf.spectral_radius_omega - sd.spectral_radius_omega) <= RTOL
            # R = (I - Omega)^{-1} Omega amplifies a rounding change of Omega
            # by up to 1 / (1 - rho), about 1e3 next to the axis in the bulk
            assert _close(sf.r, sd.r, RTOL / (1.0 - sd.spectral_radius_omega)), z
        for sigma2 in (0.5, 4.0):
            ld_f = log_det_functional(sigma2, fast, OPTS)
            ld_d = log_det_functional(sigma2, dense, OPTS)
            assert abs(ld_f - ld_d) <= RTOL * abs(ld_d)

    def test_density_support_and_atom(self, name):
        fast = MODELS[name]
        dense = dense_reference(fast)
        edge = (1.0 + np.sqrt(1.0 / fast.c0)) ** 2 * fast.c_max
        gf = density_grid(0.0, 1.2 * edge, 121, fast, OPTS)
        gd = density_grid(0.0, 1.2 * edge, 121, dense, OPTS)
        assert _close(gf.g, gd.g)
        assert _close(gf.density, gd.density)
        assert len(gf.support) == len(gd.support) >= 1
        assert _close(gf.support, gd.support)
        assert gf.atom_at_zero == gd.atom_at_zero
        assert abs(gf.total_mass - gd.total_mass) <= RTOL
