"""The commuting fast path and the reflection blocks against the dense path.

validate_model stores the joint spectra of commuting covariances, and the
kernels then work on diagonals in the joint eigenbasis; when the classes do
not commute but each commutes with the reversal i -> p-1-i, it stores two
half-size diagonal blocks of each class instead. `dense_reference` clears
both, so the same model goes through one dense p x p block.
"""
import numpy as np
import pytest

from helpers import dense_reference, form_models, threeclass_odd_params, threeclass_params

from specbulk.equivalents import first_order, log_det_functional, second_order
from specbulk.fixed_point import SolverOptions, _trace_terms, g_derivative, solve_g
from specbulk.model import (
    CovarianceSpec,
    ModelParams,
    _dense,
    _in_form,
    build_covariance,
    validate_model,
)
from specbulk.spectrum import atom_at_zero, density_grid

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
# the three-class Toeplitz demo, and its classes at an odd p
REFLECTION_MODELS = {"threeclass_even": threeclass_params(64),
                     "threeclass_odd": threeclass_odd_params()}


def _close(fast, dense, rtol=RTOL):
    fast, dense = np.asarray(fast), np.asarray(dense)
    return np.abs(fast - dense).max() <= rtol * np.abs(dense).max()


def _points(params):
    edge = (1.0 + np.sqrt(1.0 / params.c0)) ** 2 * params.c_max
    return [2j, 0.7 + 0.5j, 0.5 * edge + 1e-3j, -1.0, 1.5 * edge]


class TestDetection:
    def test_kinds_store_spectra(self):
        # reversal-symmetric commuting models (identity, toeplitz_k1,
        # dense_pair) keep their joint spectra and take no blocks
        for name, params in MODELS.items():
            assert params.spectra is not None, name
            assert params.spectra.shape == (params.k, params.p)
            assert params.blocks is None, name
            assert (params.basis is None) == (name in ("identity", "scaled_identity",
                                                       "diagonal")), name

    def test_basis_diagonalises_every_class(self):
        for name in ("toeplitz_k1", "dense_pair"):
            params = MODELS[name]
            u = params.basis
            for cov, lam in zip(params.covariances, params.spectra):
                assert np.abs(u.T @ cov @ u - np.diag(lam)).max() <= 1e-12 * params.c_max

    def test_threeclass_takes_two_blocks(self, monkeypatch):
        # the two Toeplitz classes with rho 0.2 and 0.4 do not commute: the
        # probe rejects them before any eigh of a combination, and the
        # reversal test that follows needs no eigh either
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: pytest.fail("eigh"))
        params = threeclass_params(64)
        monkeypatch.undo()
        assert params.spectra is None and params.basis is None
        assert params.blocks.shape == (3, 2, 32, 32)
        _, minv = _trace_terms(np.full(3, 0.01 + 0.01j), 1j, params)
        assert minv.shape == (2, 32, 32)
        for cov, blocks in zip(params.covariances, params.blocks):
            assert np.abs(_dense(blocks, params) - cov).max() <= 1e-14 * params.c_max

    def test_odd_p_pads_the_odd_block(self):
        # at p = 65 the even block holds 33 vectors and the odd one 32,
        # padded with a zero row and column; M^{-1} is 1 on the pad
        params = threeclass_odd_params()
        assert params.blocks.shape == (3, 2, 33, 33)
        assert not params.blocks[:, 1, 32].any() and not params.blocks[:, 1, :, 32].any()
        for cov, blocks in zip(params.covariances, params.blocks):
            assert np.abs(_dense(blocks, params) - cov).max() <= 1e-14 * params.c_max
        _, minv = _trace_terms(np.full(3, 0.01 + 0.01j), 1j, params)
        pad = np.zeros(33)
        pad[32] = 1.0
        assert np.abs(minv[1, 32] - pad).max() <= 1e-15
        assert np.abs(minv[1, :, 32] - pad).max() <= 1e-15

    def test_asymmetric_class_keeps_one_block(self):
        # a diagonal with increasing values does not commute with the
        # reversal: the covariances stay p x p, as views into the blocks
        p = 32
        params = _model(p, (16, 48), [np.diag(np.linspace(0.5, 2.0, p)), _toeplitz(p)])
        assert params.spectra is None
        assert params.blocks.shape == (2, 1, p, p)
        for cov, block in zip(params.covariances, params.blocks[:, 0]):
            assert np.shares_memory(cov, params.blocks) and (cov == block).all()
            assert not cov.flags.writeable

    def test_near_reversal_symmetric_class_rejected(self):
        p = 32
        covs = [_toeplitz(p, scale=9.0, rho=0.2), _toeplitz(p, scale=17.0, rho=0.4)]
        assert _model(p, (16, 48), covs).blocks.shape == (2, 2, 16, 16)
        c_max = max(np.linalg.eigvalsh(cov)[-1] for cov in covs)
        covs[0][0, 0] += 1e-6 * c_max
        assert _model(p, (16, 48), covs).blocks.shape == (2, 1, p, p)

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
        assert minv.shape == (1, p, p)


ALL_MODELS = {**MODELS, **REFLECTION_MODELS}


@pytest.mark.parametrize("name", sorted(ALL_MODELS))
class TestAgreement:
    def test_solve_and_derivative(self, name):
        fast = ALL_MODELS[name]
        dense = dense_reference(fast)
        for z in _points(fast):
            pf, pd = solve_g(z, fast, OPTS), solve_g(z, dense, OPTS)
            assert _close(pf.g, pd.g), z
            assert _close(pf.m_mu, pd.m_mu), z
            assert _close(pf.g_tilde, pd.g_tilde), z
            assert _close(g_derivative(pf, fast), g_derivative(pd, dense)), z

    def test_equivalents(self, name):
        fast = ALL_MODELS[name]
        dense = dense_reference(fast)
        for z in _points(fast):
            pd = solve_g(z, dense, OPTS)
            partner = solve_g(np.conj(z), dense, OPTS)
            ef, ed = first_order(pd, fast), first_order(pd, dense)
            assert ed.q_tilde.shape == (1, fast.p, fast.p) != ef.q_tilde.shape
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
        fast = ALL_MODELS[name]
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


def _recorded_shapes(monkeypatch):
    """Record the shape of every matrix passed to eigvalsh, eigh and matrix_rank."""
    shapes = []
    for name in ("eigvalsh", "eigh", "matrix_rank"):
        func = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda m, *args, _func=func, **kw:
                            shapes.append(np.shape(m)) or _func(m, *args, **kw))
    return shapes


def _rotation(p, seed):
    """A fixed random orthogonal p x p matrix."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((p, p)))[0]


def _reflected(p, r, seed):
    """A PSD matrix of rank 2r that commutes with the reversal: X X^T + J X X^T J."""
    x = np.random.default_rng(seed).standard_normal((p, r))
    gram = x @ x.T
    return gram + gram[::-1, ::-1]


def _stored_form(params):
    """The form validation stored: diagonal, basis, one_block or two_blocks."""
    if params.spectra is not None:
        return "diagonal" if params.basis is None else "basis"
    return "one_block" if params.blocks.shape[1] == 1 else "two_blocks"


class TestStoredFormEigenvalues:
    """validate_model reads the PSD check, the clamp and c_max, and atom_at_zero
    its ranks, from the stored form of the covariances."""

    @pytest.mark.parametrize("build, p", [
        (lambda: threeclass_params(512), 512),
        (threeclass_odd_params, 65),
    ], ids=["threeclass_512", "threeclass_odd_65"])
    def test_reflection_models_take_no_dense_eigensolve(self, monkeypatch, build, p):
        shapes = _recorded_shapes(monkeypatch)
        params = build()
        atom_at_zero(params)
        singular = _model(p, (20, 20), [_reflected(p, 3, 1), _reflected(p, 4, 2)])
        atom_at_zero(singular)
        monkeypatch.undo()
        assert _stored_form(params) == _stored_form(singular) == "two_blocks"
        assert shapes and max(s[-1] for s in shapes) <= (p + 1) // 2
        assert (params.k, (p + 1) // 2, (p + 1) // 2) in shapes  # the even blocks

    def test_diagonal_models_take_no_eigensolve(self, monkeypatch):
        shapes = _recorded_shapes(monkeypatch)
        # rank-30 and rank-30 diagonals sharing 10 directions: rank W = 50
        pair = [np.r_[np.linspace(1.0, 2.0, 30), np.zeros(34)],
                np.r_[np.zeros(20), np.ones(30), np.zeros(14)]]
        models = [_model(32, (64,), [np.eye(32)]),
                  _model(64, (40, 40), [np.diag(d) for d in pair])]
        atoms = [atom_at_zero(params) for params in models]
        monkeypatch.undo()
        assert shapes == []
        assert atoms == [0.5, 1.0 - 50 / 80]

    @pytest.mark.parametrize("form", ["basis", "two_blocks_even", "two_blocks_odd",
                                      "one_block"])
    def test_clamp_keeps_form_and_covariances_in_agreement(self, form):
        # one class gets a tiny negative eigenvalue, inside PSD_TOL
        p = 17 if form == "two_blocks_odd" else 16
        if form == "basis":
            u = _rotation(p, 3)
            covs = [(u * np.r_[-5e-11, np.linspace(0.5, 2.0, p - 1)]) @ u.T]
        elif form == "one_block":
            u = _rotation(p, 4)
            covs = [np.diag(np.linspace(0.5, 2.0, p)),
                    (u * np.r_[-5e-11, np.linspace(0.5, 2.0, p - 1)]) @ u.T]
        else:
            toep = _toeplitz(p, rho=0.5)
            covs = [_toeplitz(p, rho=0.3),
                    toep - (np.linalg.eigvalsh(toep)[0] + 5e-11) * np.eye(p)]
        params = _model(p, (p,) * len(covs), covs)
        assert form.startswith(_stored_form(params))
        # the stored eigenvalues are clamped to exactly zero; a dense eigvalsh
        # of a covariance rebuilt from them sees that zero to rounding
        assert (params.eigenvalues >= 0.0).all() and params.eigenvalues.min() == 0.0
        for a, cov in enumerate(params.covariances):
            assert np.linalg.eigvalsh(cov)[0] >= -1e-14 * params.c_max
            stored = params.spectra[a] if form == "basis" else params.blocks[a]
            assert np.abs(_dense(stored, params) - cov).max() <= 1e-14 * params.c_max

    @pytest.mark.parametrize("form", ["two_blocks_even", "two_blocks_odd", "basis",
                                      "one_block"])
    def test_singular_atom_matches_dense(self, form):
        if form.startswith("two_blocks"):
            p = 33 if form == "two_blocks_odd" else 32
            covs, rank, sizes = [_reflected(p, 3, 5), _reflected(p, 4, 6)], 14, (20, 20)
        elif form == "basis":
            p, u = 64, _rotation(64, 7)
            pair = [np.r_[np.linspace(1.0, 2.0, 30), np.zeros(34)],
                    np.r_[np.zeros(20), np.linspace(1.0, 3.0, 30), np.zeros(14)]]
            covs = [(u * lam) @ u.T for lam in pair]
            rank, sizes = 50, (40, 40)
        else:
            p, u = 32, _rotation(32, 8)
            covs = [np.diag(np.r_[np.linspace(0.5, 2.0, 10), np.zeros(22)]),
                    (u * np.r_[np.linspace(1.0, 2.0, 6), np.zeros(26)]) @ u.T]
            rank, sizes = 16, (20, 20)
        params = _model(p, sizes, covs)
        assert form.startswith(_stored_form(params))
        atom = atom_at_zero(params)
        assert atom == atom_at_zero(dense_reference(params)) == 1.0 - rank / params.n


FORM_MODELS = form_models()


@pytest.mark.parametrize("name", sorted(FORM_MODELS))
class TestInForm:
    """`_in_form` writes p x m matrices in the basis of the stored form."""

    def _columns(self, params):
        return np.random.default_rng(params.p).standard_normal((params.p, 7))

    def test_weights_from_stored_form(self, name):
        # diag(X^T C_a X) from the stored spectra or blocks, against the
        # dense covariances
        params = FORM_MODELS[name]
        x = self._columns(params)
        y = _in_form(x, params)
        if params.blocks is None:
            weights = params.spectra @ y**2
        else:
            weights = np.sum((params.blocks @ y) * y, axis=(1, 2))
        dense = np.einsum("im,aij,jm->am", x, np.stack(params.covariances), x)
        assert weights.shape == (params.k, 7)
        assert _close(weights, dense)

    def test_orthogonal(self, name):
        # column norms survive the transform, the zero pad of an odd p included
        params = FORM_MODELS[name]
        x = self._columns(params)
        y = _in_form(x, params)
        norms = np.sum(y**2, axis=tuple(range(y.ndim - 1)))
        assert _close(norms, np.sum(x**2, axis=0))
