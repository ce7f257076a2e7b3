"""Shared oracles and model builders for the test suite."""
import dataclasses

import numpy as np
import scipy.integrate

from specbulk.errors import NumericalSingularityError
from specbulk.fixed_point import DEFAULT_OPTIONS, _psi_eval, solve_g
from specbulk.model import (
    CovarianceSpec,
    ModelParams,
    ModelSpec,
    build_covariance,
    validate_model,
)
from specbulk.nonneg import perron_left_vector, spectral_radius

# Three-class Toeplitz demo family: scales 1, 9, 17 with ratios 0, 0.2, 0.4
# and class fractions 1/8, 5/8, 1/4 at aspect ratio c0 = 8.
THREECLASS_SPECS = (
    CovarianceSpec("toeplitz", scale=1.0, rho=0.0),
    CovarianceSpec("toeplitz", scale=9.0, rho=0.2),
    CovarianceSpec("toeplitz", scale=17.0, rho=0.4),
)
THREECLASS_BASE = ModelSpec(p=64, classes=((1, THREECLASS_SPECS[0]),
                                           (5, THREECLASS_SPECS[1]),
                                           (2, THREECLASS_SPECS[2])))


def threeclass_params(p=256):
    """The three-class Toeplitz model at dimension p (multiple of 64)."""
    return THREECLASS_BASE.at_p(p)


def threeclass_odd_params():
    """The three Toeplitz classes of the demo at the odd p = 65, with class
    sizes 8, 40 and 16."""
    covs = tuple(build_covariance(spec, 65) for spec in THREECLASS_SPECS)
    return validate_model(ModelParams(p=65, class_sizes=(8, 40, 16), covariances=covs))


def mp_params(c0_num, c0_den, p=16):
    """k=1, C=I model with c0 = c0_num/c0_den; its measure depends on c0 only."""
    if (p * c0_den) % c0_num:
        raise ValueError("p incompatible with the requested ratio")
    n = p * c0_den // c0_num
    return validate_model(
        ModelParams(p=p, class_sizes=(n,), covariances=(np.eye(p),))
    )


def form_models():
    """One small validated model for each way `validate_model` stores the
    covariances, named by that form."""
    toep = build_covariance(CovarianceSpec("toeplitz", scale=2.0, rho=0.5), 40)
    rank32 = np.diag(np.r_[np.linspace(0.5, 2.0, 32), np.zeros(32)])
    one_block = (np.diag(np.linspace(0.5, 2.0, 48)),
                 build_covariance(CovarianceSpec("toeplitz", scale=1.0, rho=0.3), 48))
    return {
        "two_blocks_even": threeclass_params(64),
        "two_blocks_odd": threeclass_odd_params(),
        "basis_k1": validate_model(ModelParams(p=40, class_sizes=(24,), covariances=(toep,))),
        "identity_p_below_n": mp_params(1, 2, p=16),
        # p < n and one class of rank 32: both resolvents see zero modes
        "diagonal_singular": validate_model(ModelParams(
            p=64, class_sizes=(40, 56), covariances=(np.eye(64), rank32))),
        "one_block": validate_model(ModelParams(p=48, class_sizes=(12, 24),
                                                covariances=one_block)),
    }


def dense_reference(params):
    """The same validated model with its joint spectra and basis cleared and
    its covariances as one p x p block each, so that every kernel works on
    dense p x p matrices."""
    blocks = np.stack(params.covariances)[:, None]
    blocks.setflags(write=False)
    return dataclasses.replace(params, spectra=None, basis=None, blocks=blocks)


def mixture_matrix(g, params):
    """I_p + sum_b c_b g_b C_b for the iterate g (real for real g)."""
    m = np.eye(params.p, dtype=np.result_type(np.asarray(g), float))
    for b in range(params.k):
        m = m + (params.c[b] * g[b]) * params.covariances[b]
    return m


def psi_step(g, z, params):
    """One application of the fixed-point map Psi at the point z."""
    return _psi_eval(np.asarray(g, dtype=complex), z, params)[0]


def empirical_resolvents(sample, z):
    """Q = (W^T W - z)^{-1} and Qt = (W W^T - z)^{-1} of one sample, as
    dense inverses, residual-checked."""
    z = complex(z)
    w = sample.w
    p, n = w.shape
    if z.imag == 0.0:
        gap = np.abs(sample.eigenvalues_wtw - z.real).min()
        scale = max(sample.eigenvalues_wtw[-1], 1.0)
        if z.real >= 0 and gap < 1e-8 * scale:
            raise NumericalSingularityError(
                f"z={z} sits on the sample spectrum; use a complex shift", z=z
            )
    wtw = w.T @ w
    wwt = w @ w.T
    q = np.linalg.inv(wtw - z * np.eye(n))
    qt = np.linalg.inv(wwt - z * np.eye(p))
    resid = np.abs((wtw - z * np.eye(n)) @ q - np.eye(n)).max()
    if resid > 1e-8:
        raise NumericalSingularityError(
            f"resolvent solve at z={z} reached residual {resid:.3e}", z=z
        )
    return q, qt


@dataclasses.dataclass(frozen=True)
class RadiusCertificate:
    """Spectral radius with, for nonnegative input, its left Perron vector."""

    dim: int
    rho: float
    left_perron: np.ndarray | None


def radius_certificate(m):
    """Spectral radius plus, for nonnegative input, the left Perron vector."""
    m = np.asarray(m)
    left = None
    if np.isrealobj(m) and not np.any(m < 0):
        left = perron_left_vector(m)
    return RadiusCertificate(dim=m.shape[0], rho=spectral_radius(m), left_perron=left)


def mp_spec(p_base, n_base):
    return ModelSpec(p=p_base, classes=((n_base, CovarianceSpec("identity")),))


def mp_stieltjes(z, c0):
    """Closed-form Stieltjes transform of the square-root law with ratio c0.

    Root of z m^2 + (c0 z - c0 + 1) m + c0 = 0 with Im(m) Im(z) > 0 off the
    axis; on the negative real axis the transform is the positive root.
    """
    z = complex(z)
    b = c0 * z - c0 + 1.0
    disc = np.sqrt(b * b - 4.0 * z * c0 + 0j)
    roots = [(-b + disc) / (2 * z), (-b - disc) / (2 * z)]
    if z.imag != 0:
        return next(m for m in roots if m.imag * z.imag > 0)
    if z.real < 0:
        return max(roots, key=lambda m: m.real)
    return min(roots, key=lambda m: m.real)


def mp_edges(c0):
    """Support edges (1 -/+ sqrt(1/c0))^2 of the continuous part."""
    r = np.sqrt(1.0 / c0)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def mp_density(x, c0):
    """Continuous density of the square-root law with ratio c0."""
    lo, hi = mp_edges(c0)
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > lo) & (x < hi)
    y = 1.0 / c0
    out[inside] = np.sqrt((hi - x[inside]) * (x[inside] - lo)) / (
        2 * np.pi * y * x[inside]
    )
    return out


class _TraceIntegrand:
    """tr Qtbar_{-t} as a function of t > 0, warm-started across calls."""

    def __init__(self, params, opts):
        self.params = params
        self.opts = opts
        self._g = None

    def __call__(self, t: float) -> float:
        point = solve_g(complex(-t, 0.0), self.params, self.opts, warm_start=self._g)
        self._g = point.g
        m = mixture_matrix(point.g, self.params)
        return float(np.trace(np.linalg.inv(m)).real / t)


def log_det_quadrature(sigma2, params, opts=None):
    """Reference route to the log-det equivalent by quadrature of tr Qtbar.

    Assembled from d/dt log det(W W^T + t I) = tr (W W^T + t I)^{-1} whose
    equivalent is tr Qtbar_{-t}:

        p log T - int_{sigma2}^{T} tr Qtbar_{-t} dt
                - int_{T}^{inf} (tr Qtbar_{-t} - p/t) dt

    with T = 1e3 (edge bound + sigma2). The tail integral is mapped to
    [0, 1/T] by u = 1/t; absolute quadrature tolerance is 1e-6 p.
    """
    opts = opts or DEFAULT_OPTIONS
    p = params.p
    edge_bound = (1.0 + np.sqrt(1.0 / params.c0)) ** 2 * params.c_max
    t_big = 1e3 * (edge_bound + sigma2)
    tol = 1e-6 * p

    f = _TraceIntegrand(params, opts)
    main, main_err = scipy.integrate.quad(
        f, sigma2, t_big, epsabs=0.5 * tol, epsrel=0.0, limit=400
    )

    f_tail = _TraceIntegrand(params, opts)

    def tail_integrand(u):
        return (f_tail(1.0 / u) - p * u) / u**2

    tail, tail_err = scipy.integrate.quad(
        tail_integrand, 0.0, 1.0 / t_big, epsabs=0.4 * tol, epsrel=0.0, limit=200
    )
    if main_err + tail_err > tol:
        raise AssertionError(
            f"log-det quadrature error {main_err + tail_err:.3e} exceeds {tol:.3e}"
        )
    return float(p * np.log(t_big) - main - tail)
