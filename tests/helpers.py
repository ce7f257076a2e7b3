"""Shared oracles and model builders for the test suite."""
import dataclasses

import numpy as np
import scipy.integrate

from specbulk.fixed_point import DEFAULT_OPTIONS, solve_g
from specbulk.model import (
    CovarianceSpec,
    ModelParams,
    ModelSpec,
    build_covariance,
    validate_model,
)

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
