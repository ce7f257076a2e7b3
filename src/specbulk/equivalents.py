"""Deterministic equivalents of the resolvents and derived functionals.

First order: the n x n resolvent of the Gram matrix concentrates around
the block-constant diagonal Qbar with value c0 g_a(z) on class a, and the
p x p companion resolvent around Qtbar = -(1/z)(I + sum_a c_a g_a C_a)^{-1}.

Second order: products of resolvents concentrate around combinations
driven by the k x k kernel

    Omega(z1,z2)_ab = c0 c_b z1 g_a(z1) z2 g_a(z2) (1/p) tr C_a Qtbar_1 C_b Qtbar_2

and R(z1,z2) = diag(c) (I - Omega)^{-1} Omega diag(c)^{-1}.

The module also provides the two channel functionals at z = -sigma^2: the
per-class trace n_a (1 + z c0 g_a(z)) and the log-determinant, whose
Shannon-transform equivalent is closed form in the fixed point (Hachem,
Loubaton & Najim, Ann. Appl. Probab. 2007; Couillet, Debbah & Silverstein,
IEEE Trans. Inf. Theory 2011):

    log det(W W^T + sigma^2 I)
        ~ p log sigma^2 + log det M + sum_a n_a [log(1 + gt_a) - gt_a / (1 + gt_a)]

with M = I + sum_a c_a g_a C_a and gt_a = (1/p) tr C_a M^{-1} / sigma^2.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConsistencyError,
    NearSupportError,
    NumericalSingularityError,
    ValidationError,
)
from .fixed_point import (
    DEFAULT_OPTIONS,
    ResolventPoint,
    SolverOptions,
    _dense,
    _log_det_mixture,
    _pair_traces,
    _q_tilde,
    solve_g,
)
from .model import ModelParams, _trace
from .nonneg import spectral_radius


@dataclass(frozen=True)
class EquivalentSet:
    """First-order deterministic equivalents at one point z.

    q_bar_diag holds the k per-class diagonal values c0 g_a(z) of the
    block-constant Qbar; the dense n x n form is never materialized.
    q_tilde holds Qtbar in the form the fixed-point kernels take (a
    diagonal in the joint eigenbasis when the covariances commute, else a
    stack of diagonal blocks), and q_tilde_bar is the dense p x p Qtbar,
    expanded on first use.
    """

    z: complex
    q_bar_diag: np.ndarray
    q_tilde: np.ndarray
    source: ResolventPoint
    params: ModelParams = field(repr=False, compare=False)

    @cached_property
    def q_tilde_bar(self) -> np.ndarray:
        dense = _dense(self.q_tilde, self.params)
        dense.setflags(write=False)
        return dense


@dataclass(frozen=True)
class SecondOrderSet:
    """The pair-resolvent kernel Omega and response matrix R at (z1, z2)."""

    z1: complex
    z2: complex
    omega: np.ndarray
    r: np.ndarray
    spectral_radius_omega: float


def first_order(point: ResolventPoint, params: ModelParams) -> EquivalentSet:
    """Build (Qbar, Qtbar) from a converged point and certify the defining system."""
    z = point.z
    try:
        t, q_tilde, residual = _q_tilde(point.g, z, params)
    except NumericalSingularityError as exc:
        raise NearSupportError(
            f"I + sum c_a g_a C_a is singular at z={z}"
        ) from exc
    if residual > 1e-10:
        raise NearSupportError(
            f"defining system for Qtbar at z={z} solved to only {residual:.3e}"
        )
    # consistency with the solved point: (1/p) tr C_a Qtbar = gt_a
    err = np.abs(-t / z - point.g_tilde).max()
    if err > 1e-10 * (1.0 + np.abs(point.g_tilde).max()):
        raise ConsistencyError(
            f"tr C_a Qtbar disagrees with gt_a by {err:.3e} at z={z}"
        )
    q_bar = params.c0 * np.asarray(point.g, dtype=complex)
    q_bar.setflags(write=False)
    q_tilde.setflags(write=False)
    return EquivalentSet(z=z, q_bar_diag=q_bar, q_tilde=q_tilde, source=point,
                         params=params)


def q_bar_trace(eq: EquivalentSet, params: ModelParams) -> complex:
    """(1/n) tr Qbar = sum_a c_a (c0 g_a)."""
    return complex(params.c @ eq.q_bar_diag)


def qt_bar_trace(eq: EquivalentSet, params: ModelParams) -> complex:
    """(1/p) tr Qtbar, from the stored form q_tilde without expanding it."""
    return complex(_trace(eq.q_tilde, params)) / params.p


def pair_traces(eq1: EquivalentSet, eq2: EquivalentSet, params: ModelParams):
    """T_ab = (1/p) tr C_a Qtbar_1 C_b Qtbar_2 for all class pairs."""
    return _pair_traces(eq1.q_tilde, eq2.q_tilde, params)


def omega_radius_bound(z1, z2, params: ModelParams) -> float:
    """Explicit upper bound for rho(Omega(z, z*)): 1 - min-term squared.

    term(z) = (Im z)^2 / (|z| (|Im z| + C_max)); the bound applies with the
    conjugate pairing and degenerates to 1 when either point is real.
    """
    def term(z):
        z = complex(z)
        if z.imag == 0.0 or z == 0:
            return 0.0
        return z.imag**2 / (abs(z) * (abs(z.imag) + params.c_max))

    return 1.0 - min(term(z1), term(z2)) ** 2


def second_order(point1: ResolventPoint, point2: ResolventPoint,
                 params: ModelParams) -> SecondOrderSet:
    """Omega(z1,z2), R(z1,z2) and the spectral radius of Omega."""
    eq1 = first_order(point1, params)
    eq2 = first_order(point2, params)
    return second_order_from_equivalents(eq1, eq2, params)


def second_order_from_equivalents(eq1: EquivalentSet, eq2: EquivalentSet,
                                  params: ModelParams) -> SecondOrderSet:
    z1, z2 = eq1.z, eq2.z
    g1 = eq1.source.g
    g2 = eq2.source.g
    t = pair_traces(eq1, eq2, params)
    omega = (params.c0 * (z1 * g1) * (z2 * g2))[:, None] * params.c[None, :] * t
    rho = spectral_radius(omega)
    if rho >= 1.0:
        raise NearSupportError(
            f"rho(Omega) = {rho:.6f} >= 1 at (z1, z2) = ({z1}, {z2})"
        )
    if rho >= 1.0 - 1e-8:
        warnings.warn(
            f"rho(Omega) = {rho:.12f} is within 1e-8 of 1; R is ill-conditioned",
            RuntimeWarning,
            stacklevel=2,
        )
    resp = np.linalg.solve(np.eye(params.k) - omega, omega)
    r = (params.c[:, None] / params.c[None, :]) * resp
    omega.setflags(write=False)
    r.setflags(write=False)
    return SecondOrderSet(
        z1=z1, z2=z2, omega=omega, r=r, spectral_radius_omega=float(rho)
    )


def _check_pair(so: SecondOrderSet, eq1: EquivalentSet, eq2: EquivalentSet, a: int,
                params: ModelParams):
    if not (so.z1 == eq1.z and so.z2 == eq2.z):
        raise ValidationError(
            f"second-order set at ({so.z1}, {so.z2}) does not match the "
            f"equivalents at ({eq1.z}, {eq2.z})"
        )
    if not 0 <= a < params.k:
        raise ValidationError(f"class index {a} out of range for k={params.k}")


def q_da_q_equivalent(so: SecondOrderSet, eq1: EquivalentSet, eq2: EquivalentSet,
                      a: int, params: ModelParams) -> np.ndarray:
    """Equivalent of Q_{z1} D_a Q_{z2} as k block-diagonal coefficients.

    The equivalent is diagonal and constant on each class block b with value
    c0^2 g_b(z1) g_b(z2) (delta_ab + R_ab); expansion to n x n is left to
    callers that need the dense form.
    """
    _check_pair(so, eq1, eq2, a, params)
    g1 = eq1.source.g
    g2 = eq2.source.g
    coeff = np.zeros(params.k, dtype=complex)
    for b in range(params.k):
        coeff[b] = params.c0**2 * g1[b] * g2[b] * ((1.0 if b == a else 0.0) + so.r[a, b])
    return coeff


def qt_ca_qt_equivalent(so: SecondOrderSet, eq1: EquivalentSet, eq2: EquivalentSet,
                        a: int, params: ModelParams) -> np.ndarray:
    """Equivalent of Qt_{z1} C_a Qt_{z2}: the one product
    Qt_1 (C_a + sum_b R_ba C_b) Qt_2."""
    _check_pair(so, eq1, eq2, a, params)
    weights = np.eye(params.k)[a] + so.r[:, a]
    middle = np.tensordot(weights, params.covariances, axes=1)
    return eq1.q_tilde_bar @ middle @ eq2.q_tilde_bar


def qt_w_da_wt_qt_equivalent(so: SecondOrderSet, eq1: EquivalentSet,
                             eq2: EquivalentSet, a: int,
                             params: ModelParams) -> np.ndarray:
    """Equivalent of Qt_{z1} W D_a W^T Qt_{z2}.

    W already carries the p^{-1/2} normalisation (class-a columns have
    covariance C_a / p), so no further 1/p enters.
    """
    scale = (so.z1 * so.z2 * params.c0 * params.c[a]
             * eq1.source.g[a] * eq2.source.g[a])
    return scale * qt_ca_qt_equivalent(so, eq1, eq2, a, params)


def class_trace_functional(z: float, a: int, point: ResolventPoint,
                           params: ModelParams) -> float:
    """Equivalent of tr W_a W_a^T (W W^T + sigma^2 I)^{-1} at z = -sigma^2.

    From the push-through identity W^T Qt W = z Q + I_n, the trace equals
    z tr D_a Q + n_a, whose equivalent is n_a (1 + z c0 g_a(z)).
    """
    if not (np.isreal(z) and float(np.real(z)) < 0):
        raise ValidationError(f"z must be real negative, got {z}")
    z = float(np.real(z))
    if not 0 <= a < params.k:
        raise ValidationError(f"class index {a} out of range for k={params.k}")
    if abs(point.z - z) > 1e-12 * (1.0 + abs(z)):
        raise ValidationError(f"point was solved at {point.z}, not at z={z}")
    return float(params.class_sizes[a] * (1.0 + z * params.c0 * point.g[a].real))


def log_det_functional(sigma2: float, params: ModelParams,
                       opts: SolverOptions | None = None) -> float:
    """Deterministic equivalent of log det(W W^T + sigma^2 I_p).

    Closed form in the fixed point at z = -sigma^2 (Hachem, Loubaton &
    Najim 2007; Couillet, Debbah & Silverstein 2011):

        p log sigma^2 + log det M + sum_a n_a [log(1 + gt_a) - gt_a / (1 + gt_a)]

    with M = I + sum_a c_a g_a C_a. Its sigma^2-derivative is tr Qtbar at
    -sigma^2. The value is certified by the fixed-point residual of the
    one real-axis solve.
    """
    if not sigma2 > 0:
        raise ValidationError(f"sigma2 must be positive, got {sigma2}")
    point = solve_g(complex(-sigma2, 0.0), params, opts or DEFAULT_OPTIONS)
    return log_det_at(point, params)


def log_det_at(point: ResolventPoint, params: ModelParams) -> float:
    """log_det_functional at sigma^2 = -z from a point solved at real z < 0;
    log det M checks that M is positive definite (c0 g_a > 0) there."""
    sigma2 = -point.z.real
    if point.z.imag != 0.0 or not sigma2 > 0:
        raise ValidationError(f"point was solved at {point.z}, not at a real z < 0")
    try:
        log_det_m = _log_det_mixture(point.g.real, params)
    except np.linalg.LinAlgError as exc:
        raise ConsistencyError(
            f"I + sum c_a g_a C_a is not positive definite at z={-sigma2}"
        ) from exc
    gt = point.g_tilde.real
    shannon = np.log1p(gt) - gt / (1.0 + gt)
    return float(params.p * np.log(sigma2) + log_det_m
                 + np.asarray(params.class_sizes) @ shannon)
