"""Coupled fixed-point solver for the class resolvent functions g_a(z).

For each complex z off the real axis there is a unique admissible vector
(g_1(z), ..., g_k(z)) solving

    c0 g_a = -1 / (z (1 + gt_a)),
    gt_a   = -(1/z) (1/p) tr C_a (I_p + sum_b c_b g_b C_b)^{-1},

equivalently the fixed point of the map

    Psi_a(g) = -(1/c0) / (z - (1/p) tr C_a (I_p + sum_b c_b g_b C_b)^{-1}).

The measure of interest has Stieltjes transform m(z) = c0 sum_a c_a g_a(z).
Solving is done by Newton's method on Psi(g) - g with the exact k x k
Jacobian J, in real arithmetic at real z. Points near the real axis are
reached by an adaptive ladder in Im z. Ladder levels and sweep points
start from a cubic Hermite prediction through the two previous solutions
and their slopes g' = c0 (I - J)^{-1} g^2, J the Jacobian each solution's
own corrector built (at the fixed point J is the kernel Omega(z, z)), so a
slope costs one k x k solve and no evaluation. The first level and any
level taken with the base step fall back to a damped Picard step when no
Newton step decreases the residual.

Every start that may fail goes through `_trial`, which gives it
_TRIAL_EVALS evaluations and no Picard step: a warm start, a ladder level
taken with a grown step, and a real point. At complex z it is rejected
when it stalls or lands outside the admissible half-plane; a rejected warm
start falls back to the ladder, a rejected level to a shorter step. At a
real x it is accepted only when the kernel Omega(x, x) at its fixed point
has spectral radius below one, which places x outside the support
(Silverstein & Choi, 1995). When that trial is rejected, the ladder
descends to Im z ~ 1e-9 and one more trial starts from the real part of
its solution; when that too is rejected, the solve fails.

Every evaluation goes through one kernel, `_trace_terms`, which inverts M.
When the class covariances commute, `validate_model` stores their joint
spectra lambda_a(i): M is then diagonal in the joint eigenbasis, with
eigenvalues d = 1 + sum_b c_b g_b lambda_b, and each trace is the O(kp)
sum (1/p) sum_i lambda_a(i) / d(i), the classical Marchenko-Pastur /
Silverstein-Bai form of the same equations. M^{-1} then travels as the
1-D array 1/d. Every other model carries its covariances as a stack of
m diagonal blocks in a fixed orthogonal basis (`ModelParams.blocks`):
two blocks of ceil(p/2) when every C_a commutes with the reversal
i -> p-1-i, as symmetric Toeplitz matrices do, else the one p x p block
C_a. M and M^{-1} are then (m, b, b) stacks in the same basis, so an
inversion costs m inverses of size b. `_pair_traces`, `_q_tilde` and
`_log_det_mixture` take either form, and `model._dense` expands it.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    NonConvergenceError,
    NumericalSingularityError,
    SpecbulkError,
    ValidationError,
)
from .model import ModelParams, _dense
from .nonneg import spectral_radius

# Residual denominators are guarded by this floor to avoid 0/0.
_NORM_FLOOR = 1e-30
# Im z of the last ladder level for a real point its first trial rejects.
_REAL_AXIS_ETA_FLOOR = 1e-9
# Psi evaluations allowed for one trial start: a warm start, a capped
# ladder level or a real point. A start that does not reach tol within
# them (or that fails its half-plane or rho(Omega) check) is rejected, and
# the solve falls back to a safer start.
_TRIAL_EVALS = 12
# Step fraction of the first damped Picard fallback step; halved (down to
# 1/64) whenever a fallback step raises the residual.
_PICARD_DAMPING = 1.0
# Points with |Im z| below this level are reached by a continuation ladder
# that descends the imaginary part from it.
_CONTINUATION_START_IM = 1.0
# Ladder step control (Allgower & Georg, Numerical Continuation Methods,
# 1990): the next level is eta / ratio; the ratio grows by _LADDER_GROWTH
# after a level converged within _LADDER_QUICK evaluations. A level above
# _LADDER_RATIO is a trial start; when it is rejected the ratio falls to
# its root.
_LADDER_RATIO = 2.0
_LADDER_GROWTH = 16.0
_LADDER_QUICK = 3
# The Jacobian J that the corrector of this thread's last solve_g call
# built. solve_grid solves each grid point by calling the module's solve_g,
# so that a wrapper on solve_g sees every sweep point (perfbench's tracer
# counts the sweep's evaluations per point that way), and takes each
# point's slope from this J.
_last_solve = threading.local()


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point solver knobs.

    tol is the relative sup-norm residual on g; max_iter caps the Psi
    evaluations of one iteration at a fixed z (one level of the
    continuation ladder).
    """

    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        if not self.tol > 0:
            raise ValidationError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True)
class ResolventPoint:
    """Solved state at one complex point z."""

    z: complex
    g: np.ndarray
    g_tilde: np.ndarray
    m_mu: complex
    iterations: int
    residual: float


def _mixture_blocks(g, params: ModelParams) -> np.ndarray:
    """The (m, b, b) diagonal blocks of M = I + sum_b c_b g_b C_b on a model
    with blocks (real for real g). A complex weight vector enters as its
    (re, im) columns, so the sum is one real GEMM with a complex result."""
    blocks = params.blocks
    w = params.c * g
    if np.iscomplexobj(w):
        w = np.stack([w.real, w.imag], axis=1)
    flat = blocks.reshape(len(blocks), -1).T @ w
    mix = (flat.view(complex) if flat.ndim == 2 else flat).reshape(blocks.shape[1:])
    mix.reshape(len(mix), -1)[:, :: mix.shape[-1] + 1] += 1.0
    return mix


def _mixture_eigenvalues(g, params: ModelParams) -> np.ndarray:
    """Eigenvalues d = 1 + sum_b c_b g_b lambda_b of M in the joint
    eigenbasis of a model with joint spectra (real for real g)."""
    return 1.0 + (params.c * g) @ params.spectra


def _trace_terms(g, z, params: ModelParams):
    """Traces t_a = (1/p) tr C_a M^{-1} plus M^{-1} for M = I + sum c_b g_b C_b.

    The one place where M is inverted; every other consumer of M^{-1}
    (the Psi map, its Jacobian, g', Qtbar, the equivalents) goes through
    here. Real g gives real traces.

    On a model with joint spectra (commuting covariances) M^{-1} is the
    1-D array 1/d of its eigenvalues in the joint eigenbasis and t_a is
    the sum lambda_a . (1/d) / p. Otherwise M^{-1} is the (m, b, b) stack
    of the inverses of M's diagonal blocks, from one batched inversion;
    with the blocks of C_a symmetric, t_a is the dot of the raveled blocks
    of C_a with M^{-1} raveled, and a complex M^{-1} enters as its real
    view of (re, im) pairs, so all k traces are one real BLAS product.
    """
    if params.spectra is not None:
        d = _mixture_eigenvalues(g, params)
        if not d.all():
            raise NumericalSingularityError(
                f"singular mixture matrix I + sum c_b g_b C_b at z={z}", z=z
            )
        minv = 1.0 / d
        return params.spectra @ minv / params.p, minv
    try:
        minv = np.linalg.inv(_mixture_blocks(g, params))
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(
            f"singular mixture matrix I + sum c_b g_b C_b at z={z}", z=z
        ) from exc
    flat = minv.reshape(-1)
    if np.iscomplexobj(flat):
        flat = flat.view(float).reshape(-1, 2)
    t = params.blocks.reshape(params.k, -1) @ flat / params.p
    if t.ndim == 2:
        t = t.view(complex)[:, 0]  # the (re, im) rows back as complex
    return t, minv


def initial_guess(z, params: ModelParams) -> np.ndarray:
    """The exact z -> infinity asymptote g_a = -1/(c0 z), admissible for large |z|."""
    return np.full(params.k, -1.0 / (params.c0 * z), dtype=complex)


def _psi_jacobian(t, minv, z, params: ModelParams):
    """Exact k x k Jacobian of Psi at the current iterate.

    dPsi_a/dg_b = (1/c0) (z - t_a)^{-2} c_b (1/p) tr C_a M^{-1} C_b M^{-1};
    at the fixed point this is the kernel Omega(z, z).
    """
    pair = _pair_traces(minv, minv, params)
    u2 = (z - t) ** 2
    return (params.c[None, :] / params.c0) * pair / u2[:, None]


def _blocks_times(blocks, op):
    """The blocks of every C_a times the (m, b, b) stack op, as a
    (k, m, b, b) array; a complex op is multiplied as its (m, b, 2b) real
    view, so the products are real GEMMs instead of complex ones on
    upcast blocks."""
    if np.iscomplexobj(op):
        return (blocks @ np.ascontiguousarray(op).view(float)).view(complex)
    return blocks @ op


def _pair_traces(left, right, params: ModelParams) -> np.ndarray:
    """T_ab = (1/p) tr C_a L C_b R for all class pairs.

    1-D operands are the diagonals of L and R in the joint eigenbasis of a
    model with joint spectra lambda (as `_trace_terms` returns M^{-1}), and
    T = (lambda * l * r) lambda^T / p. Otherwise the operands are (m, b, b)
    stacks of diagonal blocks in the basis of `ModelParams.blocks`, and
    the trace is the sum over the m blocks; when R is L the matrix is
    symmetric (cyclic trace with symmetric blocks) and only its upper
    triangle is computed. Real L and R give a real T.
    """
    if np.ndim(left) == 1:
        lam = params.spectra
        return (lam * (left * right)) @ lam.T / params.p
    k = params.k
    x = _blocks_times(params.blocks, left)
    y = x if right is left else _blocks_times(params.blocks, right)
    pair = np.empty((k, k), dtype=np.result_type(left, right))
    for a in range(k):
        for b in range(a if y is x else 0, k):
            pair[a, b] = np.einsum("nij,nji->", x[a], y[b])
            if y is x:
                pair[b, a] = pair[a, b]
    return pair / params.p


def _q_tilde(g, z, params: ModelParams):
    """Qtbar = -M^{-1}/z in the kernels' form, with the traces t_a and the
    residual max |M M^{-1} - I| of the inversion.

    The form is the one `_trace_terms` gives M^{-1}: the 1-D diagonal in
    the joint eigenbasis on a model with joint spectra, else the (m, b, b)
    stack of diagonal blocks. `_pair_traces` takes it as it is; `_dense`
    expands it.
    """
    t, minv = _trace_terms(g, z, params)
    if minv.ndim == 1:
        residual = np.abs(_mixture_eigenvalues(g, params) * minv - 1.0).max()
    else:
        prod = _mixture_blocks(g, params) @ minv
        prod.reshape(len(prod), -1)[:, :: prod.shape[-1] + 1] -= 1.0
        residual = np.abs(prod).max()
    return t, -minv / z, residual


def _log_det_mixture(g, params: ModelParams) -> float:
    """log det M for real g, from the eigenvalues d of M on a model with
    joint spectra, else from the Cholesky factors of M's diagonal blocks.
    Raises LinAlgError unless M is positive definite."""
    if params.spectra is not None:
        d = _mixture_eigenvalues(g, params)
        if not (d > 0.0).all():
            raise np.linalg.LinAlgError("M has an eigenvalue <= 0")
        return float(np.sum(np.log(d)))
    chol = np.linalg.cholesky(_mixture_blocks(g, params))
    return float(2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2))))


def _psi_eval(g, z, params):
    """One Psi application: (f, residual, traces, mixture inverse)."""
    t, minv = _trace_terms(g, z, params)
    denom = z - t
    if np.any(np.abs(denom) < _NORM_FLOOR):
        raise NumericalSingularityError(
            f"vanishing denominator z - trace at z={z}", z=z
        )
    f = -1.0 / (params.c0 * denom)
    resid = np.abs(f - g).max() / (np.abs(g).max() + _NORM_FLOOR)
    return f, float(resid), t, minv


def _wrong_half_plane(candidate, z):
    """True when a step jumps toward the conjugate branch."""
    if z.imag == 0.0:
        return False
    sign = 1.0 if z.imag > 0 else -1.0
    scale = np.abs(candidate).max() + _NORM_FLOOR
    return bool(np.any(sign * candidate.imag < -0.02 * scale))


def _iterate(z, g0, params: ModelParams, opts: SolverOptions, cap=None):
    """Newton corrector on Psi(g) - g from g0, at fixed z, in real
    arithmetic when z and g0 are real and in complex arithmetic otherwise.

    Each step solves (I - J) s = Psi(g) - g with J the exact k x k Jacobian
    of Psi at the current iterate and takes the first of s and s/2 whose
    true residual is lower; a candidate on the wrong half-plane is skipped,
    one where M is singular fails. When neither is taken, a trial (cap
    given) gives up and returns g = None, as it does after min(max_iter,
    cap) evaluations. A free level (no cap) instead takes one damped Picard
    step g + damping (Psi(g) - g), damping halved (down to 1/64) whenever
    such a step raises the residual, and raises NonConvergenceError after
    max_iter evaluations. A returned g satisfies ||Psi(g) - g||_inf <= tol
    ||g||_inf, however the step that reached it was produced.

    Returns (g, residual, evaluations, traces at g, J, M^{-1} at g). J is
    the last Jacobian built, at the iterate the final step started from;
    when g0 already met tol (one evaluation, no step), J is built at g.
    """
    real = np.isrealobj(z) and np.isrealobj(g0)
    g = np.asarray(g0, dtype=float if real else complex)
    f, resid, t, minv = _psi_eval(g, z, params)
    evals, max_iter = 1, opts.max_iter if cap is None else min(opts.max_iter, cap)
    damping = _PICARD_DAMPING
    eye = np.eye(params.k)
    jac = None
    while not resid <= opts.tol and evals < max_iter:  # NaN certifies nothing
        delta = f - g
        jac = _psi_jacobian(t, minv, z, params)
        try:
            step = np.linalg.solve(eye - jac, delta)
        except np.linalg.LinAlgError:
            step = None
        stepped = False
        if step is not None:
            for frac in (1.0, 0.5):
                candidate = g + frac * step
                if _wrong_half_plane(candidate, z):
                    continue
                evals += 1
                try:
                    f_c, resid_c, t_c, minv_c = _psi_eval(candidate, z, params)
                except NumericalSingularityError:
                    resid_c = np.inf
                if resid_c < resid:
                    g, f, resid, t, minv = candidate, f_c, resid_c, t_c, minv_c
                    stepped = True
                    break
                if evals >= max_iter:
                    break
        if stepped:
            continue
        if cap is not None:
            break  # a trial takes no Picard step
        if evals < max_iter:
            candidate = g + damping * delta
            f_c, resid_c, t_c, minv_c = _psi_eval(candidate, z, params)
            evals += 1
            if resid_c > resid:
                damping = max(damping / 2.0, 1.0 / 64.0)
            g, f, resid, t, minv = candidate, f_c, resid_c, t_c, minv_c
    if resid <= opts.tol:
        if jac is None:
            jac = _psi_jacobian(t, minv, z, params)
        return g, resid, evals, t, jac, minv
    if cap is not None:
        return None, float("nan"), evals, None, None, None
    raise NonConvergenceError(
        f"no convergence at z={z} after {max_iter} evaluations "
        f"(last residual {resid:.3e})",
        z=z,
        residual=float(resid),
        iterations=evals,
    )


def _violates_signs(z, g):
    """True when Im g_a or Im z g_a has the wrong sign beyond a 1e-10 slack."""
    sign = 1.0 if z.imag > 0 else -1.0
    slack = 1e-10 * (np.abs(g).max() + _NORM_FLOOR)
    return bool(np.any(sign * g.imag < -slack)
                or np.any(sign * (z * g).imag < -slack * abs(z)))


def _check_admissible(z, g, params: ModelParams):
    """Sign constraints on the admissible half-plane solution, with slack."""
    if _violates_signs(z, g):
        img = (1.0 if z.imag > 0 else -1.0) * g.imag
        raise ConsistencyError(
            f"solution at z={z} violates half-plane sign constraints "
            f"(min Im g = {img.min():.3e})"
        )
    bound = 1.0 / abs(z.imag)
    if np.any(params.c0 * np.abs(g) > bound * (1.0 + 1e-8)):
        raise ConsistencyError(
            f"solution at z={z} violates c0 |g_a| <= 1/|Im z|"
        )


def _finish(z, g, resid, evals, t, params: ModelParams) -> ResolventPoint:
    """Package a solved point; t holds the traces t_a already taken at g."""
    g_tilde = -t / z
    m_mu = params.c0 * complex(params.c @ g)
    g = g.copy()
    g.setflags(write=False)
    g_tilde.setflags(write=False)
    return ResolventPoint(
        z=complex(z),
        g=g,
        g_tilde=g_tilde,
        m_mu=m_mu,
        iterations=int(evals),
        residual=float(resid),
    )


def _predict(z, z1, g1, d1, z0, g0, d0):
    """Cubic Hermite predictor at z through (z0, g0, g0') and (z1, g1, g1').

    With h = z1 - z0 and s = (z - z0) / h the cubic is
    (2s^3 - 3s^2 + 1) g0 + (s^3 - 2s^2 + s) h g0' + (3s^2 - 2s^3) g1
    + (s^3 - s^2) h g1', with O(h^4) error against the secant's O(h^2)
    (Allgower & Georg, Numerical Continuation Methods, 1990, ch. 6). It is
    trusted when it and the secant both lie in the admissible half-plane
    and its correction to the secant is no larger than the secant's step
    from g1; otherwise the start is g1. Next to a hard edge or an atom at
    zero, where g ~ z^{-1/2}, the cubic can land in the admissible
    half-plane but far off, and the secant outside it.
    """
    h = z1 - z0
    s = (z - z0) / h
    s2 = s * s
    s3 = s2 * s
    secant = g1 + (s - 1.0) * (g1 - g0)
    cubic = ((2.0 * s3 - 3.0 * s2 + 1.0) * g0 + (s3 - 2.0 * s2 + s) * h * d0
             + (3.0 * s2 - 2.0 * s3) * g1 + (s3 - s2) * h * d1)
    trusted = (np.abs(cubic - secant).max() <= np.abs(secant - g1).max()
               and not _wrong_half_plane(secant, z) and not _wrong_half_plane(cubic, z))
    return cubic if trusted else g1  # a NaN slope is never trusted


def _trial(z, guess, params, opts):
    """A start that may fail: `_iterate` from guess, capped at _TRIAL_EVALS.

    At complex z, a g that violates the half-plane signs (a fixed point on
    the conjugate branch) is rejected. At real z, with a real guess, g is
    accepted only when the kernel Omega(z, z), the Jacobian of Psi at g, is
    finite with spectral radius below one: z then lies outside the support
    (Silverstein & Choi, 1995).

    Returns (g, residual, evaluations, traces at g, J, rho(Omega)). J is
    Omega at real z and the corrector's last Jacobian at complex z, where
    rho is NaN; g is None when the attempt stalls, starts at a singular M,
    reaches the cap or is rejected. Evaluations count either way.
    """
    rho = float("nan")
    with np.errstate(all="ignore"):
        try:
            g, resid, evals, t, jac, minv = _iterate(z, guess, params, opts, _TRIAL_EVALS)
        except NumericalSingularityError:  # M singular at the guess
            g, evals = None, 1
        if g is not None and z.imag:
            g = None if _violates_signs(z, g) else g
        elif g is not None:
            if evals > 1:  # J is at the iterate before the final step
                jac = _psi_jacobian(t, minv, z, params)
            rho = spectral_radius(jac) if np.isfinite(jac).all() else rho
            g = g if rho < 1.0 else None
    if g is None:
        return None, float("nan"), evals, None, None, float("nan")
    return g, resid, evals, t, jac, rho


def _ladder(z, params, opts):
    """Continuation in Im z from _CONTINUATION_START_IM down to Im z.

    The second level starts from the first level's g, every later one from
    `_predict` through the last two levels and their slopes
    g' = c0 (I - J)^{-1} g^2, J the Jacobian each level's corrector built.
    The evaluations of rejected levels count in the returned total.
    Returns (g, residual, evaluations, traces at g, J) of the last level.
    """
    target = abs(z.imag)
    z1 = complex(z.real, np.copysign(max(_CONTINUATION_START_IM, target), z.imag))
    g1, resid, total, t, jac = _iterate(z1, initial_guess(z1, params), params, opts)[:5]
    d1 = _g_prime(jac, g1, z1, params)
    z0 = g0 = d0 = None
    ratio = _LADDER_RATIO
    while abs(z1.imag) > target * (1.0 + 1e-12):
        eta = abs(z1.imag) / ratio
        eta = eta if eta > target * (1.0 + 1e-12) else target
        z_next = complex(z.real, np.copysign(eta, z.imag))
        guess = g1 if z0 is None else _predict(z_next, z1, g1, d1, z0, g0, d0)
        step = _trial if ratio > _LADDER_RATIO else _iterate
        g, resid_n, evals, t_n, jac_n = step(z_next, guess, params, opts)[:5]
        total += evals
        if g is None:
            ratio = max(np.sqrt(ratio), _LADDER_RATIO)  # reject the level
            continue
        z0, g0, d0 = z1, g1, d1
        z1, g1, resid, t, jac = z_next, g, resid_n, t_n, jac_n
        d1 = _g_prime(jac, g1, z1, params)
        if evals <= _LADDER_QUICK:
            ratio *= _LADDER_GROWTH
    return g1, resid, total, t, jac


def _solve_complex(z, params, opts, warm_start=None):
    """A trial from the warm start, else (or when it is rejected) the
    continuation ladder; the evaluations of both count."""
    spent = 0
    if warm_start is not None:
        g, resid, spent, t, jac, _ = _trial(z, warm_start, params, opts)
        if g is not None:
            return g, resid, spent, t, jac
    g, resid, total, t, jac = _ladder(z, params, opts)
    return g, resid, spent + total, t, jac


def _solve_real(x, params, opts, warm_start=None):
    """Real x outside the support: a trial from the real part of the warm
    start, or from the asymptote; when it is rejected, the ladder down to
    Im z = _REAL_AXIS_ETA_FLOOR and one more trial from the real part of
    its g. Both trials are certified by rho(Omega(x, x)) < 1."""
    g0 = initial_guess(x, params).real if warm_start is None else warm_start.real
    g, resid, total, t, omega, _ = _trial(x, g0, params, opts)
    if g is None:
        g_eta, _, spent, _, _ = _ladder(complex(x, _REAL_AXIS_ETA_FLOOR), params, opts)
        g, resid, evals, t, omega, _ = _trial(x, g_eta.real, params, opts)
        total += spent + evals
        if g is None:
            raise ConsistencyError(
                f"real-axis solve at z={x} not certified by rho(Omega) < 1; "
                "the point is inside or too close to the support"
            )
    if x < 0 and np.any(params.c0 * g <= 0):
        raise ConsistencyError(
            f"real-axis solve at z={x} lost positivity of c0 g_a"
        )
    return g.astype(complex), resid, total, t, omega


def solve_g(z, params: ModelParams, opts: SolverOptions | None = None,
            warm_start=None) -> ResolventPoint:
    """Solve the coupled fixed-point system at one complex point.

    Points with |Im z| < 1 are reached by the adaptive continuation ladder
    from Re z + i. A warm start is tried first as a trial start: it gets
    _TRIAL_EVALS evaluations and is rejected, and the ladder taken, when it
    stalls or lands outside the admissible half-plane. The returned point
    passes the half-plane sign and |g| bound checks, which run once.
    iterations counts every Psi evaluation, failed attempts included. Real z
    must lie outside the support (and away from 0). It is solved by a real
    trial from the real part of the warm start or from the asymptote
    -1/(c0 z), else by one from the real part of the ladder's solution at
    Im z = 1e-9, and returned only with rho(Omega(z, z)) < 1.
    """
    opts = opts or DEFAULT_OPTIONS
    params = _require_validated(params)
    z = complex(z)
    if z == 0:
        raise ValidationError("z = 0 is excluded (atom location)")
    if warm_start is not None:
        warm_start = np.asarray(warm_start, dtype=complex)
        if warm_start.shape != (params.k,):
            raise ValidationError(
                f"warm start has shape {warm_start.shape}, expected ({params.k},)"
            )
    if z.imag == 0.0:
        g, resid, evals, t, jac = _solve_real(z.real, params, opts, warm_start)
    else:
        g, resid, evals, t, jac = _solve_complex(z, params, opts, warm_start)
        _check_admissible(z, g, params)
    _last_solve.jac = jac
    return _finish(z, g, resid, evals, t, params)


def solve_grid(zs, params: ModelParams, opts: SolverOptions | None = None):
    """Predictor-corrector sweep over an ordered list of complex points.

    Point i+1 (i >= 1) starts from `_predict`, the cubic Hermite predictor
    through (z_{i-1}, g_{i-1}, g'_{i-1}) and (z_i, g_i, g'_i), in the actual
    spacings so that non-uniform grids are followed too; the second point
    starts from the first point's solution. Each slope is
    g' = c0 (I - J)^{-1} g^2 with J the Jacobian of Psi that the point's own
    corrector built, so it costs one k x k solve and no evaluation. A
    prediction the predictor does not trust is replaced by the previous
    solution. The first point, and any point whose warm start is rejected
    (it stalls within _TRIAL_EVALS evaluations or lands outside the
    admissible half-plane), goes through the continuation ladder. The
    predictor only moves the starting guess: each point is certified by its
    own residual and half-plane signs. Real grid points are rejected:
    evaluating on the axis requires an explicit eta (see the spectrum
    module).
    """
    zs = [complex(zv) for zv in zs]
    if not zs:
        raise ValidationError("empty grid")
    if any(zv.imag == 0.0 for zv in zs):
        raise ValidationError(
            "solve_grid requires Im z != 0 for every point; use an explicit eta"
        )
    opts = opts or DEFAULT_OPTIONS
    params = _require_validated(params)
    points = []
    warm = slope = prev_slope = None
    for i, zv in enumerate(zs):
        if i >= 2 and points[-1].z != points[-2].z:
            last, prev = points[-1], points[-2]
            warm = _predict(zv, last.z, last.g, slope, prev.z, prev.g, prev_slope)
        try:
            point = solve_g(zv, params, opts, warm_start=warm)
            prev_slope, slope = slope, _g_prime(_last_solve.jac, point.g, zv, params)
        except SpecbulkError as exc:
            # annotate in place: the exception keeps its type and fields
            exc.args = (f"grid index {i} (z={zv}): {exc}",)
            raise
        points.append(point)
        warm = point.g
    return points


def g_derivative(point: ResolventPoint, params: ModelParams) -> np.ndarray:
    """g'(z) from the solved point via g' = c0 (I - Omega(z,z))^{-1} g^2.

    At the fixed point the Jacobian of Psi is the kernel Omega(z, z):
    c0 c_b g_a^2 (1/p) tr C_a M^{-1} C_b M^{-1} with M = I + sum c_b g_b C_b.
    """
    params = _require_validated(params)
    g = np.asarray(point.g, dtype=complex)
    t, minv = _trace_terms(g, point.z, params)
    return _g_prime(_psi_jacobian(t, minv, point.z, params), g, point.z, params)


def _g_prime(omega, g, z, params: ModelParams) -> np.ndarray:
    """Solve (I - Omega) g' = c0 g^2 for the kernel Omega at a fixed point."""
    try:
        return np.linalg.solve(np.eye(params.k) - omega, params.c0 * g**2)
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(
            f"I - Omega(z,z) singular at z={z}: too close to the support",
            z=z,
        ) from exc


def _require_validated(params: ModelParams) -> ModelParams:
    if not params.validated:
        raise ValidationError("ModelParams must go through validate_model first")
    return params
