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
slope costs one k x k solve and no evaluation.

Every start is a trial, `_trial`, which gives it _TRIAL_EVALS evaluations
and gives up at its first stall: a warm start, each ladder level and a
real point. Every Newton candidate is evaluated; no test screens the
steps. At complex z the trial is rejected when it stalls or when its fixed
point fails the half-plane signs of an admissible solution (the conjugate
branch); a rejected warm start falls back to the ladder, a rejected level
to a shorter step, and a rejected first level to a higher one. At a real
x it is accepted only when the kernel Omega(x, x) at its fixed point has
spectral radius below one, which places x outside the support
(Silverstein & Choi, 1995). When that trial is rejected, the
ladder descends to Im z ~ 1e-9 and one more trial starts from the real
part of its solution; when that too is rejected, the solve fails. The
trials of one solve share its budget SolverOptions.max_iter of
evaluations, and a solve that runs out of it fails.

A grid sweep, `solve_grid`, solves anchors by solve_g, each from the
cubic Hermite prediction through the two anchors before it. On a model
with joint spectra (below) the anchors thin out: the step to the next
anchor is sized from the measured error of the anchor's own cubic
prediction (and halved after an anchor that had none), so that the
interpolant through two anchors starts every point between them within
about tol^(1/4) of its solution, two Newton steps from tol
(`_anchor_step`). The grid points between two anchors start from the
cubic Hermite interpolant through them and are corrected together by
`_stacked_trial`, which applies the rules of `_trial` to every point of a
stack at once; a stack holds at most max(p, 2^16 // p) points, and the
points it accepts are bound-checked and packaged stack-wide. A point that
its stack rejects takes the rest of a warm-started solve_g: the stack's
trial stands for its own, and the continuation ladder follows. On any
other model every grid point is an anchor.

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
`_log_det_mixture` take either form, and `model._dense` expands it. In
the joint-spectra form `_trace_terms`, `_pair_traces`, `_psi_jacobian`,
`_psi_eval` and the sign and bound tests also take a leading
axis of points, g of shape (P, k) at z of shape (P, 1), and return one
result a point: the stacks of `_stacked_trial`.
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from numbers import Integral, Real

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
# A fill stack of a commuting sweep holds at most max(p, _STACK_ENTRIES // p)
# points, so that none of its (P, p) arrays has more entries than one p x p
# covariance, or than a 256 x 256 one on smaller models.
_STACK_ENTRIES = 2**16
# Im z of the last ladder level for a real point its first trial rejects.
_REAL_AXIS_ETA_FLOOR = 1e-9
# Psi evaluations allowed for one trial: a warm start, a ladder level or a
# real point. A trial that does not reach tol within them (or that fails
# its sign or rho(Omega) certificate) is rejected, and the solve falls back
# to a safer start.
_TRIAL_EVALS = 12
# Points with |Im z| below this level are reached by a continuation ladder
# that descends the imaginary part from it.
_CONTINUATION_START_IM = 1.0
# Ladder step control (Allgower & Georg, Numerical Continuation Methods,
# 1990): the next level is eta / ratio; the ratio grows by _LADDER_GROWTH
# after a level converged within _LADDER_QUICK evaluations and falls to its
# root after a rejected level. A rejected first level starts again at
# _LADDER_RATIO times its height.
_LADDER_RATIO = 2.0
_LADDER_GROWTH = 16.0
_LADDER_QUICK = 3
# The Jacobian J that the corrector of this thread's last solve_g call
# built. solve_grid solves each anchor by calling the module's solve_g, so
# that a wrapper on solve_g sees every anchor (perfbench's tracer counts the
# sweep's evaluations per anchor that way), and takes each anchor's slope
# from this J.
_last_solve = threading.local()


@dataclass(frozen=True)
class SolverOptions:
    """Fixed-point solver knobs.

    tol is the relative sup-norm residual on g, a finite positive real;
    max_iter, a whole number >= 1, is the budget of Psi evaluations of one
    whole solve_g call (its warm trial, ladder levels and real-axis trials
    together). A solve that runs out of it raises NonConvergenceError.
    """

    tol: float = 1e-12
    max_iter: int = 10_000

    def __post_init__(self):
        tol, max_iter = self.tol, self.max_iter
        if isinstance(tol, bool) or not isinstance(tol, Real) or not 0 < tol < np.inf:
            raise ValidationError(f"tol must be a finite positive real, got {tol!r}")
        if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 1:
            raise ValidationError(f"max_iter must be a whole number >= 1, got {max_iter!r}")


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
        w = w.view(float).reshape(-1, 2)
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
        return minv @ params.spectra.T / params.p, minv
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
    return params.c_over_c0 * pair / u2[..., None]


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

    On a model with joint spectra lambda the operands are the diagonals of
    L and R in the joint eigenbasis (as `_trace_terms` returns M^{-1}), and
    T = (l * r) Lambda2^T / p is one product with the (k^2, p) products
    Lambda2 = lambda_a lambda_b, formed in the call; (P, p) operands give a
    (P, k, k) T without a (P, k, p) temporary. Otherwise the operands are
    (m, b, b) stacks of diagonal blocks in the basis of `ModelParams.blocks`,
    and the trace is the sum over the m blocks; when R is L the matrix is
    symmetric (cyclic trace with symmetric blocks) and only its upper
    triangle is computed. Real L and R give a real T.
    """
    if params.spectra is not None:
        lam, k = params.spectra, params.k
        pairs = (lam[:, None] * lam).reshape(k * k, -1)  # the products lambda_a lambda_b
        return ((left * right) @ pairs.T / params.p).reshape(*left.shape[:-1], k, k)
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
    if (abs(denom) < _NORM_FLOOR).any():
        raise NumericalSingularityError(
            f"vanishing denominator z - trace at z={z}", z=z
        )
    f = -1.0 / (params.c0 * denom)
    resid = abs(f - g).max(-1) / (abs(g).max(-1) + _NORM_FLOOR)
    return f, resid if g.ndim > 1 else float(resid), t, minv


def _violates_signs(z, g):
    """True when Im g_a or Im z g_a has the wrong sign beyond a 1e-10 slack."""
    sign = 2.0 * (z.imag > 0) - 1.0  # -1 on the real axis
    slack = -1e-10 * (abs(g).max(-1, keepdims=True) + _NORM_FLOOR)
    bad = ((sign * g.imag < slack) | (sign * (z * g).imag < slack * abs(z))).any(-1)
    return bad if g.ndim > 1 else bool(bad)


def _exceeds_bound(z, g, params: ModelParams):
    """True when c0 |g_a| > 1/|Im z| beyond a 1e-8 slack, the bound that
    `_trial` leaves unchecked."""
    bound = 1.0 / abs(z.imag)
    over = (params.c0 * abs(g) > bound * (1.0 + 1e-8)).any(-1)
    return over if g.ndim > 1 else bool(over)


def _check_bound(z, g, params: ModelParams):
    """Raise ConsistencyError unless c0 |g_a| <= 1/|Im z|."""
    if _exceeds_bound(z, g, params):
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
    trusted when its correction to the secant is no larger than the
    secant's step from g1 and it passes the sign certificate of an
    admissible solution, `_violates_signs`; otherwise the start is the
    array g1 itself (solve_grid tells the two apart by identity). Next to a
    hard edge or an atom at zero, where g ~ z^{-1/2}, the cubic can land
    far off, or with the signs of the conjugate branch.
    """
    h = z1 - z0
    s = (z - z0) / h
    secant = g1 + (s - 1.0) * (g1 - g0)
    cubic = _hermite(s, h, g0, d0, g1, d1)
    trusted = abs(cubic - secant).max() <= abs(secant - g1).max() and not _violates_signs(z, cubic)
    return cubic if trusted else g1  # a NaN slope is never trusted


def _hermite(s, h, g0, d0, g1, d1):
    """The cubic Hermite polynomial of `_predict` at s; an s of shape (P, 1)
    gives one row a point."""
    s2 = s * s
    s3 = s2 * s
    return ((2.0 * s3 - 3.0 * s2 + 1.0) * g0 + (s3 - 2.0 * s2 + s) * h * d0
            + (3.0 * s2 - 2.0 * s3) * g1 + (s3 - s2) * h * d1)


def _check_budget(z, resid, spent, opts):
    """Raise NonConvergenceError once the solve has spent its budget of
    opts.max_iter evaluations; z and resid are of the last trial."""
    if spent >= opts.max_iter:
        raise NonConvergenceError(
            f"solve spent its budget of {opts.max_iter} evaluations; "
            f"last trial at z={z}, residual {resid:.3e}",
            z=z,
            residual=float(resid),
            iterations=spent,
        )


def _trial(z, guess, params, opts, spent=0):
    """Newton corrector on Psi(g) - g from guess, at fixed z: a start that
    may fail, and the only place where solve_g evaluates Psi. Real z with a
    real guess is solved in real arithmetic, anything else in complex.

    Each step solves (I - J) s = Psi(g) - g with J the exact k x k Jacobian
    of Psi at the current iterate and takes the first of s and s/2 whose
    true residual is lower; a candidate where M is singular fails, and no
    other test screens them. The trial gives up at its first stall
    (neither is taken), when M is singular at the guess, or after
    min(_TRIAL_EVALS, opts.max_iter - spent) evaluations, spent being what
    the solve has used so far of its budget opts.max_iter; callers start
    no trial once that budget is spent.

    A g with ||Psi(g) - g||_inf <= tol ||g||_inf still needs its
    certificate, which alone keeps the conjugate branch out. At complex z,
    a g that violates the half-plane signs of an admissible solution is
    rejected. At real z, g is accepted only when the kernel Omega(z, z),
    the Jacobian of Psi at g, is finite with spectral radius below one: z
    then lies outside the support (Silverstein & Choi, 1995).

    Returns (g, residual, evaluations, traces at g, J, M^{-1} at g). J is
    Omega at real z; at complex z it is the last Jacobian built, at the
    iterate the final step started from (at g when the guess met tol).
    g is None when the trial is rejected, and evaluations count either
    way. A rejected trial that leaves nothing of the budget raises
    NonConvergenceError (`_check_budget`).
    """
    cap = min(_TRIAL_EVALS, opts.max_iter - spent)
    real = not isinstance(z, complex) and np.isrealobj(guess)
    g = np.asarray(guess, dtype=float if real else complex)
    f, resid, evals, jac = None, float("nan"), 1, None
    with np.errstate(all="ignore"):
        try:
            f, resid, t, minv = _psi_eval(g, z, params)
        except NumericalSingularityError:  # M singular at the guess
            pass
        while f is not None and not resid <= opts.tol and evals < cap:
            jac = _psi_jacobian(t, minv, z, params)
            try:
                step = _solve_small(_identity(params.k) - jac, f - g)
            except np.linalg.LinAlgError:
                break
            for frac in (1.0, 0.5):
                candidate = g + frac * step
                evals += 1
                try:
                    f_c, resid_c, t_c, minv_c = _psi_eval(candidate, z, params)
                except NumericalSingularityError:
                    resid_c = np.inf
                if resid_c < resid:
                    g, f, resid, t, minv = candidate, f_c, resid_c, t_c, minv_c
                    break
                if evals >= cap:
                    break
            else:
                break  # a stall: neither step lowered the residual
        accepted = resid <= opts.tol  # NaN certifies nothing
        if accepted and (jac is None or not z.imag):
            jac = _psi_jacobian(t, minv, z, params)  # at g
        if accepted and z.imag:
            accepted = not _violates_signs(z, g)
        elif accepted:
            accepted = bool(np.isfinite(jac).all()) and spectral_radius(jac) < 1.0
    if accepted:
        return g, resid, evals, t, jac, minv
    _check_budget(z, resid, spent + evals, opts)
    return None, float("nan"), evals, None, None, None


def _ladder(z, params, opts, spent=0):
    """Continuation in Im z from _CONTINUATION_START_IM down to Im z, every
    level a `_trial` within the solve's budget, of which spent is used.

    The first level starts from the asymptote at Im z = max(1, |Im z|);
    when it is rejected it starts again from the asymptote at _LADDER_RATIO
    times its height. The second level starts from the first level's g,
    every later one from `_predict` through the last two levels and their
    slopes g' = c0 (I - J)^{-1} g^2, J the Jacobian each level's corrector
    built. A rejected later level takes the root of the ratio; the budget
    is the ladder's only stop, and when an accepted level has spent it the
    error carries that level's z and residual. Returns (g, residual,
    evaluations spent by the solve, traces at g, J) of the last level.
    """
    target = abs(z.imag)
    eta = max(_CONTINUATION_START_IM, target)
    g1 = None
    while g1 is None:
        z1 = complex(z.real, np.copysign(eta, z.imag))
        g1, resid, evals, t, jac, _ = _trial(z1, initial_guess(z1, params), params, opts,
                                             spent)
        spent += evals
        eta *= _LADDER_RATIO
    d1 = _g_prime(jac, g1, z1, params)
    z0 = g0 = d0 = None
    ratio = _LADDER_RATIO
    while abs(z1.imag) > target * (1.0 + 1e-12):
        _check_budget(z1, resid, spent, opts)
        eta = abs(z1.imag) / ratio
        eta = eta if eta > target * (1.0 + 1e-12) else target
        z_next = complex(z.real, np.copysign(eta, z.imag))
        guess = g1 if z0 is None else _predict(z_next, z1, g1, d1, z0, g0, d0)
        g, resid_n, evals, t_n, jac_n, _ = _trial(z_next, guess, params, opts, spent)
        spent += evals
        if g is None:
            ratio = np.sqrt(ratio)  # reject the level
            continue
        z0, g0, d0 = z1, g1, d1
        z1, g1, resid, t, jac = z_next, g, resid_n, t_n, jac_n
        d1 = _g_prime(jac, g1, z1, params)
        if evals <= _LADDER_QUICK:
            ratio *= _LADDER_GROWTH
    return g1, resid, spent, t, jac


def _solve_complex(z, params, opts, warm_start=None, spent=0):
    """A trial from the warm start, else (or when it is rejected) the
    continuation ladder; the evaluations of both count, on top of the spent
    ones. Every trial has checked the signs, so only the |g| bound is left."""
    g = None
    if warm_start is not None:
        g, resid, evals, t, jac, _ = _trial(z, warm_start, params, opts, spent)
        spent += evals
    if g is None:
        g, resid, spent, t, jac = _ladder(z, params, opts, spent)
    _check_bound(z, g, params)
    return g, resid, spent, t, jac


def _solve_real(x, params, opts, warm_start=None):
    """Real x outside the support: a trial from the real part of the warm
    start, or from the asymptote; when it is rejected, the ladder down to
    Im z = _REAL_AXIS_ETA_FLOOR and one more trial from the real part of
    its g. Both trials are certified by rho(Omega(x, x)) < 1."""
    g0 = initial_guess(x, params).real if warm_start is None else warm_start.real
    g, resid, total, t, omega, _ = _trial(x, g0, params, opts)
    if g is None:
        z_eta = complex(x, _REAL_AXIS_ETA_FLOOR)
        g_eta, resid_eta, total, _, _ = _ladder(z_eta, params, opts, total)
        _check_budget(z_eta, resid_eta, total, opts)
        g, resid, evals, t, omega, _ = _trial(x, g_eta.real, params, opts, total)
        total += evals
        if g is None:
            raise ConsistencyError(
                f"real-axis solve at z={x} not certified by rho(Omega) < 1; "
                "the point is inside or too close to the support"
            )
    if x < 0 and (params.c0 * g <= 0).any():
        raise ConsistencyError(
            f"real-axis solve at z={x} lost positivity of c0 g_a"
        )
    return g.astype(complex), resid, total, t, omega


def solve_g(z, params: ModelParams, opts: SolverOptions | None = None,
            warm_start=None) -> ResolventPoint:
    """Solve the coupled fixed-point system at one complex point.

    z must be finite and nonzero. Points with |Im z| < 1 are reached by the
    adaptive continuation ladder from Re z + i. A warm start is tried first
    as a trial start: it gets _TRIAL_EVALS evaluations and is rejected, and
    the ladder taken, when it stalls or its fixed point fails the
    half-plane sign certificate (the conjugate branch). The returned point
    passes the sign certificate of its trial and the |g| bound check.
    iterations counts every Psi evaluation, failed attempts included, and
    may not exceed opts.max_iter: a solve that runs out raises
    NonConvergenceError. Real z must lie outside the support. It is solved
    by a real trial from the real part of the warm start or from the
    asymptote -1/(c0 z), else by one from the real part of the ladder's
    solution at Im z = 1e-9, and returned only with rho(Omega(z, z)) < 1.
    """
    opts = opts or DEFAULT_OPTIONS
    params = _require_validated(params)
    z = complex(z)
    if not np.isfinite(z):
        raise ValidationError(f"z must be finite, got {z}")
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
    _last_solve.jac = jac
    return _finish(z, g, resid, evals, t, params)


def solve_grid(zs, params: ModelParams, opts: SolverOptions | None = None):
    """Predictor-corrector sweep over an ordered list of complex points.

    The sweep solves anchors, one after the other, each by `solve_g`. The
    first grid point is the first anchor and the last one the last. An
    anchor after the second starts from `_predict`, the cubic Hermite
    predictor through the two previous anchors (z, g, g'), in the actual
    spacings so that non-uniform grids are followed too; the second starts
    from the first one's solution. Each slope is g' = c0 (I - J)^{-1} g^2
    with J the Jacobian of Psi that the anchor's own corrector built, so it
    costs one k x k solve and no evaluation. A prediction the predictor
    does not trust is replaced by the previous solution. The first anchor,
    and any anchor whose warm start is rejected (it stalls within
    _TRIAL_EVALS evaluations or converges to a point that fails the sign
    certificate), goes through the continuation ladder.

    On a model with joint spectra the next anchor lies `step` grid points
    ahead. The step is 1 until the first cubic prediction, so the first
    three grid points are anchors. An anchor that started from a cubic
    prediction g_pred then sets it by `_anchor_step` from the relative
    error max|g - g_pred| / max|g| of that prediction, with spans counted
    in grid points, which on a uniform grid are the spacings `_predict`
    sees. Any other anchor halves the step, down to 1: one whose two
    predecessors share a z, and one whose cubic the predictor did not trust
    and replaced by the previous solution, as that start's error is of
    first order, not the cubic's remainder that `_anchor_step` reads. A
    rejected warm start needs no rule of its own: its error is large, and
    the formula shrinks the step. The points between two anchors then start
    from the cubic Hermite interpolant through them and their slopes, and
    are corrected together by `_stacked_trial`, in stacks of at most
    max(p, 2^16 // p) points, so that no array of a stack holds more
    entries than one p x p covariance or one 256 x 256 one; the points a
    stack accepts are checked against the |g| bound and packaged
    stack-wide. A point that its stack rejects takes the continuation
    ladder within the budget its stack left, so that it spends and fails as
    solve_g warm-started from its interpolant would; only a point that a
    stack-wide event cut short (see `_stacked_trial`) first tries its
    interpolant again on its own. The stack's evaluations count in each
    point's iterations. On any other model step stays 1: every point is an
    anchor.

    The predictor only moves the starting guess: each point is certified by
    its own residual, half-plane signs and |g| bound. A failure raises the
    solver's exception, annotated with the grid index of the point. Real
    grid points are rejected: evaluating on the axis requires an explicit
    eta (see the spectrum module).
    """
    zs = [complex(zv) for zv in zs]
    if not zs:
        raise ValidationError("empty grid")
    if not np.isfinite(zs).all():
        i = int(np.flatnonzero(~np.isfinite(zs))[0])
        raise ValidationError(f"grid index {i}: z must be finite, got {zs[i]}")
    if any(zv.imag == 0.0 for zv in zs):
        raise ValidationError(
            "solve_grid requires Im z != 0 for every point; use an explicit eta"
        )
    opts = opts or DEFAULT_OPTIONS
    params = _require_validated(params)
    points = [None] * len(zs)
    rows, starts = [], []  # the grid points between anchors, and their starts
    last, i, step, warm = len(zs) - 1, 0, 1, None
    a = d_a = b = d_b = None  # the two anchors before i, and their slopes
    while True:
        zv = zs[i]
        if a is not None and zs[b] != zs[a]:
            warm = _predict(zv, zs[b], points[b].g, d_b, zs[a], points[a].g, d_a)
        try:
            point = solve_g(zv, params, opts, warm_start=warm)
            slope = _g_prime(_last_solve.jac, point.g, zv, params)
        except SpecbulkError as exc:
            _annotate(exc, i, zv)
            raise
        points[i] = point
        if b is not None and i - b > 1:
            rows.append(np.arange(b + 1, i))
            starts.append(_interpolate(np.array(zs[b + 1:i])[:, None], zs[b], points[b].g,
                                       d_b, zv, point.g, slope))
        if i == last:
            break
        if params.spectra is not None and b is not None:
            if warm is points[b].g:  # no cubic start: _predict returns g1 itself
                step = max(1, step // 2)
            else:
                error = abs(point.g - warm).max() / abs(point.g).max()
                step = _anchor_step(b - a, step, error, opts.tol)
        a, d_a, b, d_b = b, d_b, i, slope
        warm = point.g
        i = min(i + step, last)
    if rows:
        _fill(zs, points, np.concatenate(rows), np.concatenate(starts), params, opts)
    return points


def _anchor_step(h1, h2, error, tol):
    """The step, in grid points, from an anchor to the next one, chosen from
    the relative error of the anchor's own prediction: the cubic Hermite
    extrapolation over h2 grid points from two anchors h1 apart.

    With s = 1 + h2/h1 the cubic's remainder g^(4) (z - z0)^2 (z - z1)^2 / 24
    gives error ~ g^(4) h1^4 s^2 (s - 1)^2 / 24. The interpolant over the
    next step h3 errs by g^(4) h3^4 / 384 at its midpoint, which stays within
    tol^(1/4), so that two Newton steps take a fill point to tol (Deuflhard,
    Newton Methods for Nonlinear Problems, 2011), when
    h3 = h1 (16 s^2 (s - 1)^2 tol^(1/4) / error)^(1/4) (Hairer, Norsett &
    Wanner, Solving Ordinary Differential Equations I, 1993, II.4). The
    step is h3 rounded down, at most 2 h2 and at least 1.
    """
    s = 1.0 + h2 / h1
    h3 = h1 * (16.0 * (s * (s - 1.0)) ** 2 * tol**0.25 / error) ** 0.25 if error else np.inf
    return max(1, int(min(2.0 * h2, h3)))


def _annotate(exc, i, z):
    """Prefix the message of a solver error with its grid point, in place:
    the exception keeps its type and fields."""
    exc.args = (f"grid index {i} (z={z}): {exc}",)


def _interpolate(z, z0, g0, d0, z1, g1, d1):
    """Starts at the points z, of shape (P, 1), between two anchors: the
    cubic Hermite interpolant through (z0, g0, g0') and (z1, g1, g1'), or
    g1 when both anchors lie at one z."""
    h = z1 - z0
    if h == 0:
        return np.tile(g1, (len(z), 1))
    return _hermite((z - z0) / h, h, g0, d0, g1, d1)


def _fill(zs, points, rows, starts, params, opts):
    """Solve the grid points rows of zs into points from their starts, in
    stacks of at most max(p, _STACK_ENTRIES // p) points, each by
    `_stacked_trial`.

    The |g| bound is checked for the whole stack at once, and a point
    accepted by its stack that violates it raises through `_check_bound`.
    The other accepted points are packaged together: g, gt = -t/z and m
    for the whole stack, each point's g and gt read-only rows of one array.
    A point that its stack rejects takes the rest of a warm-started
    solve_g, with the stack's evaluations spent: the continuation ladder,
    or, when a stack-wide event cut its trial short, first a trial of its
    own."""
    size = max(params.p, _STACK_ENTRIES // params.p)
    for lo in range(0, len(rows), size):
        stack = rows[lo:lo + size]
        z = np.array([zs[i] for i in stack])[:, None]
        g, resid, evals, t, accepted, aborted = _stacked_trial(
            z, starts[lo:lo + size], params, opts)
        over = accepted & _exceeds_bound(z, g, params)
        done = np.flatnonzero(accepted & ~over)
        if len(done):
            g_tilde, m_mu = -t / z, params.c0 * (g @ params.c)
            g.setflags(write=False)
            g_tilde.setflags(write=False)
            for n, i, m, r, e in zip(done, stack[done].tolist(), m_mu[done].tolist(),
                                     resid[done].tolist(), evals[done].tolist()):
                points[i] = ResolventPoint(z=zs[i], g=g[n], g_tilde=g_tilde[n], m_mu=m,
                                           iterations=e, residual=r)
        for n in np.flatnonzero(~accepted | over):
            i = int(stack[n])
            zv, spent = zs[i], int(evals[n])
            try:
                if accepted[n]:
                    _check_bound(zv, g[n], params)  # raises: the row is over the bound
                _check_budget(zv, resid[n], spent, opts)
                warm = starts[lo + n] if aborted[n] else None
                g_i, resid_i, spent, t_i, _ = _solve_complex(zv, params, opts, warm, spent)
            except SpecbulkError as exc:
                _annotate(exc, i, zv)
                raise
            points[i] = _finish(zv, g_i, resid_i, spent, t_i, params)


def _stacked_trial(z, guess, params, opts):
    """`_trial` at the complex points z, of shape (P, 1), from the guesses
    (P, k) on a model with joint spectra, with its rules applied to every
    point at once: Newton steps of 1 and 1/2 on the k x k systems of the
    points still running, every candidate evaluated, at most
    min(_TRIAL_EVALS, opts.max_iter) evaluations a point, and a stop at a
    point's first stall. A point is accepted with residual <= tol and its
    half-plane signs, as by `_trial`, which leaves the |g| bound unchecked.

    Three events act on the whole stack: an M singular at some guess (no
    point is corrected), at some candidate (no candidate of that step is
    taken), or a singular I - J at some point (the running points stop).
    The points they touch are marked aborted: their trial may have ended
    other than their own `_trial` would. Returns (g, residual, evaluations,
    traces at g, accepted, aborted), one row or entry a point.
    """
    cap = min(_TRIAL_EVALS, opts.max_iter)
    g = np.array(guess, dtype=complex)
    evals = np.ones(len(g), dtype=int)
    aborted = np.zeros(len(g), dtype=bool)
    with np.errstate(all="ignore"):
        try:
            f, resid, t, minv = _psi_eval(g, z, params)
        except NumericalSingularityError:  # M singular at some guess
            return g, np.full(len(g), np.nan), evals, None, aborted, ~aborted
        live = ~(resid <= opts.tol) & (evals < cap)
        while live.any():
            at = np.flatnonzero(live)
            jac = _psi_jacobian(t[at], minv[at], z[at], params)
            try:
                step = _solve_small(_identity(params.k) - jac, (f - g)[at])
            except np.linalg.LinAlgError:
                aborted[at] = True
                break
            moved = np.zeros(len(at), dtype=bool)
            for frac in (1.0, 0.5):
                candidate = g[at] + frac * step
                tried = np.flatnonzero(~moved & (evals[at] < cap))
                rows = at[tried]
                if not len(rows):
                    continue
                evals[rows] += 1
                try:
                    f_c, resid_c, t_c, minv_c = _psi_eval(candidate[tried], z[rows], params)
                except NumericalSingularityError:
                    aborted[rows] = True
                    continue
                better = resid_c < resid[rows]
                won = rows[better]
                g[won], f[won], resid[won] = candidate[tried[better]], f_c[better], resid_c[better]
                t[won], minv[won] = t_c[better], minv_c[better]
                moved[tried[better]] = True
            live[at] = moved & ~(resid[at] <= opts.tol) & (evals[at] < cap)
        accepted = (resid <= opts.tol) & ~_violates_signs(z, g)
    return g, resid, evals, t, accepted, aborted


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
        return _solve_small(_identity(params.k) - omega, params.c0 * g**2)
    except np.linalg.LinAlgError as exc:
        raise NumericalSingularityError(
            f"I - Omega(z,z) singular at z={z}: too close to the support",
            z=z,
        ) from exc


def _solve_small(a, b):
    """x with a x = b for a stack a (..., k, k) and b (..., k), as
    np.linalg.solve gives it, with k = 1 solved by division and one 2 x 2
    system by Cramer's rule: there np.linalg.solve's wrapper costs more
    than the solver's own Newton and slope systems. A zero determinant
    raises np.linalg.LinAlgError, as np.linalg.solve does; larger systems
    and stacks of 2 x 2 ones go to np.linalg.solve."""
    k = a.shape[-1]
    if k == 1:
        if not a.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return b / a[..., 0]
    if k > 2 or a.ndim > 2:
        return np.linalg.solve(a, b[..., None])[..., 0]
    (a00, a01), (a10, a11) = a.tolist()  # Python scalars cost less than 0-d arrays
    (b0, b1), det = b.tolist(), a00 * a11 - a01 * a10
    if not det:
        raise np.linalg.LinAlgError("Singular matrix")
    return np.array([(a11 * b0 - a01 * b1) / det, (a00 * b1 - a10 * b0) / det])


@functools.cache
def _identity(k: int) -> np.ndarray:
    """The k x k identity, built once per k and read-only."""
    eye = np.eye(k)
    eye.setflags(write=False)
    return eye


def _require_validated(params: ModelParams) -> ModelParams:
    if not params.validated:
        raise ValidationError("ModelParams must go through validate_model first")
    return params
