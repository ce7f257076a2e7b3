"""Density of the limiting measure on the real line, support detection, atom at 0.

The density at x is (1/pi) Im m(x + i eta) for small eta > 0. The support
is the complement of the points certified to lie outside it: a real x is
outside when the fixed-point system has a real solution there whose
kernel Omega(x, x) has spectral radius below one (the real-axis
characterisation of Silverstein & Choi, 1995). These real solutions form
one arc per gap, along which the mass n (1 - F(x)) above x is a fixed
integer (exact separation, Bai & Silverstein, 1999); the gap's edges are
the last certified points of its arc. The atom at zero is 1 - rank(W)/n,
with the generic rank of W counted from the class covariances.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalSingularityError, ValidationError
from .fixed_point import (
    _LADDER_QUICK,
    _TRIAL_EVALS,
    DEFAULT_OPTIONS,
    SolverOptions,
    _identity,
    _psi_eval,
    _psi_jacobian,
    _solve_small,
    _trace_terms,
    _trial,
    solve_g,
    solve_grid,
)
from .model import ModelParams
from .nonneg import spectral_radius


@dataclass(frozen=True)
class DensityGrid:
    """Density values on an ascending grid, with detected support and atom.

    density holds the continuous part: when the measure carries an atom at
    zero, the atom's smoothing kernel atom * (eta/pi) / (x^2 + eta^2) is
    subtracted so that atom_at_zero + integral(density) is the total mass.
    g holds the solved g_a(x + i eta), one row per grid point; support
    detection starts the real-axis solves that seed its arcs from it.
    """

    xs: np.ndarray
    density: np.ndarray
    eta: float
    support: tuple[tuple[float, float], ...]
    atom_at_zero: float
    total_mass: float
    params: ModelParams
    opts: SolverOptions
    g: np.ndarray


def density_at(x: float, eta: float, params: ModelParams,
               opts: SolverOptions | None = None) -> float:
    """(1/pi) Im m(x + i eta), clamped at zero."""
    if not eta > 0:
        raise ValidationError(f"eta must be positive, got {eta}")
    point = solve_g(complex(x, eta), params, opts or DEFAULT_OPTIONS)
    return max(point.m_mu.imag / np.pi, 0.0)


def atom_at_zero(params: ModelParams) -> float:
    """Mass of the atom at zero, 1 - rank(W) / n.

    With Gaussian columns, rank W is almost surely the generic rank of
    [C_1^{1/2} Z_1, ..., C_k^{1/2} Z_k]. Rado's theorem for generic vectors
    drawn from subspaces, an instance of matroid union (Edmonds, "Minimum
    partition of a matroid into independent subsets", 1965), gives it as

        min over S of sum_{a not in S} n_a + rank(sum_{a in S} C_a),

    the minimum taken over all subsets S of the classes. The empty S gives
    n; with every C_a nonsingular the full S gives p, so the atom is
    max(0, 1 - c0). Each rank is read in the stored form, with no p x p
    eigensolve: p when S holds a class of full rank (by the validation
    eigenvalues), else the count of the summed joint spectra above the
    tolerance, or the sum of the ranks of the summed diagonal blocks.
    """
    tol = 1e-10 * (1.0 + params.c_max)
    full = (np.abs(params.eigenvalues) > tol).all(axis=1)
    best = params.n
    for mask in range(1, 2**params.k):
        inside = [a for a in range(params.k) if mask >> a & 1]
        if full[inside].any():
            rank = params.p
        elif params.spectra is not None:
            rank = np.count_nonzero(np.abs(sum(params.spectra[a] for a in inside)) > tol)
        else:
            rank = np.linalg.matrix_rank(sum(params.blocks[a] for a in inside),
                                         tol=tol, hermitian=True).sum()
        outside = params.n - sum(params.class_sizes[a] for a in inside)
        best = min(best, outside + int(rank))
    return 1.0 - best / params.n


def support_detect(grid: DensityGrid):
    """Support of the measure as disjoint closed intervals.

    The candidates are the grid points at x > 0 whose density is a local
    minimum (the first positive point against its right neighbour only),
    and both neighbours of each: the smoothed density is convex in a gap,
    so a gap that holds a grid point holds a candidate. A candidate is
    certified outside when a real-axis Newton solve, started from the real
    part of the grid solution, returns a real fixed point with
    rho(Omega(x, x)) < 1. The arc of real solutions through it is traced
    both ways to its last certified points, the edges of its gap;
    candidates in a traced gap get no solve of their own. No side is
    traced toward a neighbour at x <= 0 or off the grid. The support is
    the complement of the traced gaps and of x <= 0 (the Gram matrix is
    positive semidefinite; the atom at zero is reported separately) within
    the grid. A gap that holds no grid point is missed.
    """
    xs = np.asarray(grid.xs, dtype=float)
    if xs.size < 2:
        raise ValidationError(f"need at least 2 grid points, got {xs.size}")
    dens = np.asarray(grid.density, dtype=float)
    if dens.max() <= 0.0:
        return ()
    positive = xs > 0.0
    d = np.where(positive, dens, np.inf)
    minima = positive & (d <= np.r_[np.inf, d[:-1]]) & (d <= np.r_[d[1:], np.inf])
    near = minima | np.r_[minima[1:], False] | np.r_[False, minima[:-1]]
    return _certified_support(grid, xs, near & positive)


def _count(x, t, minv, params: ModelParams) -> int:
    """n (1 - F(x)), the limiting number of eigenvalues of W^T W above a
    certified real x with traces t and mixture inverse minv. For x > 0 it
    is the number of negative eigenvalues of M (those of minv: 1/d on a
    model with joint spectra, else its blocks) plus the n_a of each class
    with 1 - t_a/x < 0; for x <= 0 it is n, as F vanishes there."""
    if x <= 0.0:
        return params.n
    inv = minv if minv.ndim == 1 else np.linalg.eigvalsh(minv)
    return int(np.count_nonzero(inv < 0.0)
               + np.asarray(params.class_sizes)[1.0 - t / x < 0.0].sum())


def _tangent(dh, u, ref):
    """Weights w of the coordinates at u = (g, x), with g_a in units of
    |g_a| / (1 + |x|) so that a fold is as sharp in g as in x, and the arc's
    tangent there: the null vector of the derivative dh of H, of unit length
    in the norm |w * .|, on the side of the direction ref."""
    w = np.append((1.0 + abs(u[-1])) / abs(u[:-1]), 1.0)
    null = np.linalg.svd(dh / w)[2][-1]
    return (null if null @ (w * ref) >= 0.0 else -null) / w, w


def _arc_point(u, tangent, w, s, params, opts):
    """The point v of the arc H(g, x) = g - Psi(g; x) = 0 on the hyperplane
    (w^2 tangent) . (v - u) = s, by Newton's method on the bordered system
    from u + s tangent. Returns (v, dH at v, the count of v, evaluations),
    with dH = [I - J, -c0 Psi^2] as dPsi_a/dx = c0 Psi_a^2. The count is
    None unless v is certified, with rho(Omega(x, x)) < 1 for the
    Jacobian J = Omega at v; v is None when the corrector stalls or does
    not reach tol within _TRIAL_EVALS evaluations.
    """
    k = params.k
    v = u + s * tangent
    normal = w * w * tangent
    last = np.inf
    for evals in range(1, _TRIAL_EVALS + 1):
        try:
            f, resid, t, minv = _psi_eval(v[:k], v[k], params)
            if not resid < last:
                break
            last = resid
            jac = _psi_jacobian(t, minv, v[k], params)
            dh = np.concatenate([_identity(k) - jac, -params.c0 * f[:, None] ** 2], 1)
            if resid <= opts.tol:
                certified = np.isfinite(jac).all() and spectral_radius(jac) < 1.0
                return v, dh, _count(v[k], t, minv, params) if certified else None, evals
            v = v - _solve_small(np.concatenate([dh, normal[None]]),
                                 np.append(v[:k] - f, normal @ (v - u) - s))
        except (NumericalSingularityError, np.linalg.LinAlgError):
            break
    return None, None, None, evals


def _trace_edge(u, dh, count, toward, bound, h, params, opts) -> float:
    """The x of the last certified point of the arc through the certified
    point u = (g, x) with count `count` on the side `toward` (+1 or -1),
    before the arc folds there, or `bound` when the arc passes it first.

    Pseudo-arclength continuation (Allgower & Georg, Numerical Continuation
    Methods, 1990) in the weighted norm of `_tangent`. A step of length h
    along the tangent is accepted when its corrector converges to a point
    with rho(Omega) < 1 and the seed's count, so every accepted point lies
    outside the support in the seed's own gap; at such a point
    det(I - J) > 0 and the tangent cannot turn. h doubles after a corrector
    that converged within _LADDER_QUICK Newton steps, until the first
    rejected step; each rejected step halves h. Once h <= sqrt(opts.tol)
    (1 + |x|), the trace ends at its last point: x is quadratic in the
    arclength near a fold, so that point is within about opts.tol of it.
    """
    k = params.k
    tangent, w = _tangent(dh, u, toward * _identity(k + 1)[k])
    grow = True
    while toward * (bound - u[k]) > 0.0:
        v, dh_v, count_v, evals = _arc_point(u, tangent, w, h, params, opts)
        if count_v != count:  # None unless certified
            h, grow = 0.5 * h, False
            if h <= np.sqrt(opts.tol) * (1.0 + abs(u[k])):
                break
            continue
        u, (tangent, w) = v, _tangent(dh_v, v, tangent)
        if grow and evals - 1 <= _LADDER_QUICK:  # Newton steps after the prediction
            h *= 2.0
    return toward * min(toward * bound, toward * u[k])


def _certified_support(grid: DensityGrid, xs, candidates):
    params, opts = grid.params, grid.opts
    h = xs[1] - xs[0]
    gaps = [(-np.inf, 0.0)]  # the Gram matrix is positive semidefinite
    with np.errstate(all="ignore"):
        for i in np.flatnonzero(candidates):
            if any(lo <= xs[i] <= hi for lo, hi in gaps):
                continue
            g, _, _, t, omega, _ = _trial(xs[i], np.real(grid.g[i]), params, opts)
            if g is None:
                continue
            u = np.append(g, xs[i])
            dh = np.concatenate([_identity(params.k) - omega, -params.c0 * g[:, None] ** 2], 1)
            count = _count(xs[i], t, _trace_terms(g, xs[i], params)[1], params)
            lo = -np.inf
            if i > 0 and xs[i - 1] > 0.0:
                lo = _trace_edge(u, dh, count, -1, max(xs[0], 0.0), h, params, opts)
            gaps.append((lo, _trace_edge(u, dh, count, 1, xs[-1], h, params, opts)))
    intervals, start = [], xs[0]
    for lo, hi in sorted(gaps) + [(xs[-1], np.inf)]:
        if lo > start:
            intervals.append((float(start), float(lo)))
        start = max(start, hi)
    return tuple(intervals)


def density_grid(x_min: float, x_max: float, n_points: int, params: ModelParams,
                 opts: SolverOptions | None = None) -> DensityGrid:
    """Density on a uniform grid with eta = max(1e-5, 0.1 * spacing).

    Fills the detected support, the atom at zero and the total mass
    (atom + trapezoid integral of the continuous density).
    """
    if not x_min < x_max:
        raise ValidationError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    if n_points < 2:
        raise ValidationError(f"need at least 2 grid points, got {n_points}")
    opts = opts or DEFAULT_OPTIONS
    xs = np.linspace(float(x_min), float(x_max), int(n_points))
    eta = max(1e-5, 0.1 * (xs[1] - xs[0]))
    points = solve_grid(xs + 1j * eta, params, opts)
    dens = np.array([max(pt.m_mu.imag / np.pi, 0.0) for pt in points])
    g = np.array([pt.g for pt in points])
    atom = atom_at_zero(params)
    if atom > 1e-12:
        dens = np.clip(dens - atom * (eta / np.pi) / (xs**2 + eta**2), 0.0, None)
    for arr in (xs, dens, g):
        arr.setflags(write=False)
    grid = DensityGrid(
        xs=xs,
        density=dens,
        eta=float(eta),
        support=(),
        atom_at_zero=float(atom),
        total_mass=float("nan"),
        params=params,
        opts=opts,
        g=g,
    )
    support = support_detect(grid)
    total = atom + float(np.trapezoid(dens, xs))
    return replace(grid, support=support, total_mass=total)


def write_density_csv(grid: DensityGrid, path, header_comment: str | None = None):
    """CSV export: optional comment line, then 'x,density' rows."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["x", "density"])
        for x, d in zip(grid.xs, grid.density):
            writer.writerow([f"{x:.12g}", f"{d:.12g}"])


def write_support_json(grid: DensityGrid, path, extra: dict | None = None):
    """JSON sidecar: support intervals, atom mass and the eta used."""
    payload = {
        "support": [[l, r] for l, r in grid.support],
        "atom_at_zero": grid.atom_at_zero,
        "eta": grid.eta,
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
