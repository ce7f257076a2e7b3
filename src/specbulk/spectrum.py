"""Density of the limiting measure on the real line, support detection, atom at 0.

The density at x is (1/pi) Im m(x + i eta) for small eta > 0. The support
is the complement of the points certified to lie outside it: a real x is
outside when the fixed-point system has a real solution there whose
kernel Omega(x, x) has spectral radius below one (the real-axis
characterisation of Silverstein & Choi, 1995). Each support edge is
located from the outside, where 1 - rho(Omega(x, x)) vanishes like the
square root of the distance to the edge.
"""
from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalSingularityError, ValidationError
from .fixed_point import (
    DEFAULT_OPTIONS,
    SolverOptions,
    _g_prime,
    _psi_eval,
    _psi_jacobian,
    solve_g,
    solve_grid,
)
from .model import ModelParams
from .nonneg import spectral_radius

# grid values below this fraction of the peak are candidates for lying
# outside the support
_SUSPECT_FRACTION = 0.05
# Psi evaluations allowed for one real-axis certificate; a warm-started
# Newton solve outside the support needs a handful
_CERTIFY_EVALS = 12
# edge refinement: each step moves to within this fraction of the remaining
# distance to the extrapolated edge, until that distance (or the bracket
# left by a failed certificate) is below _EDGE_XTOL (1 + |edge|) or
# _EDGE_STEPS steps have been made
_EDGE_APPROACH = 0.1
_EDGE_STEPS = 40
_EDGE_XTOL = 1e-9
# decreasing eta ladder for the atom's Aitken extrapolation
_ATOM_ETAS = (1e-3, 1e-4, 1e-5)


@dataclass(frozen=True)
class DensityGrid:
    """Density values on an ascending grid, with detected support and atom.

    density holds the continuous part: when the measure carries an atom at
    zero, the atom's smoothing kernel atom * (eta/pi) / (x^2 + eta^2) is
    subtracted so that atom_at_zero + integral(density) is the total mass.
    g holds the solved g_a(x + i eta), one row per grid point (None on a
    hand-built grid); support detection starts its real-axis solves from it.
    """

    xs: np.ndarray
    density: np.ndarray
    eta: float
    support: tuple[tuple[float, float], ...]
    atom_at_zero: float
    total_mass: float
    params: ModelParams
    opts: SolverOptions
    g: np.ndarray | None = None


def density_at(x: float, eta: float, params: ModelParams,
               opts: SolverOptions | None = None) -> float:
    """(1/pi) Im m(x + i eta), clamped at zero."""
    if not eta > 0:
        raise ValidationError(f"eta must be positive, got {eta}")
    point = solve_g(complex(x, eta), params, opts or DEFAULT_OPTIONS)
    return max(point.m_mu.imag / np.pi, 0.0)


def atom_at_zero(params: ModelParams, opts: SolverOptions | None = None) -> float:
    """Mass of the atom at zero.

    With every class covariance nonsingular the rank argument is exact:
    the n x n Gram matrix has exactly n - p zero eigenvalues when p < n,
    so the atom is max(0, 1 - c0). Otherwise the atom is the eta -> 0
    limit of Re(-i eta m(i eta)), estimated on a decreasing eta ladder
    with geometric (Aitken) extrapolation.
    """
    opts = opts or DEFAULT_OPTIONS
    min_eig = min(np.linalg.eigvalsh(cov)[0] for cov in params.covariances)
    if min_eig > 1e-10 * (1.0 + params.c_max):
        # nonsingular classes: rank forces exactly n - p zeros when p < n
        return max(0.0, 1.0 - params.c0)
    vals = []
    warm = None
    for eta in _ATOM_ETAS:
        point = solve_g(1j * eta, params, opts, warm_start=warm)
        warm = point.g
        vals.append(min(max((-1j * eta * point.m_mu).real, 0.0), 1.0))
    a1, a2, a3 = vals
    d1, d2 = a2 - a1, a3 - a2
    if d1 * d2 <= 0 or abs(d2) >= abs(d1):
        if abs(d2) > 1e-12:
            warnings.warn(
                "atom-at-zero extrapolation is non-monotone; returning the "
                f"smallest-eta estimate {a3:.6f}",
                RuntimeWarning,
                stacklevel=2,
            )
        return float(np.clip(a3, 0.0, 1.0))
    q = d2 / d1
    return float(np.clip(a3 + d2 * q / (1.0 - q), 0.0, 1.0))


def _runs(mask) -> list[tuple[int, int]]:
    """Maximal runs of True as (first, last) index pairs."""
    out = []
    i = 0
    n = len(mask)
    while i < n:
        if mask[i]:
            j = i
            while j + 1 < n and mask[j + 1]:
                j += 1
            out.append((i, j))
            i = j + 1
        else:
            i += 1
    return out


def support_detect(grid: DensityGrid):
    """Support of the measure as disjoint closed intervals.

    The support is the complement of the certified outside set. Grid
    points whose density is below 5% of the peak are the candidates; such
    a point counts as outside only when a real-axis Newton solve, started
    from the real part of the grid solution, returns a real fixed point
    with rho(Omega(x, x)) < 1 (points at x <= 0 are outside outright: the
    Gram matrix is positive semidefinite and the atom at zero is reported
    separately). Every other point is in the support. Each edge is then
    located from the outside, where 1 - rho(Omega(x, x)) vanishes like
    sqrt(|x - edge|).
    """
    xs = np.asarray(grid.xs, dtype=float)
    if xs.size == 0:
        raise ValidationError("empty grid")
    dens = np.asarray(grid.density, dtype=float)
    peak = dens.max()
    if peak <= 0.0:
        return ()
    return _certified_support(grid, xs, dens < _SUSPECT_FRACTION * peak)


@dataclass(frozen=True)
class _RealPoint:
    """A certified real-axis point outside the support."""

    x: float
    g: np.ndarray
    g_prime: np.ndarray  # dg/dx = c0 (I - Omega)^{-1} g^2
    gap: float  # 1 - rho(Omega(x, x))


def _certify(x, g0, params: ModelParams, tol) -> _RealPoint | None:
    """Newton on Psi(g) = g in real arithmetic at real x, from g0.

    Returns the point when the iteration reaches the relative residual tol
    within _CERTIFY_EVALS evaluations and the kernel Omega(x, x), which is
    the Jacobian of Psi at the fixed point, has spectral radius below one;
    otherwise None (x is not certified to lie outside the support).
    """
    g = np.asarray(g0, dtype=float)
    try:
        with np.errstate(all="ignore"):
            f, resid, t, minv = _psi_eval(g, x, params)
            evals = 1
            while not resid <= tol:
                if evals >= _CERTIFY_EVALS or not np.isfinite(resid):
                    return None
                jac = _psi_jacobian(t, minv, x, params)
                step = np.linalg.solve(np.eye(params.k) - jac, f - g)
                for frac in (1.0, 0.5):
                    cand = g + frac * step
                    f_c, resid_c, t_c, minv_c = _psi_eval(cand, x, params)
                    evals += 1
                    if resid_c < resid:
                        g, f, resid, t, minv = cand, f_c, resid_c, t_c, minv_c
                        break
                else:
                    return None
            omega = _psi_jacobian(t, minv, x, params)
            if not np.isfinite(omega).all():
                return None
            rho = spectral_radius(omega)
            if not rho < 1.0:
                return None
            g_prime = _g_prime(omega, g, x, params)
    except (NumericalSingularityError, np.linalg.LinAlgError):
        return None
    return _RealPoint(x=float(x), g=g, g_prime=g_prime, gap=1.0 - rho)


def _extrapolate_edge(near: _RealPoint, far: _RealPoint):
    """Edge where the line through (x, gap^2) of two outside points hits 0.

    None when gap^2 does not grow from `near` to `far`, the point further
    from the support.
    """
    d2 = far.gap**2 - near.gap**2
    if not d2 > 0.0:
        return None
    return near.x - near.gap**2 * (far.x - near.x) / d2


def _refine_edge(near: _RealPoint, far: _RealPoint, params, tol) -> float:
    """Walk from the certified point `near` toward the support edge beyond it.

    `far` lies further from the support. Each step extrapolates the edge
    from the two certified points nearest to it and tries to certify a
    point a fraction of the remaining distance short of that estimate,
    warm-started by the square-root predictor g(x) ~ g_edge + a sqrt(|x -
    edge|). A point that fails to certify bounds the edge from the support
    side; an estimate past that bound is replaced by bisection.
    """
    bad = None
    edge = _extrapolate_edge(near, far)
    for _ in range(_EDGE_STEPS):
        if edge is None:
            break
        if bad is not None and (edge - near.x) * (edge - bad) >= 0.0:
            edge = None  # the estimate is past a point known not to certify
            x_new = 0.5 * (near.x + bad)
        elif abs(near.x - edge) <= _EDGE_XTOL * (1.0 + abs(edge)):
            break
        else:
            x_new = edge + _EDGE_APPROACH * (near.x - edge)
        if abs(x_new - near.x) <= _EDGE_XTOL * (1.0 + abs(near.x)):
            break
        # square-root predictor about the extrapolated edge, or the tangent
        if edge is not None:
            dist = near.x - edge
            g0 = near.g + 2.0 * dist * near.g_prime * (
                np.sqrt((x_new - edge) / dist) - 1.0)
        else:
            g0 = near.g + (x_new - near.x) * near.g_prime
        point = _certify(x_new, g0, params, tol)
        if point is None:
            bad = x_new
        else:
            near, far = point, near
        edge = _extrapolate_edge(near, far)
    if edge is None or (bad is not None and (edge - near.x) * (edge - bad) > 0.0):
        return near.x if bad is None else 0.5 * (near.x + bad)
    return edge


def _certified_support(grid: DensityGrid, xs, candidates):
    params, tol = grid.params, grid.opts.tol
    starts = grid.g
    if starts is None:
        starts = np.zeros((xs.size, params.k), dtype=complex)
        idx = np.flatnonzero(candidates & (xs > 0.0))
        if idx.size:
            points = solve_grid(xs[idx] + 1j * grid.eta, params, grid.opts)
            starts[idx] = [pt.g for pt in points]
    certified = {}
    outside = np.zeros(xs.size, dtype=bool)
    for i in np.flatnonzero(candidates):
        if xs[i] <= 0.0:
            outside[i] = True
            continue
        point = _certify(xs[i], np.real(starts[i]), params, tol)
        if point is not None:
            certified[i] = point
            outside[i] = True

    def edge(i, toward):
        # the edge beyond outside point i in the direction `toward` (+1 or
        # -1), with the point on the other side as the second node
        near = certified.get(i)
        if near is None:
            return float(xs[i])
        far = certified.get(i - toward)
        if far is None:
            h = 0.25 * (xs[1] - xs[0])
            far = _certify(near.x - toward * h, near.g - toward * h * near.g_prime,
                           params, tol)
            if far is None:
                return float(xs[i])
        return float(_refine_edge(near, far, params, tol))

    intervals = []
    start = None if outside[0] else float(xs[0])
    for lo, hi in _runs(outside):
        if lo > 0:
            intervals.append((start, edge(lo, -1)))
        start = edge(hi, 1) if hi < xs.size - 1 else None
    if start is not None:
        intervals.append((start, float(xs[-1])))
    return tuple((max(left, 0.0), right) for left, right in intervals)


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
    _warn_if_dependent(params)
    xs = np.linspace(float(x_min), float(x_max), int(n_points))
    eta = max(1e-5, 0.1 * (xs[1] - xs[0]))
    points = solve_grid(xs + 1j * eta, params, opts)
    dens = np.array([max(pt.m_mu.imag / np.pi, 0.0) for pt in points])
    g = np.array([pt.g for pt in points])
    atom = atom_at_zero(params, opts)
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


def _warn_if_dependent(params: ModelParams):
    """Report (not enforce) linear dependence of {C_1..C_k, I}."""
    mats = list(params.covariances) + [np.eye(params.p)]
    k1 = len(mats)
    gram = np.empty((k1, k1))
    for i in range(k1):
        for j in range(i, k1):
            gram[i, j] = gram[j, i] = float(np.sum(mats[i] * mats[j]))
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] < 1e-8 * max(eigs[-1], 1e-300):
        warnings.warn(
            "covariances plus identity are (near-)linearly dependent; the "
            "density may be discontinuous",
            RuntimeWarning,
            stacklevel=3,
        )


def write_density_csv(grid: DensityGrid, path, header_comment: str | None = None):
    """CSV export: optional comment line, then 'x,density' rows."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
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
