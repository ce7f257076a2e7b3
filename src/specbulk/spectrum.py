"""Density of the limiting measure on the real line, support detection, atom at 0.

The density at x is (1/pi) Im m(x + i eta) for small eta > 0. The support
is the complement of the points certified to lie outside it: a real x is
outside when the fixed-point system has a real solution there whose
kernel Omega(x, x) has spectral radius below one (the real-axis
characterisation of Silverstein & Choi, 1995). Each support edge is
located from the outside, where 1 - rho(Omega(x, x)) vanishes like the
square root of the distance to the edge. The atom at zero is 1 - rank(W)/n,
with the generic rank of W counted from the class covariances.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import NumericalSingularityError, ValidationError
from .fixed_point import (
    DEFAULT_OPTIONS,
    SolverOptions,
    _g_prime,
    _trial,
    solve_g,
    solve_grid,
)
from .model import ModelParams

# grid values below this fraction of the peak are candidates for lying
# outside the support
_SUSPECT_FRACTION = 0.05
# edge refinement: each step moves to within this fraction of the remaining
# distance to the extrapolated edge, until that distance (or the bracket
# left by a failed certificate) is below _EDGE_XTOL (1 + |edge|) or
# _EDGE_STEPS steps have been made
_EDGE_APPROACH = 0.1
_EDGE_STEPS = 40
_EDGE_XTOL = 1e-9


@dataclass(frozen=True)
class DensityGrid:
    """Density values on an ascending grid, with detected support and atom.

    density holds the continuous part: when the measure carries an atom at
    zero, the atom's smoothing kernel atom * (eta/pi) / (x^2 + eta^2) is
    subtracted so that atom_at_zero + integral(density) is the total mass.
    g holds the solved g_a(x + i eta), one row per grid point; support
    detection starts its real-axis solves from it.
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


def _runs(mask) -> list[tuple[int, int]]:
    """Maximal runs of True as (first, last) index pairs."""
    flips = np.flatnonzero(np.diff(np.r_[False, mask, False]))
    return list(zip(flips[::2], flips[1::2] - 1))


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


def _certify(x, g0, params: ModelParams, opts) -> _RealPoint | None:
    """x as a point outside the support when the real-axis trial of
    `fixed_point._trial` from g0 converges with rho(Omega(x, x)) < 1, else
    None (x is not certified to lie outside the support)."""
    g, _, _, _, omega, rho = _trial(x, g0, params, opts)
    if g is None:
        return None
    try:
        g_prime = _g_prime(omega, g, x, params)
    except NumericalSingularityError:
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


def _refine_edge(near: _RealPoint, far: _RealPoint, params, opts) -> float:
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
        point = _certify(x_new, g0, params, opts)
        if point is None:
            bad = x_new
        else:
            near, far = point, near
        edge = _extrapolate_edge(near, far)
    if edge is None or (bad is not None and (edge - near.x) * (edge - bad) > 0.0):
        return near.x if bad is None else 0.5 * (near.x + bad)
    return edge


def _certified_support(grid: DensityGrid, xs, candidates):
    params, opts = grid.params, grid.opts
    certified = {}
    outside = np.zeros(xs.size, dtype=bool)
    for i in np.flatnonzero(candidates):
        if xs[i] <= 0.0:
            outside[i] = True
            continue
        point = _certify(xs[i], np.real(grid.g[i]), params, opts)
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
                           params, opts)
            if far is None:
                return float(xs[i])
        return float(_refine_edge(near, far, params, opts))

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
