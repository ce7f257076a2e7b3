"""Nonnegative-matrix utilities: spectral radius, Perron vectors, radius bounds.

Used as solver diagnostics (the second-order kernel has nonnegative
entries at conjugate points) and as a standalone property-tested toolkit.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ValidationError

_CLAMP = 1e-12


class CsRadiusCheck(NamedTuple):
    ok: bool
    rho_a: float
    rho_b: float
    rho_c: float


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus, via a full eigensolve (k is always small here)."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"need a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrix has non-finite entries")
    if m.shape[0] == 0:
        return 0.0
    return float(np.abs(np.linalg.eigvals(m)).max())


def _power_left_radius(m, max_iter=20_000, tol=1e-13):
    """Left power iteration on a nonnegative matrix; cross-check method."""
    n = m.shape[0]
    v = np.full(n, 1.0 / n)
    rho = 0.0
    for _ in range(max_iter):
        w = v @ m
        s = w.sum()
        if s <= 0.0:
            return 0.0, v  # nilpotent-like: radius 0
        w = w / s
        if np.abs(w - v).max() <= tol:
            return float(s), w
        v = w
        rho = s
    return float(rho), v


def perron_left_vector(m, method: str = "full_eigen") -> np.ndarray:
    """Left eigenvector for the spectral radius of an entrywise-nonnegative matrix.

    Returned nonnegative and l1-normalized. Degenerate ties are resolved by
    the eigensolver's ordering; entries above -1e-12 are clamped to zero.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"need a square matrix, got shape {m.shape}")
    if np.any(m < 0):
        i, j = np.unravel_index(np.argmin(m), m.shape)
        raise ValidationError(f"matrix has a negative entry at ({i}, {j}): {m[i, j]}")
    if method == "power_iteration":
        _, v = _power_left_radius(m)
        return v
    if method != "full_eigen":
        raise ValidationError(f"unknown method {method!r}")
    vals, vecs = np.linalg.eig(m.T)
    rho = np.abs(vals).max()
    idx = int(np.argmin(np.abs(vals - rho)))
    v = vecs[:, idx].real
    if v.sum() < 0:
        v = -v
    if np.any(v < -_CLAMP * max(1.0, np.abs(v).max())):
        # degenerate rho: fall back to power iteration, which stays in the cone
        _, v = _power_left_radius(m)
    v = np.clip(v, 0.0, None)
    total = v.sum()
    if total <= 0.0:
        raise ValidationError("Perron vector collapsed to zero after clamping")
    return v / total


def check_cs_radius(a, b, c, slack: float = 1e-10) -> CsRadiusCheck:
    """Cauchy-Schwarz inequality for spectral radii.

    Requires A, B entrywise nonnegative and |C_ij| <= sqrt(A_ij B_ij); then
    rho(C) <= sqrt(rho(A) rho(B)) must hold up to the given slack.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c)
    if a.shape != b.shape or a.shape != c.shape:
        raise ValidationError("A, B, C must share one square shape")
    if np.any(a < 0) or np.any(b < 0):
        raise ValidationError("A and B must be entrywise nonnegative")
    dom = np.sqrt(a * b)
    bad = np.abs(c) > dom * (1.0 + 1e-12) + 1e-300
    if np.any(bad):
        i, j = map(int, np.argwhere(bad)[0])
        raise ValidationError(
            f"domination hypothesis fails at ({i}, {j}): "
            f"|C|={abs(c[i, j]):.6e} > sqrt(A B)={dom[i, j]:.6e}"
        )
    rho_a = spectral_radius(a)
    rho_b = spectral_radius(b)
    rho_c = spectral_radius(c)
    ok = rho_c <= np.sqrt(rho_a * rho_b) + slack
    return CsRadiusCheck(ok=bool(ok), rho_a=rho_a, rho_b=rho_b, rho_c=rho_c)
