"""Seeded workload inputs: configs, query points, sigma^2 values, trial seeds.

Every input a workload hands to specbulk comes from here and depends only
on the workload seed. The model family is the paper's three-class
Toeplitz demo: scales 1, 9, 17 with ratios 0, 0.2, 0.4, class fractions
1/8, 5/8, 1/4 and c0 = p/n = 8, so p must be a multiple of 64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# (columns per 64 rows, scale, rho) of each class
THREECLASS = ((1, 1.0, 0.0), (5, 9.0, 0.2), (2, 17.0, 0.4))

DENSITY_P = 64
DENSITY_GRID = (0.0, 30.0, 601)  # the shipped three-class grid
QUERY_P = 64
QUERIES_NEAR_AXIS = 60
QUERIES_NEGATIVE = 20
QUERIES_BEYOND_EDGE = 20
EQUIVALENTS_PER_PASS = 2
MC_P = 512
MC_CONVERGENCE_TRIALS = 50
MC_POOLED_TRIALS = 100

SHIPPED_OPS = (
    ("density", "mp"), ("solve", "mp"), ("simulate", "mp"), ("equivalents", "mp"),
    ("density", "atom"), ("simulate", "atom"),
    ("solve", "threeclass"), ("equivalents", "threeclass"),
)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), stream)))


def threeclass_model(p: int) -> dict:
    if p % 64:
        raise ValueError(f"p={p} is not a multiple of 64")
    unit = p // 64
    return {
        "p": p,
        "classes": [
            {"n": n * unit, "covariance": {"kind": "toeplitz", "scale": s, "rho": r}}
            for n, s, r in THREECLASS
        ],
    }


def toeplitz(scale: float, rho: float, p: int) -> np.ndarray:
    idx = np.arange(p)
    return scale * rho ** np.abs(idx[:, None] - idx[None, :])


def covariance(spec: dict, p: int) -> np.ndarray:
    """The benchmark's own construction of a config covariance (no specbulk)."""
    kind = spec["kind"]
    if kind == "identity":
        return np.eye(p)
    if kind == "toeplitz":
        return toeplitz(spec.get("scale", 1.0), spec.get("rho", 0.0), p)
    raise ValueError(f"covariance kind {kind!r} is not used by the benchmark")


def edge_bound(model: dict) -> float:
    """(1 + sqrt(1/c0))^2 C_max: no eigenvalue of W^T W lies above it."""
    p = model["p"]
    n = sum(cls["n"] for cls in model["classes"])
    c_max = max(np.linalg.eigvalsh(covariance(cls["covariance"], p))[-1]
                for cls in model["classes"])
    return (1.0 + np.sqrt(n / p)) ** 2 * c_max


def density_config(seed: int) -> dict:
    """The shipped three-class grid, shifted by a seeded fraction of a spacing."""
    lo, hi, n = DENSITY_GRID
    shift = rng_for(seed, 1).uniform(0.0, 1.0) * (hi - lo) / (n - 1)
    return {
        "version": 1,
        "model": threeclass_model(DENSITY_P),
        "density": {"x_min": lo + shift, "x_max": hi + shift, "n_points": n},
    }


@dataclass(frozen=True)
class EquivalentsInput:
    sigma2: float
    z1: complex
    z2: complex

    def config(self, model: dict) -> dict:
        return {
            "version": 1,
            "model": model,
            "equivalents": {"z1": [self.z1.real, self.z1.imag],
                            "z2": [self.z2.real, self.z2.imag]},
            "sigma2": [self.sigma2],
        }


def strata(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled.

    Stratified (Latin hypercube) draws keep the work of a pass nearly the
    same from seed to seed while every seed still gets other points.
    """
    return lo + (hi - lo) * rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def cold_queries(seed: int) -> tuple[dict, list[complex], list[EquivalentsInput]]:
    """Model config, single-point queries and equivalents inputs.

    Queries come from three regions where the solver needs no support
    knowledge: near the axis over the density range, the negative real
    axis, and the real axis beyond the edge bound.
    """
    model = threeclass_model(QUERY_P)
    rng = rng_for(seed, 2)
    near = (strata(rng, QUERIES_NEAR_AXIS, 0.0, 30.0)
            + 1j * 10.0 ** strata(rng, QUERIES_NEAR_AXIS, -3.0, -1.0))
    negative = -(10.0 ** strata(rng, QUERIES_NEGATIVE, -1.0, 1.0))
    beyond = edge_bound(model) * strata(rng, QUERIES_BEYOND_EDGE, 1.05, 2.0)
    points = [complex(z) for z in np.concatenate([near, negative, beyond])]
    points = [points[i] for i in rng.permutation(len(points))]
    n_eq = EQUIVALENTS_PER_PASS
    eq = [
        EquivalentsInput(sigma2=float(10.0 ** s2), z1=complex(x1, y1), z2=complex(x2, -y2))
        for s2, x1, y1, x2, y2 in zip(
            strata(rng, n_eq, -0.5, 0.5), strata(rng, n_eq, 0.0, 30.0),
            strata(rng, n_eq, 0.5, 2.0), strata(rng, n_eq, 0.0, 30.0),
            strata(rng, n_eq, 0.5, 2.0))
    ]
    return {"version": 1, "model": model}, points, eq


@dataclass(frozen=True)
class McInput:
    z: complex
    convergence_seed: int
    pooled_seed: int


def mc_input(seed: int) -> tuple[dict, McInput]:
    rng = rng_for(seed, 3)
    z = complex(rng.uniform(2.0, 20.0), rng.uniform(4.0, 6.0))
    seeds = rng.integers(0, 2**31, size=2)
    return threeclass_model(MC_P), McInput(z, int(seeds[0]), int(seeds[1]))


def z_arg(z: complex) -> str:
    """--z value in the CLI's RE,IM form with every digit kept."""
    return f"--z={z.real!r},{z.imag!r}"
