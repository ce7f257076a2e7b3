"""Correctness gates on the outputs specbulk writes or returns.

Each check returns a list of failure messages; an empty list is a pass.
None of them calls specbulk: the oracles (the square-root law, the edge
bound, the atom of a nonsingular model) are computed here.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from inputs import covariance, edge_bound

DEFAULT_TOL = 1e-12
# The trapezoid rule misses part of a 1/sqrt(x) hard edge at zero: the
# shipped mp.json grid (c0 = 1, spacing 0.01) gives a total mass of 0.989.
MASS_TOL = 0.02
# Support edges are located at eta = 1e-6 (spectrum.EDGE_ETA), so an edge
# may sit that far outside the exact bound.
EDGE_SLACK = 1e-6
CLOSED_FORM_TOL = 1e-9


def solver_tol(cfg: dict) -> float:
    return float(cfg.get("solver", {}).get("tol", DEFAULT_TOL))


def c0_of(model: dict) -> float:
    return model["p"] / sum(cls["n"] for cls in model["classes"])


def nonsingular(model: dict) -> bool:
    p = model["p"]
    return all(np.linalg.eigvalsh(covariance(cls["covariance"], p))[0] > 1e-10
               for cls in model["classes"])


def mp_stieltjes(z: complex, c0: float) -> complex:
    """Square-root law: the root m of z m^2 + (c0 z - c0 + 1) m + c0 = 0.

    Off the axis the admissible root has Im(m) Im(z) > 0. On the real axis
    outside the support it is the larger root: the positive one for z < 0,
    the one nearer zero beyond the upper edge.
    """
    b = c0 * z - c0 + 1.0
    disc = np.sqrt(complex(b * b - 4.0 * z * c0))
    roots = [(-b + disc) / (2.0 * z), (-b - disc) / (2.0 * z)]
    if z.imag != 0.0:
        return max(roots, key=lambda m: m.imag * np.sign(z.imag))
    return max(roots, key=lambda m: m.real)


def check_density(out: Path, cfg: dict) -> list[str]:
    fails = []
    with open(out / "density.csv", newline="") as fh:
        rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    values = np.array(rows[1:], dtype=float)
    if rows[0] != ["x", "density"] or len(values) != cfg["density"]["n_points"]:
        fails.append("density.csv has the wrong header or row count")
    elif not (np.isfinite(values).all() and (values[:, 1] >= 0).all()):
        fails.append("density.csv holds a negative or non-finite density")
    return fails + check_support(json.loads((out / "support.json").read_text()),
                                 cfg["model"])


def check_support(payload: dict, model: dict) -> list[str]:
    fails = []
    if abs(payload["total_mass"] - 1.0) > MASS_TOL:
        fails.append(f"total_mass {payload['total_mass']:.6f} is not 1 +- {MASS_TOL}")
    if nonsingular(model):
        atom = max(0.0, 1.0 - c0_of(model))
        if abs(payload["atom_at_zero"] - atom) > 1e-12:
            fails.append(f"atom_at_zero {payload['atom_at_zero']} != {atom}")
    bound = edge_bound(model) + EDGE_SLACK * max(1.0, edge_bound(model))
    ends = [x for interval in payload["support"] for x in interval]
    if not ends:
        fails.append("empty support")
    elif ends != sorted(ends) or ends[0] < 0.0 or ends[-1] > bound:
        fails.append(f"support {payload['support']} is not ordered inside [0, {bound:.4f}]")
    return fails


def check_points(out: Path, cfg: dict, queried: list[complex] | None) -> list[str]:
    """points.json: residual certificates, half-plane signs, the oracle for k=1 C=I."""
    fails = []
    tol = solver_tol(cfg)
    points = json.loads((out / "points.json").read_text())["points"]
    zs = [complex(*pt["z"]) for pt in points]
    if queried is not None and zs != queried:
        fails.append(f"points.json holds z={zs}, queried {queried}")
    model = cfg["model"]
    identity = all(cls["covariance"]["kind"] == "identity" for cls in model["classes"])
    for z, pt in zip(zs, points):
        m = complex(*pt["m_mu"])
        if not pt["residual"] <= tol:
            fails.append(f"residual {pt['residual']:.3e} > tol {tol} at z={z}")
        if z.imag != 0.0 and m.imag * z.imag < 0.0:
            fails.append(f"Im m has the wrong sign at z={z}")
        if z.imag == 0.0 and (m.imag != 0.0 or (z.real < 0.0 and m.real <= 0.0)):
            fails.append(f"real-axis point z={z} returned m={m}")
        if identity and len(model["classes"]) == 1:
            ref = mp_stieltjes(z, c0_of(model))
            if abs(m - ref) > CLOSED_FORM_TOL * (1.0 + abs(ref)):
                fails.append(f"m={m} differs from the square-root law {ref} at z={z}")
    return fails


def check_equivalents(out: Path, cfg: dict) -> list[str]:
    fails = []
    payload = json.loads((out / "equivalents.json").read_text())
    if not payload["rho_omega"] < 1.0:
        fails.append(f"rho(Omega) = {payload['rho_omega']} is not below 1")
    model = cfg["model"]
    sizes = [cls["n"] for cls in model["classes"]]
    functionals = payload.get("wireless_functionals", [])
    if len(functionals) != len(cfg.get("sigma2", [])):
        fails.append("missing channel functionals")
    for item in functionals:
        s2, log_det = item["sigma2"], item["log_det"]
        # W W^T is PSD, so log det(W W^T + s2 I) >= p log s2
        if not (math.isfinite(log_det) and log_det >= model["p"] * math.log(s2)):
            fails.append(f"log_det {log_det} below p log sigma2 at sigma2={s2}")
        for n_a, trace in zip(sizes, item["class_traces"]):
            if not 0.0 <= trace <= n_a:
                fails.append(f"class trace {trace} outside [0, {n_a}] at sigma2={s2}")
    return fails


def check_simulate(out: Path, code: int) -> tuple[list[str], list[str]]:
    """(gate failures, red verdicts) of one simulate run."""
    payload = json.loads((out / "report.json").read_text())
    fails = []
    if payload["pass"] != (code == 0):
        fails.append(f"report.json pass={payload['pass']} but exit code {code}")
    return fails, list(payload["failures"])


def check_residuals(solved: list[dict]) -> list[str]:
    """Every point solve_g returned in a traced pass meets its tolerance."""
    bad = [s for s in solved if not s["residual"] <= (s["tol"] or DEFAULT_TOL)]
    return [f"{len(bad)} solve_g results above tol, first at z={bad[0]['z']}"] if bad else []
