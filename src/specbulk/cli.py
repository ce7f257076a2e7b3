"""Command-line front end: density grids, point solves, simulations, equivalents.

    specbulk <density|solve|simulate|equivalents> --config FILE --out DIR
             [--seed N] [--workers N] [--z RE,IM ...]

Configs are strict JSON documents whose version field is the integer 1;
unknown keys are rejected. --workers N (N >= 1, else a config error) is
accepted for compatibility: simulate draws its Monte Carlo trials in
blocks on the calling thread, and N changes neither its output nor its
work. A negative simulate seed is a config error. Exit codes: 0 success,
1 config error, 2 numerical error, 3 simulation assertion failure.
`main` parses with one parser, built once per process; `build_parser`
returns a fresh one.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

from . import equivalents as eqmod
from . import montecarlo as mc
from . import spectrum
from .errors import (
    ConfigError,
    ConsistencyError,
    NearSupportError,
    NonConvergenceError,
    NumericalSingularityError,
    SpecbulkError,
    ValidationError,
)
from .fixed_point import SolverOptions, solve_g
from .model import CovarianceSpec, ModelParams, build_covariance, validate_model

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NUMERICAL = 2
_EXIT_ASSERTION = 3

_NUMERICAL_ERRORS = (
    NonConvergenceError,
    NumericalSingularityError,
    NearSupportError,
    ConsistencyError,
)


def _require_keys(d: dict, allowed: set[str], context: str, required: set[str] = frozenset()):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {context}")
    missing = required - set(d)
    if missing:
        raise ConfigError(f"missing key {sorted(missing)[0]!r} in {context}")


def _number(value, context: str, kind=float):
    """kind(value) for a number read from the config, else ConfigError: a
    JSON integer for kind int, else a finite JSON number, and never a bool."""
    types = int if kind is int else (int, float)
    if (isinstance(value, bool) or not isinstance(value, types)
            or not abs(value) <= sys.float_info.max):
        what = "an integer" if kind is int else "a finite number"
        raise ConfigError(f"{context} must be {what}, got {value!r}")
    return kind(value)


def _config_z(value, context: str) -> complex:
    """A complex point given in the config as [re, im]."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{context} must be a pair [re, im], got {value!r}")
    return complex(_number(value[0], context), _number(value[1], context))


def load_config(path) -> tuple[dict, str]:
    """Parse and structurally validate a config file; returns (config, sha256)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _require_keys(
        cfg,
        {"version", "model", "solver", "density", "solve", "simulate",
         "equivalents", "sigma2"},
        "config root",
        required={"version", "model"},
    )
    if type(cfg["version"]) is not int or cfg["version"] != 1:
        raise ConfigError(f"config version must be the integer 1, got {cfg['version']!r}")
    return cfg, digest


def model_from_config(cfg: dict) -> ModelParams:
    section = cfg["model"]
    _require_keys(section, {"p", "classes"}, "model", required={"p", "classes"})
    if not isinstance(section["classes"], list) or not section["classes"]:
        raise ConfigError("model.classes must be a nonempty list")
    sizes, covs = [], []
    p = _number(section["p"], "model.p", int)
    for i, cls in enumerate(section["classes"]):
        _require_keys(cls, {"n", "covariance"}, f"model.classes[{i}]",
                      required={"n", "covariance"})
        sizes.append(_number(cls["n"], f"model.classes[{i}].n", int))
        try:
            spec = CovarianceSpec.from_dict(cls["covariance"])
            covs.append(build_covariance(spec, p))
        except ValidationError as exc:
            raise ConfigError(f"model.classes[{i}].covariance: {exc}") from exc
    try:
        return validate_model(
            ModelParams(p=p, class_sizes=tuple(sizes), covariances=tuple(covs))
        )
    except ValidationError as exc:
        raise ConfigError(f"model: {exc}") from exc


def solver_from_config(cfg: dict) -> SolverOptions:
    section = cfg.get("solver", {})
    _require_keys(section, {"tol", "max_iter"}, "solver")
    try:
        return SolverOptions(**section)
    except (ValidationError, TypeError) as exc:
        raise ConfigError(f"solver: {exc}") from exc


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--z expects RE,IM, got {text!r}")
    try:
        values = [float(part) for part in parts]
    except ValueError as exc:
        raise ConfigError(f"--z expects numbers, got {text!r}") from exc
    return _config_z(values, f"--z {text!r}")


def _json_complex(z: complex):
    return [z.real, z.imag]


def _write_json(path, payload: dict, digest: str):
    payload = {"config_sha256": digest, **payload}
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_density(cfg, digest, out_dir):
    section = cfg.get("density")
    if section is None:
        raise ConfigError("density command needs a 'density' section")
    _require_keys(section, {"x_min", "x_max", "n_points"}, "density",
                  required={"x_min", "x_max", "n_points"})
    x_min, x_max = (_number(section[key], f"density.{key}") for key in ("x_min", "x_max"))
    n_points = _number(section["n_points"], "density.n_points", int)
    params = model_from_config(cfg)
    opts = solver_from_config(cfg)
    try:
        grid = spectrum.density_grid(x_min, x_max, n_points, params, opts)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spectrum.write_density_csv(grid, out / "density.csv",
                               header_comment=f"config_sha256={digest}")
    spectrum.write_support_json(grid, out / "support.json",
                                extra={"config_sha256": digest,
                                       "total_mass": grid.total_mass})
    return _EXIT_OK


def cmd_solve(cfg, digest, out_dir, z_values):
    if not z_values:
        section = cfg.get("solve")
        if section is None:
            raise ConfigError("solve command needs --z points or a 'solve' section")
        _require_keys(section, {"z"}, "solve", required={"z"})
        if not isinstance(section["z"], list):
            raise ConfigError(f"solve.z must be a list of pairs, got {section['z']!r}")
        z_values = [_config_z(zv, f"solve.z[{i}]") for i, zv in enumerate(section["z"])]
    if any(zv == 0 for zv in z_values):
        raise ConfigError("z = 0 is excluded (atom location)")
    params = model_from_config(cfg)
    opts = solver_from_config(cfg)
    records = []
    for zv in z_values:
        point = solve_g(zv, params, opts)
        records.append(
            {
                "z": _json_complex(point.z),
                "g": [_json_complex(v) for v in point.g],
                "g_tilde": [_json_complex(v) for v in point.g_tilde],
                "m_mu": _json_complex(point.m_mu),
                "iterations": point.iterations,
                "residual": point.residual,
            }
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "points.json", {"points": records}, digest)
    return _EXIT_OK


def cmd_simulate(cfg, digest, out_dir, seed=None, workers=1):
    section = cfg.get("simulate")
    if section is None:
        raise ConfigError("simulate command needs a 'simulate' section")
    _require_keys(
        section,
        {"trials", "seed", "grid", "histogram", "outliers", "norm_bound"},
        "simulate",
        required={"trials", "grid"},
    )
    trials = _number(section["trials"], "simulate.trials", int)
    if trials < 1:
        raise ConfigError(f"simulate.trials must be >= 1, got {trials}")
    if workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")
    run_seed = seed
    if run_seed is None:
        run_seed = _number(section.get("seed", 0), "simulate.seed", int)
    if run_seed < 0:
        raise ConfigError(f"simulate seed must be >= 0, got {run_seed}")
    grid_cfg = section["grid"]
    _require_keys(grid_cfg, {"x_min", "x_max", "n_points"}, "simulate.grid",
                  required={"x_min", "x_max", "n_points"})
    x_min, x_max = (_number(grid_cfg[k], f"simulate.grid.{k}") for k in ("x_min", "x_max"))
    n_points = _number(grid_cfg["n_points"], "simulate.grid.n_points", int)
    params = model_from_config(cfg)
    opts = solver_from_config(cfg)
    grid = spectrum.density_grid(x_min, x_max, n_points, params, opts)

    hist_cfg = section.get("histogram")
    histogram = hist_threshold = None
    if hist_cfg is not None:
        _require_keys(hist_cfg, {"bin_width", "l1_threshold"}, "simulate.histogram",
                      required={"bin_width"})
        width = _number(hist_cfg["bin_width"], "simulate.histogram.bin_width")
        hist_threshold = hist_cfg.get("l1_threshold")
        if hist_threshold is not None:
            hist_threshold = _number(hist_threshold, "simulate.histogram.l1_threshold")
        histogram = (trials, (grid.xs[0], grid.xs[-1], width))
    out_cfg = section.get("outliers")
    out_trials = out_threshold = None
    if out_cfg is not None:
        _require_keys(out_cfg, {"max_distance", "trials"}, "simulate.outliers")
        out_trials = _number(out_cfg.get("trials", trials), "simulate.outliers.trials", int)
        out_threshold = out_cfg.get("max_distance")
        if out_threshold is not None:
            out_threshold = _number(out_threshold, "simulate.outliers.max_distance")
    reps = mc.simulate_reports(
        params, grid, histogram=histogram, outliers=out_trials,
        norm_bound=trials if section.get("norm_bound") else None,
        seed=run_seed, workers=workers,
    )

    reports = {}
    failures = []
    if "histogram" in reps:
        rep = reps["histogram"]
        payload = rep.to_dict()
        if hist_threshold is not None:
            l1 = rep.metric("l1_distance").mean
            ok = l1 <= hist_threshold
            payload["pass"] = ok
            payload["threshold"] = hist_threshold
            if not ok:
                failures.append(f"histogram l1_distance {l1:.4f} > {hist_threshold}")
        reports["histogram"] = payload
    if "outliers" in reps:
        rep = reps["outliers"]
        payload = rep.to_dict()
        if out_threshold is not None:
            worst = rep.metric("max_distance").mean
            ok = worst <= out_threshold
            payload["pass"] = ok
            payload["threshold"] = out_threshold
            if not ok:
                failures.append(f"outliers max_distance {worst:.4f} > {out_threshold}")
        reports["outliers"] = payload
    if "norm_bound" in reps:
        rep = reps["norm_bound"]
        payload = rep.to_dict()
        if not rep.passed:
            m = rep.metric("max_norm_wwt")
            failures.append(f"norm bound {m.mean:.4f} > {m.threshold:.4f}")
        reports["norm_bound"] = payload

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(
        out / "report.json",
        {
            "trials": trials,
            "seed": run_seed,
            "support": [[l, r] for l, r in grid.support],
            "atom_at_zero": grid.atom_at_zero,
            "reports": reports,
            "pass": not failures,
            "failures": failures,
        },
        digest,
    )
    if failures:
        print("failed checks:", "; ".join(failures), file=sys.stderr)
        return _EXIT_ASSERTION
    return _EXIT_OK


def cmd_equivalents(cfg, digest, out_dir, z_values):
    if len(z_values) == 2:
        z1, z2 = z_values
    elif z_values:
        raise ConfigError(f"equivalents takes --z exactly twice, got {len(z_values)}")
    else:
        section = cfg.get("equivalents")
        if section is None:
            raise ConfigError(
                "equivalents command needs --z z1 --z z2 or an 'equivalents' section"
            )
        _require_keys(section, {"z1", "z2"}, "equivalents", required={"z1", "z2"})
        z1, z2 = (_config_z(section[key], f"equivalents.{key}") for key in ("z1", "z2"))
    if z1 == 0 or z2 == 0:
        raise ConfigError("z = 0 is excluded (atom location)")
    sigma2_list = cfg.get("sigma2") or []
    if not isinstance(sigma2_list, list):
        raise ConfigError(f"sigma2 must be a list of numbers, got {sigma2_list!r}")
    sigma2_list = [_number(s2, f"sigma2[{i}]") for i, s2 in enumerate(sigma2_list)]
    for i, s2 in enumerate(sigma2_list):
        if not s2 > 0.0:
            raise ConfigError(f"sigma2[{i}] must be positive, got {s2!r}")
    params = model_from_config(cfg)
    opts = solver_from_config(cfg)
    p1 = solve_g(z1, params, opts)
    p2 = solve_g(z2, params, opts)
    eq1 = eqmod.first_order(p1, params)
    eq2 = eqmod.first_order(p2, params)
    so = eqmod.second_order_from_equivalents(eq1, eq2, params)
    payload = {
        "z1": _json_complex(so.z1),
        "z2": _json_complex(so.z2),
        "omega": [[_json_complex(v) for v in row] for row in so.omega],
        "r": [[_json_complex(v) for v in row] for row in so.r],
        "rho_omega": so.spectral_radius_omega,
        "rho_omega_bound": eqmod.omega_radius_bound(z1, z2, params),
        "trace_q_bar_over_n": _json_complex(eqmod.q_bar_trace(eq1, params)),
        "trace_qt_bar_over_p": _json_complex(eqmod.qt_bar_trace(eq1, params)),
    }
    if sigma2_list:
        functionals = []
        for s2 in sigma2_list:
            point = solve_g(complex(-s2, 0.0), params, opts)
            functionals.append(
                {
                    "sigma2": s2,
                    "log_det": eqmod.log_det_at(point, params),
                    "class_traces": [
                        eqmod.class_trace_functional(-s2, a, point, params)
                        for a in range(params.k)
                    ],
                }
            )
        payload["wireless_functionals"] = functionals
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "equivalents.json", payload, digest)
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specbulk",
        description="Spectral deterministic equivalents for Gram matrices of "
                    "Gaussian mixture samples",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("density", "solve", "simulate", "equivalents"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", required=True)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--workers", type=int, default=1)
        sp.add_argument("--z", action="append", default=[],
                        help="complex point RE,IM (repeatable)")
    return parser


_parser = functools.cache(build_parser)  # the parser of main, built once per process


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg, digest = load_config(args.config)
        z_values = [_parse_z(text) for text in args.z]
        if args.command == "density":
            return cmd_density(cfg, digest, args.out)
        if args.command == "solve":
            return cmd_solve(cfg, digest, args.out, z_values)
        if args.command == "simulate":
            return cmd_simulate(cfg, digest, args.out, seed=args.seed,
                                workers=args.workers)
        return cmd_equivalents(cfg, digest, args.out, z_values)
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except SpecbulkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
