"""The four benchmark workloads.

A workload turns its seed into inputs once, then offers the fixed list of
operations that make one pass. Every pass of a run repeats the same
operations on the same inputs. An operation is one public call: a CLI
invocation through `specbulk.cli.main`, or one Monte Carlo report.
"""
from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
from checks import (
    check_density,
    check_equivalents,
    check_points,
    check_simulate,
)
from env import ROOT, nproc


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    call: Callable[[Path], object]
    check: Callable[[Path, object], list[str]]


@dataclass
class OpResult:
    op: Op
    out: Path
    seconds: float
    value: object = None
    error: str | None = None

    @property
    def failed(self) -> bool:
        """Raised, or exited with a config (1) or numerical (2) error."""
        return self.error is not None or self.value in (1, 2)


def _cli(kind: str, config: Path, *extra: str) -> Callable[[Path], object]:
    def call(out: Path):
        import specbulk.cli as cli

        return cli.main([kind, "--config", str(config), "--out", str(out), *extra])

    return call


def _write(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    return path


def _build_model(model: dict):
    import specbulk.cli as cli

    return cli.model_from_config({"model": model})


def _ms(values):
    return [1e3 * v for v in values]


def _quantile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


class Workload:
    name = ""

    def cross_check(self, results: list[OpResult]) -> list[str]:
        """Gates that compare operations of one pass with each other."""
        return []


class ThreeclassDensity(Workload):
    """`specbulk density` on the three-class Toeplitz family, shifted grid."""

    name = "threeclass-density"

    def __init__(self, seed: int, work: Path):
        self.cfg = inputs.density_config(seed)
        self.config = _write(work / "density.json", self.cfg)

    @staticmethod
    def set_up(seed: int):
        return _build_model(inputs.density_config(seed)["model"])

    def ops(self) -> list[Op]:
        return [Op("density", "density", _cli("density", self.config),
                   lambda out, code: check_density(out, self.cfg))]

    def summary(self, passes: list[list[OpResult]]) -> dict:
        return {"density_s": statistics.median(r.seconds for p in passes for r in p)}


class ColdQueries(Workload):
    """One `specbulk solve` per seeded point, plus seeded `equivalents` runs."""

    name = "cold-queries"

    def __init__(self, seed: int, work: Path):
        self.cfg, self.points, self.eq = inputs.cold_queries(seed)
        self.config = _write(work / "model.json", self.cfg)
        self.eq_cfgs = [item.config(self.cfg["model"]) for item in self.eq]
        self.eq_configs = [_write(work / f"equivalents-{i}.json", cfg)
                           for i, cfg in enumerate(self.eq_cfgs)]

    @staticmethod
    def set_up(seed: int):
        return _build_model(inputs.cold_queries(seed)[0]["model"])

    def ops(self) -> list[Op]:
        ops = [
            Op("solve", f"solve z={z}", _cli("solve", self.config, inputs.z_arg(z)),
               lambda out, code, z=z: check_points(out, self.cfg, [z]))
            for z in self.points
        ]
        # interleave the equivalents runs with the queries
        step = len(ops) // (len(self.eq) + 1)
        for i, (cfg, path) in reversed(list(enumerate(zip(self.eq_cfgs, self.eq_configs)))):
            ops.insert((i + 1) * step, Op(
                "equivalents", f"equivalents sigma2={cfg['sigma2'][0]}",
                _cli("equivalents", path),
                lambda out, code, cfg=cfg: check_equivalents(out, cfg)))
        return ops

    def summary(self, passes: list[list[OpResult]]) -> dict:
        queries = _ms(r.seconds for p in passes for r in p if r.op.kind == "solve")
        eq = [r.seconds for p in passes for r in p if r.op.kind == "equivalents"]
        return {
            "query_p50_ms": statistics.median(queries),
            "query_p90_ms": _quantile(queries, 90),
            "query_samples": len(queries),
            "equivalents_p50_s": statistics.median(eq),
            "equivalents_samples": len(eq),
        }


class McEnsemble(Workload):
    """Serial convergence report and pooled norm-bound reports at p=512."""

    name = "mc-ensemble"

    def __init__(self, seed: int, work: Path):
        self.model, self.input = inputs.mc_input(seed)
        self.covs = self.set_up(seed).covariances
        self.workers = nproc()

    @staticmethod
    def set_up(seed: int):
        return _build_model(inputs.mc_input(seed)[0])

    def ops(self) -> list[Op]:
        import specbulk.montecarlo as mc
        from specbulk.model import ModelParams, validate_model

        state = {}

        def validate(out):
            # a new instance per pass, so each pass pays the lazy
            # covariance-root set-up inside its first sample_w call
            sizes = tuple(cls["n"] for cls in self.model["classes"])
            state["params"] = validate_model(ModelParams(
                p=self.model["p"], class_sizes=sizes, covariances=self.covs))

        def convergence(out):
            return mc.convergence_report(state["params"], self.input.z,
                                         inputs.MC_CONVERGENCE_TRIALS,
                                         seed=self.input.convergence_seed)

        def pooled(workers):
            return lambda out: mc.norm_bound_report(
                state["params"], inputs.MC_POOLED_TRIALS,
                seed=self.input.pooled_seed, workers=workers)

        def finite(out, report):
            bad = [m.name for m in report.metrics if not math.isfinite(m.mean)]
            return [f"non-finite Monte Carlo metrics {bad}"] if bad else []

        return [
            Op("validate_model", "validate_model", validate, lambda out, value: []),
            Op("convergence_report", "convergence_report", convergence, finite),
            Op("norm_bound_report", "norm_bound_report workers=1", pooled(1), finite),
            Op("norm_bound_report", f"norm_bound_report workers={self.workers}",
               pooled(self.workers), finite),
        ]

    def cross_check(self, results: list[OpResult]) -> list[str]:
        serial, pooled = results[2].value, results[3].value
        if serial is None or pooled is None:
            return []
        if serial.to_dict() != pooled.to_dict():
            return [f"norm_bound_report differs between workers=1 and "
                    f"workers={self.workers}: {serial.to_dict()} vs {pooled.to_dict()}"]
        return []

    def summary(self, passes: list[list[OpResult]]) -> dict:
        conv = statistics.median(p[1].seconds for p in passes)
        serial = statistics.median(p[2].seconds for p in passes)
        pooled = statistics.median(p[3].seconds for p in passes)
        return {
            "mc_trials_per_s": inputs.MC_CONVERGENCE_TRIALS / conv,
            "mc_pooled_trials_per_s": inputs.MC_POOLED_TRIALS / pooled,
            "mc_serial_pooled_trials_per_s": inputs.MC_POOLED_TRIALS / serial,
            "pooled_workers": self.workers,
            "pooled_slower_than_serial": pooled > serial,
        }


SHIPPED_CONFIGS = ("mp", "atom", "threeclass")


def _shipped(name: str) -> dict:
    return json.loads((ROOT / "configs" / f"{name}.json").read_text())


class ShippedConfigs(Workload):
    """Every CLI command whose section exists in the committed configs."""

    name = "shipped-configs"

    def __init__(self, seed: int, work: Path):
        self.cfgs = {name: _shipped(name) for name in SHIPPED_CONFIGS}
        self.verdicts: dict[str, list[str]] = {}

    @staticmethod
    def set_up(seed: int):
        return [_build_model(_shipped(name)["model"]) for name in SHIPPED_CONFIGS]

    def _op(self, kind: str, name: str) -> Op:
        cfg, label = self.cfgs[name], f"{kind} {name}.json"

        def check(out, code):
            if kind == "density":
                return check_density(out, cfg)
            if kind == "solve":
                return check_points(out, cfg, None)
            if kind == "equivalents":
                return check_equivalents(out, cfg)
            fails, self.verdicts[label] = check_simulate(out, code)
            return fails

        return Op(kind, label, _cli(kind, ROOT / "configs" / f"{name}.json"), check)

    def ops(self) -> list[Op]:
        return [self._op(kind, name) for kind, name in inputs.SHIPPED_OPS]

    def summary(self, passes: list[list[OpResult]]) -> dict:
        sims = [r for p in passes for r in p if r.op.kind == "simulate" and not r.failed]
        per_op = {}
        for p in passes:
            for r in p:
                per_op.setdefault(r.op.label, []).append(r.seconds)
        return {
            "check_failed_frac": sum(r.value == 3 for r in sims) / max(len(sims), 1),
            "simulate_verdicts": self.verdicts,
            "command_s": {k: statistics.median(v) for k, v in per_op.items()},
        }


WORKLOADS = {w.name: w for w in (ThreeclassDensity, ColdQueries, McEnsemble, ShippedConfigs)}
