"""Span tracer that wraps specbulk's public functions from outside the package.

A wrapped function records one span per call: name, start, end, the index
of the span that was open when it was called, whether it raised, and a few
attributes taken from its arguments or result (Psi evaluations of a solved
point, the number of support intervals, the exit code of the CLI). Spans
stay in memory until `Tracer.layer_metrics` reduces them and `Tracer.write`
writes them out.

Each wrapper replaces the original object in every specbulk module
namespace that binds it, so calls through `from .x import f` aliases and
through module globals are both caught. Spans inside Monte Carlo pool
worker processes are not collected; the pooled report is timed as a whole.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)


def _solve_attrs(args, kwargs, result):
    opts = args[2] if len(args) > 2 else kwargs.get("opts")
    warm = args[3] if len(args) > 3 else kwargs.get("warm_start")
    return {"evals": result.iterations, "residual": result.residual,
            "tol": opts.tol if opts is not None else None, "z": result.z,
            "warm": warm is not None}


def _workers_attr(args, kwargs, result):
    return {"workers": kwargs.get("workers", args[3] if len(args) > 3 else 1)}


# (module, attribute, span name, attribute extractor)
TARGETS = (
    ("specbulk.model", "build_covariance", "model.build_covariance", None),
    ("specbulk.model", "validate_model", "model.validate_model", None),
    ("specbulk.fixed_point", "solve_g", "fixed_point.solve_g", _solve_attrs),
    ("specbulk.fixed_point", "solve_grid", "fixed_point.solve_grid", None),
    ("specbulk.spectrum", "density_grid", "spectrum.density_grid", None),
    ("specbulk.spectrum", "support_detect", "spectrum.support_detect",
     lambda a, k, r: {"intervals": len(r)}),
    ("specbulk.spectrum", "atom_at_zero", "spectrum.atom_at_zero", None),
    ("specbulk.equivalents", "first_order", "equivalents.first_order", None),
    ("specbulk.equivalents", "second_order_from_equivalents",
     "equivalents.second_order", None),
    ("specbulk.equivalents", "log_det_functional",
     "equivalents.log_det_functional", None),
    ("specbulk.nonneg", "spectral_radius", "nonneg.spectral_radius", None),
    ("specbulk.montecarlo", "sample_w", "montecarlo.sample_w", None),
    ("specbulk.montecarlo", "convergence_report",
     "montecarlo.convergence_report", None),
    ("specbulk.montecarlo", "norm_bound_report",
     "montecarlo.norm_bound_report", _workers_attr),
    ("specbulk.cli", "main", "cli.main", lambda a, k, r: {"exit_code": r}),
)

# Per-layer metrics: name -> (unit, better). Every traced run reports all
# of them; a layer the workload never calls reads 0.
LAYER_METRICS = {
    "fixed_point.solve_g.calls": ("count", "lower"),
    "fixed_point.solve_g.evals": ("count", "lower"),
    "fixed_point.solve_g.evals_per_call": ("evals/call", "lower"),
    "fixed_point.solve_g.cold_evals_per_call": ("evals/call", "lower"),
    "fixed_point.solve_g.self_s": ("s", "lower"),
    "fixed_point.solve_g.ms_per_eval": ("ms", "lower"),
    "fixed_point.solve_g.failed": ("count", "lower"),
    "fixed_point.solve_grid.s": ("s", "lower"),
    "fixed_point.solve_grid.evals_per_point": ("evals/call", "lower"),
    "spectrum.density_grid.s": ("s", "lower"),
    "spectrum.support_detect.s": ("s", "lower"),
    "spectrum.support_detect.solves": ("count", "lower"),
    "spectrum.support_detect.evals": ("count", "lower"),
    "spectrum.atom_at_zero.s": ("s", "lower"),
    "spectrum.support_intervals": ("count", "higher"),
    "equivalents.log_det_functional.s": ("s", "lower"),
    "equivalents.log_det_functional.solves": ("count", "lower"),
    "equivalents.log_det_functional.evals": ("count", "lower"),
    "equivalents.first_order.s": ("s", "lower"),
    "equivalents.second_order.s": ("s", "lower"),
    "nonneg.spectral_radius.calls": ("count", "lower"),
    "montecarlo.sample_w.calls": ("count", "lower"),
    "montecarlo.sample_w.ms_per_call": ("ms", "lower"),
    "montecarlo.sample_w.first_call_s": ("s", "lower"),
    "montecarlo.SampleSpectral.ms_per_call": ("ms", "lower"),
    "montecarlo.convergence_report.s": ("s", "lower"),
    "montecarlo.norm_bound_report.workers1_s": ("s", "lower"),
    "montecarlo.norm_bound_report.workersN_s": ("s", "lower"),
    "model.build_covariance.s": ("s", "lower"),
    "model.validate_model.s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "cli.exit_code.0": ("count", "higher"),
    "cli.exit_code.1": ("count", "lower"),
    "cli.exit_code.2": ("count", "lower"),
    "cli.exit_code.3": ("count", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly between runs of the same code and inputs.
EXACT_COUNTS = (
    "fixed_point.solve_g.evals",
    "fixed_point.solve_g.calls",
    "spectrum.support_intervals",
    "spectrum.support_detect.solves",
)


class Tracer:
    """Install span-recording wrappers; reduce spans to per-layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, extract):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), open_[-1] if open_ else -1)
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if extract is not None:
                span.attrs = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        import specbulk.cli  # noqa: F401  (loads every specbulk module)
        import specbulk.montecarlo as mc

        modules = [m for key, m in list(sys.modules.items())
                   if key == "specbulk" or key.startswith("specbulk.")]
        for module_name, attr, name, extract in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(original, name, extract)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)
        init = mc.SampleSpectral.__init__
        self._undo.append((mc.SampleSpectral, "__init__", init))
        mc.SampleSpectral.__init__ = self._wrap(
            init, "montecarlo.SampleSpectral", None)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def clear(self):
        self.spans.clear()

    def write(self, path):
        """Write the recorded spans as JSON rows [name, start, end, parent, failed]."""
        path.write_text(json.dumps(
            [[s.name, s.start, s.end, s.parent, s.failed] for s in self.spans]) + "\n")

    def _ancestor(self, span, name):
        while span.parent >= 0:
            span = self.spans[span.parent]
            if span.name == name:
                return True
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the recorded spans to the LAYER_METRICS that spans give."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, span in enumerate(self.spans):
            dur = span.end - span.start
            total[span.name] = total.get(span.name, 0.0) + dur
            self_s[span.name] = self_s.get(span.name, 0.0) + dur - child_time[i]
            calls[span.name] = calls.get(span.name, 0) + 1

        solves = [s for s in self.spans if s.name == "fixed_point.solve_g"]
        evals = sum(s.attrs.get("evals", 0) for s in solves)
        m = {name: 0.0 for name in LAYER_METRICS}
        m["fixed_point.solve_g.calls"] = len(solves)
        m["fixed_point.solve_g.evals"] = evals
        m["fixed_point.solve_g.evals_per_call"] = evals / len(solves) if solves else 0.0
        m["fixed_point.solve_g.self_s"] = self_s.get("fixed_point.solve_g", 0.0)
        m["fixed_point.solve_g.ms_per_eval"] = (
            1e3 * m["fixed_point.solve_g.self_s"] / evals if evals else 0.0)
        m["fixed_point.solve_g.failed"] = sum(s.failed for s in solves)
        # cold: no warm start, so the continuation ladder or a direct solve;
        # grid: the warm sweep's points
        for key, group in (
            ("fixed_point.solve_g.cold_evals_per_call",
             [s for s in solves if not s.failed and not s.attrs["warm"]]),
            ("fixed_point.solve_grid.evals_per_point",
             [s for s in solves if self._ancestor(s, "fixed_point.solve_grid")]),
        ):
            if group:
                m[key] = sum(s.attrs.get("evals", 0) for s in group) / len(group)
        for owner in ("spectrum.support_detect", "equivalents.log_det_functional"):
            inside = [s for s in solves if self._ancestor(s, owner)]
            m[f"{owner}.solves"] = len(inside)
            m[f"{owner}.evals"] = sum(s.attrs.get("evals", 0) for s in inside)
        for name in ("fixed_point.solve_grid", "spectrum.density_grid",
                     "spectrum.support_detect", "spectrum.atom_at_zero",
                     "equivalents.log_det_functional", "equivalents.first_order",
                     "equivalents.second_order", "montecarlo.convergence_report",
                     "model.build_covariance", "model.validate_model"):
            m[f"{name}.s"] = total.get(name, 0.0)
        m["spectrum.support_intervals"] = sum(
            s.attrs.get("intervals", 0) for s in self.spans
            if s.name == "spectrum.support_detect")
        m["nonneg.spectral_radius.calls"] = calls.get("nonneg.spectral_radius", 0)

        samples = [s for s in self.spans if s.name == "montecarlo.sample_w"]
        m["montecarlo.sample_w.calls"] = len(samples)
        if samples:
            m["montecarlo.sample_w.ms_per_call"] = (
                1e3 * total["montecarlo.sample_w"] / len(samples))
            m["montecarlo.sample_w.first_call_s"] = samples[0].end - samples[0].start
        n_spec = calls.get("montecarlo.SampleSpectral", 0)
        if n_spec:
            m["montecarlo.SampleSpectral.ms_per_call"] = (
                1e3 * total["montecarlo.SampleSpectral"] / n_spec)
        for s in self.spans:
            if s.name == "montecarlo.norm_bound_report":
                key = "workers1_s" if s.attrs.get("workers", 1) == 1 else "workersN_s"
                m[f"montecarlo.norm_bound_report.{key}"] += s.end - s.start

        m["cli.main.calls"] = calls.get("cli.main", 0)
        m["cli.main.self_s"] = self_s.get("cli.main", 0.0)
        for s in self.spans:
            code = s.attrs.get("exit_code") if s.name == "cli.main" else None
            if code is not None:
                m[f"cli.exit_code.{code}"] += 1
        m["trace.spans"] = len(self.spans)
        return m

    def solved_points(self):
        """Attributes (evals, residual, tol, z) of every solve_g call that returned."""
        return [s.attrs for s in self.spans
                if s.name == "fixed_point.solve_g" and not s.failed]
