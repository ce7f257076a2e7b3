"""Monte Carlo harness: ensemble sampling, empirical resolvents, reports.

Sampling is counter-based: column j of a draw with seed s is generated
from an independent Philox stream keyed by (s, j), so trials parallelize
and reorder without changing a single bit of the output. A draw builds
one generator and rekeys it before each column: a Philox stream is fixed
by its key and counter alone (Salmon et al., SC 2011). At workers > 1
the trials of a report run on threads of the calling process; the root
GEMM and eigvalsh of a trial run in numpy and LAPACK, which release the
GIL. Reports reduce per-trial scalars in trial order, making them
reproducible regardless of scheduling.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .fixed_point import _dense, solve_g
from .model import ModelParams, ModelSpec
from .spectrum import DensityGrid

_ZERO_EIG_REL = 1e-12


@dataclass(frozen=True)
class EnsembleSample:
    """One draw of the p x n data matrix and the Gram spectrum."""

    seed: int
    w: np.ndarray
    eigenvalues_wtw: np.ndarray


@dataclass(frozen=True)
class McMetric:
    name: str
    mean: float
    stderr: float | None = None
    threshold: float | None = None
    passed: bool | None = None


@dataclass(frozen=True)
class McReport:
    trials: int
    seed: int
    metrics: tuple[McMetric, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        checked = [m.passed for m in self.metrics if m.passed is not None]
        return all(checked) if checked else True

    def metric(self, name: str) -> McMetric:
        for m in self.metrics:
            if m.name == name:
                return m
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "metrics": [
                {
                    "metric": m.name,
                    "mean": m.mean,
                    "stderr": m.stderr,
                    "threshold": m.threshold,
                    "pass": m.passed,
                }
                for m in self.metrics
            ],
        }


def _sqrt_covs(params: ModelParams):
    """Symmetric square roots of the class covariances, memoized per model.

    A model with joint spectra takes U diag(sqrt lambda_a) U^T from its
    stored basis, with no eigh; without a basis (diagonal covariances) a
    root is the 1-D array sqrt(lambda_a), which sample_w applies as a row
    scaling. Otherwise the root of each diagonal block of
    `ModelParams.blocks` comes from its eigh, and the block roots expand
    to the p x p root: two eigh of ceil(p/2) on a reflection-symmetric
    model, the one eigh of C_a on any other.
    """
    cache = getattr(params, "_sqrt_covs_cache", None)
    if cache is None:
        if params.spectra is None:
            roots = [_dense(np.stack([_root(*np.linalg.eigh(b)) for b in blocks]), params)
                     for blocks in params.blocks]
        else:
            roots = [_root(lam, params.basis) for lam in params.spectra]
        cache = tuple(roots)
        object.__setattr__(params, "_sqrt_covs_cache", cache)
    return cache


def _root(w, v):
    """V diag(sqrt w) V^T, or sqrt w itself when v is None."""
    root = np.sqrt(np.clip(w, 0.0, None))
    return root if v is None else (v * root) @ v.T


def trial_seed(base_seed: int, trial: int) -> int:
    """Derived 64-bit seed for one trial of a report."""
    return int(np.random.SeedSequence((base_seed, trial)).generate_state(1, np.uint64)[0])


def sample_w(params: ModelParams, seed: int) -> EnsembleSample:
    """Draw W = p^{-1/2} [C_1^{1/2} Z_1, ..., C_k^{1/2} Z_k].

    Column j uses the Philox stream keyed by (seed, j): byte-identical
    output for a given seed, independent of evaluation order. One Philox
    serves the draw; before column j its state is set to that of a fresh
    Philox(key=(seed, j)): counter 0, key (seed mod 2^64, j), an empty
    buffer (buffer_pos 4) and no cached 32-bit half.
    """
    p, n = params.p, params.n
    roots = _sqrt_covs(params)
    bits = np.random.Philox(key=np.array([int(seed) % (1 << 64), 0], dtype=np.uint64))
    fresh = bits.state  # copies: counter 0, empty buffer, key (seed, 0)
    key = fresh["state"]["key"]
    gen = np.random.Generator(bits)
    z = np.empty((p, n))
    for j in range(n):
        key[1] = j
        bits.state = fresh
        z[:, j] = gen.standard_normal(p)
    blocks = []
    for root, sl in zip(roots, params.class_slices()):
        blocks.append(root[:, None] * z[:, sl] if root.ndim == 1 else root @ z[:, sl])
    w = np.concatenate(blocks, axis=1) / np.sqrt(p)
    eigs = np.linalg.eigvalsh(w.T @ w)
    eigs = np.clip(eigs, 0.0, None)
    w.setflags(write=False)
    eigs.setflags(write=False)
    return EnsembleSample(seed=int(seed), w=w, eigenvalues_wtw=eigs)


def zero_eigenvalue_count(sample: EnsembleSample) -> int:
    eigs = sample.eigenvalues_wtw
    top = eigs[-1] if eigs.size else 0.0
    return int(np.sum(eigs < _ZERO_EIG_REL * max(top, 1.0)))


class SampleSpectral:
    """Spectral cache of one sample: evaluate resolvent statistics at any z.

    Uses the thin SVD W = U s V^T. Functions of W^T W use V plus the
    (n - r)-fold zero eigenvalue; functions of W W^T use U plus the
    (p - r)-fold zero eigenvalue.
    """

    def __init__(self, sample: EnsembleSample, params: ModelParams):
        self.params = params
        w = sample.w
        u, s, vt = np.linalg.svd(w, full_matrices=False)
        self.u = u
        self.vt = vt
        self.lam = s**2
        self.p, self.n = w.shape
        # per-class row masses of V: rowsq[a, m] = sum_{i in class a} V[i, m]^2
        slices = params.class_slices()
        self.rowsq = np.stack(
            [np.sum(vt[:, sl] ** 2, axis=1) for sl in slices]
        )
        self._diag_ucu = {}

    def _f(self, z):
        return 1.0 / (self.lam - z)

    def diag_ucu(self, a: int):
        """diag(U^T C_a U) for class a, cached."""
        if a not in self._diag_ucu:
            cov = self.params.covariances[a]
            self._diag_ucu[a] = np.sum((cov @ self.u) * self.u, axis=0)
        return self._diag_ucu[a]

    def trace_q_class(self, z, a: int) -> complex:
        """tr D_a Q_z (class-a block trace of the Gram resolvent)."""
        f = self._f(z)
        mass = self.rowsq[a]
        extra = self.params.class_sizes[a] - mass.sum()
        return complex(f @ mass + (-1.0 / z) * extra)

    def trace_q(self, z) -> complex:
        f = self._f(z)
        return complex(f.sum() + (-1.0 / z) * (self.n - self.lam.size))

    def bilinear_q(self, z, d1: np.ndarray, d2: np.ndarray) -> complex:
        """d1^T Q_z d2."""
        a1 = self.vt @ d1
        a2 = self.vt @ d2
        f = self._f(z)
        return complex((f * a1) @ a2 + (-1.0 / z) * (d1 @ d2 - a1 @ a2))

    def trace_q_pair_class(self, z1, z2, a: int) -> complex:
        """tr D_a Q_{z1} Q_{z2}."""
        f = self._f(z1) * self._f(z2)
        mass = self.rowsq[a]
        extra = self.params.class_sizes[a] - mass.sum()
        return complex(f @ mass + (1.0 / (z1 * z2)) * extra)

    def trace_qt(self, z) -> complex:
        f = self._f(z)
        return complex(f.sum() + (-1.0 / z) * (self.p - self.lam.size))

    def trace_qt_cov(self, z, a: int) -> complex:
        """tr C_a Qt_z."""
        d = self.diag_ucu(a)
        f = self._f(z)
        tr_cov = float(np.trace(self.params.covariances[a]))
        return complex(f @ d + (-1.0 / z) * (tr_cov - d.sum()))

    def trace_qt_cov_pair(self, z1, z2, a: int) -> complex:
        """tr C_a Qt_{z1} Qt_{z2} (same covariance insertion, two points)."""
        d = self.diag_ucu(a)
        f = self._f(z1) * self._f(z2)
        tr_cov = float(np.trace(self.params.covariances[a]))
        return complex(f @ d + (1.0 / (z1 * z2)) * (tr_cov - d.sum()))

    def trace_wt_qt_pair_w_class(self, z1, z2, a: int) -> complex:
        """tr(D_a W^T Qt_{z1} Qt_{z2} W); zero modes of W W^T contribute nothing."""
        f = self.lam * self._f(z1) * self._f(z2)
        return complex(f @ self.rowsq[a])

    def log_det_shifted(self, sigma2: float) -> float:
        """log det(W W^T + sigma2 I_p)."""
        return float(
            np.sum(np.log(self.lam + sigma2)) + (self.p - self.lam.size) * np.log(sigma2)
        )


def _pooled_eigenvalues(params, trials, seed, workers=1):
    """The Gram spectrum of each trial's draw, on min(workers, trials)
    threads; the result does not depend on the thread count."""
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    seeds = [trial_seed(seed, t) for t in range(trials)]
    workers = min(workers, trials)
    if workers == 1:
        return [sample_w(params, s).eigenvalues_wtw for s in seeds]
    _sqrt_covs(params)  # built once, before the threads share it
    with ThreadPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(lambda s: sample_w(params, s).eigenvalues_wtw, seeds))


def convergence_report(params: ModelParams, z, trials: int,
                       seed: int = 0) -> McReport:
    """Per-trial trace and bilinear errors of Q against Qbar, Qt against Qtbar.

    The Q side takes the traces against {I, D_1..D_k} and the bilinear
    forms on the first/last coordinate pair and one fixed random unit
    pair; the Qt side takes the traces against {I, C_1..C_k}.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    z = complex(z)
    point = solve_g(z, params)
    n, p, k = params.n, params.p, params.k
    q_bar = params.c0 * point.g  # per-class diagonal values
    # W^T W and W W^T share their nonzero eigenvalues, so
    # tr Qtbar = tr Qbar + (n - p)/z with tr Qbar = n m(z)
    qtbar_trace = n * point.m_mu + (n - p) / z

    slices = params.class_slices()
    rng = np.random.default_rng(12345)
    dr = rng.standard_normal(n)
    dr /= np.linalg.norm(dr)
    e1 = np.zeros(n)
    e1[0] = 1.0
    en = np.zeros(n)
    en[-1] = 1.0
    vectors = [("e1_en", e1, en), ("random_pair", dr, dr)]

    def qbar_bilinear(d1, d2):
        val = 0.0 + 0.0j
        for a, sl in enumerate(slices):
            val += q_bar[a] * (d1[sl] @ d2[sl])
        return val

    trace_vals = {"I": []}
    for a in range(k):
        trace_vals[f"D_{a + 1}"] = []
    bil_vals = {name: [] for name, _, _ in vectors}
    qt_vals = {"Qt_I": []}
    for a in range(k):
        qt_vals[f"Qt_C_{a + 1}"] = []

    for t in range(trials):
        sample = sample_w(params, trial_seed(seed, t))
        spec = SampleSpectral(sample, params)
        trace_vals["I"].append(abs(spec.trace_q(z) - n * (params.c @ q_bar)) / n)
        for a in range(k):
            det = params.class_sizes[a] * q_bar[a]  # tr D_a Qbar
            trace_vals[f"D_{a + 1}"].append(abs(spec.trace_q_class(z, a) - det) / n)
        for name, d1, d2 in vectors:
            emp = spec.bilinear_q(z, d1, d2)
            bil_vals[name].append(abs(emp - qbar_bilinear(d1, d2)))
        qt_vals["Qt_I"].append(abs(spec.trace_qt(z) - qtbar_trace) / p)
        for a in range(k):
            det = p * point.g_tilde[a]  # tr C_a Qtbar = p gt_a
            qt_vals[f"Qt_C_{a + 1}"].append(abs(spec.trace_qt_cov(z, a) - det) / p)

    metrics = []
    for name, vals in list(trace_vals.items()) + list(bil_vals.items()) + list(qt_vals.items()):
        arr = np.asarray(vals)
        metrics.append(
            McMetric(
                name=f"{name}",
                mean=float(arr.mean()),
                stderr=float(arr.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None,
            )
        )
    return McReport(trials=trials, seed=seed, metrics=tuple(metrics))


def _distance_to_support(eigs, support):
    """Distance of each eigenvalue to the union of intervals and {0}."""
    eigs = np.asarray(eigs)
    dist = np.abs(eigs)
    for lo, hi in support:
        d = np.where(eigs < lo, lo - eigs, np.where(eigs > hi, eigs - hi, 0.0))
        dist = np.minimum(dist, d)
    return dist


def outlier_report(params: ModelParams, trials: int, grid, seed: int = 0,
                   workers: int = 1) -> McReport:
    """Max distance of sample eigenvalues to the detected support union {0}."""
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    support = grid.support if isinstance(grid, DensityGrid) else tuple(grid)
    if not support:
        raise ValidationError("no support intervals available")
    maxima = []
    for eigs in _pooled_eigenvalues(params, trials, seed, workers):
        maxima.append(float(_distance_to_support(eigs, support).max()))
    arr = np.asarray(maxima)
    metrics = (
        McMetric("max_distance", float(arr.max())),
        McMetric("p99_distance", float(np.percentile(arr, 99))),
        McMetric("mean_max_distance", float(arr.mean()),
                 stderr=float(arr.std(ddof=1) / np.sqrt(trials)) if trials > 1 else None),
    )
    return McReport(trials=trials, seed=seed, metrics=metrics)


def histogram_report(params: ModelParams, trials: int, bins, grid: DensityGrid,
                     seed: int = 0, workers: int = 1) -> McReport:
    """L1 distance between the pooled spectral histogram and the density.

    bins: uniform ascending edges, or (x_min, x_max, width). The
    deterministic bin masses integrate the grid density (trapezoid between
    edges) plus the atom for the bin containing zero.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    if isinstance(bins, tuple) and len(bins) == 3:
        lo, hi, width = bins
        edges = np.arange(lo, hi + width * 0.5, width)
    else:
        edges = np.asarray(bins, dtype=float)
    widths = np.diff(edges)
    if widths.size == 0 or not np.allclose(widths, widths[0], rtol=1e-9):
        raise ValidationError("bins must be uniform")
    width = float(widths[0])
    if edges[0] < grid.xs[0] - 1e-12 or edges[-1] > grid.xs[-1] + 1e-12:
        raise ValidationError("bins must lie inside the density grid range")

    counts = np.zeros(widths.size)
    total = 0
    for eigs in _pooled_eigenvalues(params, trials, seed, workers):
        counts += np.histogram(eigs, bins=edges)[0]
        total += eigs.size
    emp_mass = counts / total

    # deterministic bin masses from the cumulative trapezoid of the density
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (grid.density[1:] + grid.density[:-1])
                          * np.diff(grid.xs))]
    )
    cum_at = np.interp(edges, grid.xs, cum)
    det_mass = np.diff(cum_at)
    zero_bin = np.searchsorted(edges, 0.0, side="right") - 1
    if 0 <= zero_bin < det_mass.size:
        det_mass[zero_bin] += grid.atom_at_zero

    l1 = float(np.abs(emp_mass - det_mass).sum())
    metrics = (
        McMetric("l1_distance", l1),
        McMetric("empirical_total_mass", float(emp_mass.sum())),
        McMetric("deterministic_total_mass", float(det_mass.sum())),
    )
    return McReport(trials=trials, seed=seed, metrics=metrics)


def variance_scaling_report(spec: ModelSpec, z, trials: int, p_list,
                            seed: int = 0) -> McReport:
    """Sample variance of (1/p) tr Qt C_a across dimensions p_list.

    The trace variance should fall like p^{-2}; consecutive doublings are
    reported as ratios.
    """
    if trials < 2:
        raise ValidationError(f"need at least 2 trials, got {trials}")
    z = complex(z)
    variances = {}
    metrics = []
    for p_target in p_list:
        params = spec.at_p(p_target)
        vals = np.empty((trials, params.k))
        for t in range(trials):
            sample = sample_w(params, trial_seed(seed, t))
            sp = SampleSpectral(sample, params)
            for a in range(params.k):
                vals[t, a] = sp.trace_qt_cov(z, a).real / params.p
        var = vals.var(axis=0, ddof=1)
        variances[p_target] = var
        for a in range(params.k):
            metrics.append(
                McMetric(f"var_p{p_target}_class{a + 1}", float(var[a]))
            )
    plist = list(p_list)
    for p_small, p_large in zip(plist[:-1], plist[1:]):
        if p_large == 2 * p_small:
            ratio = variances[p_small] / np.maximum(variances[p_large], 1e-300)
            for a in range(ratio.size):
                metrics.append(
                    McMetric(f"ratio_p{p_small}_to_p{p_large}_class{a + 1}",
                             float(ratio[a]))
                )
    return McReport(trials=trials, seed=seed, metrics=tuple(metrics))


def norm_bound_report(params: ModelParams, trials: int, seed: int = 0,
                      workers: int = 1) -> McReport:
    """Empirical max of ||W W^T|| against the slack-factor edge bound.

    The assertion max <= 1.5 (1 + sqrt(n/p))^2 C_max only applies at
    p >= 128; smaller sizes report the value without a pass mark.
    """
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")
    top = 0.0
    for eigs in _pooled_eigenvalues(params, trials, seed, workers):
        top = max(top, float(eigs[-1]))
    bound = 1.5 * (1.0 + np.sqrt(params.n / params.p)) ** 2 * params.c_max
    passed = bool(top <= bound) if params.p >= 128 else None
    metrics = (
        McMetric("max_norm_wwt", top, threshold=float(bound), passed=passed),
    )
    return McReport(trials=trials, seed=seed, metrics=metrics)
