"""k-class covariance model: compact covariance specs, construction, validation.

The ensemble is defined by an observation dimension p, class sizes
n_1..n_k and one symmetric PSD p x p covariance per class. Derived
ratios c0 = p/n and c_a = n_a/n drive everything downstream.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from numbers import Real

import numpy as np

from .errors import ValidationError

# Numerical tolerances for accepting covariance input.
PSD_TOL = 1e-10
SYM_TOL = 1e-12
# Relative size, against s^2 (probe) or s (rotated covariances,
# C_a - J C_a J), below which commutators and off-diagonal entries count as
# zero. The traces taken in the joint eigenbasis or on diagonal blocks err
# only to second order in the off-diagonal part left out. Detection runs
# before any eigenvalue is known, so s is the largest entry |C_a[i, j]|, at
# most the spectral norm C_max: the tests can only be stricter than at C_max.
COMMUTE_TOL = 1e-9

_COV_KINDS = ("identity", "scaled_identity", "toeplitz", "diagonal", "dense")


@dataclass(frozen=True)
class CovarianceSpec:
    """Compact description of one class covariance.

    kind is one of: identity, scaled_identity(scale), toeplitz(scale, rho),
    diagonal(values), dense(path).
    """

    kind: str
    scale: float = 1.0
    rho: float = 0.0
    values: tuple[float, ...] | None = None
    path: str | None = None

    def __post_init__(self):
        if self.kind not in _COV_KINDS:
            raise ValidationError(f"unknown covariance kind {self.kind!r}")
        for name in ("scale", "rho"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValidationError(f"{name} must be a number, got {value!r}")
        if self.values is not None and not (
                isinstance(self.values, (tuple, list, np.ndarray))
                and all(isinstance(v, Real) and not isinstance(v, bool) for v in self.values)):
            raise ValidationError(f"values must be a list of numbers, got {self.values!r}")
        if self.kind in ("scaled_identity", "toeplitz") and not self.scale > 0:
            raise ValidationError(f"scale must be positive, got {self.scale}")
        if self.kind == "toeplitz" and not 0.0 <= self.rho < 1.0:
            raise ValidationError(f"rho must lie in [0, 1), got {self.rho}")
        if self.kind == "diagonal":
            if self.values is None or len(self.values) == 0:
                raise ValidationError("diagonal covariance needs a values list")
            if not all(np.isfinite(v) and v >= 0 for v in self.values):
                raise ValidationError("diagonal covariance values must be finite and >= 0")
        if self.kind == "dense" and not self.path:
            raise ValidationError("dense covariance needs a file path")

    @classmethod
    def from_dict(cls, d: dict) -> "CovarianceSpec":
        d = dict(d)
        kind = d.pop("kind", None)
        if kind is None:
            raise ValidationError("covariance spec needs a 'kind' key")
        known = {"scale", "rho", "values", "path"}
        unknown = set(d) - known
        if unknown:
            raise ValidationError(f"unknown covariance spec keys: {sorted(unknown)}")
        if isinstance(d.get("values"), list):
            d["values"] = tuple(d["values"])
        return cls(kind=kind, **d)


def load_dense_covariance(path) -> np.ndarray:
    """Read a dense covariance file: first line p, then p rows of p decimals."""
    with open(path) as fh:
        first = fh.readline().split()
        if len(first) != 1:
            raise ValidationError(f"{path}: first line must hold the dimension p")
        p = int(first[0])
        try:
            rows = [np.array(line.split(), dtype=float)
                    for line in fh if line.strip()]
        except ValueError as exc:
            raise ValidationError(f"{path}: non-numeric entry: {exc}") from exc
    if len(rows) != p or any(r.size != p for r in rows):
        raise ValidationError(f"{path}: expected {p} rows of {p} entries")
    return np.vstack(rows)


def build_covariance(spec: CovarianceSpec, p: int) -> np.ndarray:
    """Materialize a p x p covariance matrix from its spec."""
    if p < 1:
        raise ValidationError(f"p must be a positive integer, got {p}")
    if spec.kind == "identity":
        return np.eye(p)
    if spec.kind == "scaled_identity":
        return spec.scale * np.eye(p)
    if spec.kind == "toeplitz":
        col = spec.scale * spec.rho ** np.arange(p)
        idx = np.arange(p)
        return col[np.abs(idx[:, None] - idx[None, :])]
    if spec.kind == "diagonal":
        if len(spec.values) != p:
            raise ValidationError(
                f"diagonal covariance has {len(spec.values)} values, expected p={p}"
            )
        return np.diag(np.asarray(spec.values, dtype=float))
    # dense file; validate_model checks it as it checks every covariance
    mat = load_dense_covariance(spec.path)
    if mat.shape != (p, p):
        raise ValidationError(f"{spec.path}: matrix is {mat.shape}, expected ({p}, {p})")
    return mat


@dataclass(frozen=True)
class ModelParams:
    """The ensemble (p, n_1..n_k, C_1..C_k) with derived ratios.

    Construct with raw fields, then pass through validate_model, which
    symmetrizes, stores the covariances in one of the forms below, certifies
    PSD-ness, fills eigenvalues, c_max and the class fractions c
    (c_a = n_a / n) and freezes the arrays. Instances are immutable after
    validation and safe to share.

    When the covariances commute, validation fills spectra, the k x p
    joint eigenvalues (row a holds the eigenvalues of C_a), and basis, the
    orthogonal p x p matrix U with U^T C_a U = diag(spectra[a]); basis
    stays None when every C_a is diagonal. Otherwise both stay None and
    blocks holds the covariances as one (k, m, b, b) array of diagonal
    blocks in a fixed orthogonal basis: m = 2 and b = ceil(p/2) when every
    C_a commutes with the reversal i -> p-1-i (the even and odd vectors;
    the odd block of an odd p is zero-padded at its last index), else
    m = 1, b = p and covariances[a] is the view blocks[a, 0].

    eigenvalues (k x p) holds those of each C_a as read from that form:
    spectra itself, or those of the blocks without the pad. c_max is its
    largest entry.
    """

    p: int
    class_sizes: tuple[int, ...]
    covariances: tuple[np.ndarray, ...]
    c_max: float = 0.0
    validated: bool = False
    spectra: np.ndarray | None = field(default=None, repr=False)
    basis: np.ndarray | None = field(default=None, repr=False)
    blocks: np.ndarray | None = field(default=None, repr=False)
    eigenvalues: np.ndarray | None = field(default=None, repr=False)
    c: np.ndarray | None = field(default=None, repr=False)

    @property
    def k(self) -> int:
        return len(self.class_sizes)

    @cached_property
    def n(self) -> int:
        return int(sum(self.class_sizes))

    @cached_property
    def c0(self) -> float:
        return self.p / self.n

    @cached_property
    def c_over_c0(self) -> np.ndarray:
        """The (1, k) row c_b / c0 of the Jacobian of Psi, read-only."""
        row = self.c[None, :] / self.c0
        row.setflags(write=False)
        return row

    def class_slices(self) -> list[slice]:
        """Column ranges of each class inside the n columns of W."""
        out, start = [], 0
        for n_a in self.class_sizes:
            out.append(slice(start, start + n_a))
            start += n_a
        return out


def validate_model(params: ModelParams) -> ModelParams:
    """Check invariants, clamp tiny negative eigenvalues, fill derived fields.

    Idempotent: a validated instance is returned unchanged.
    """
    if params.validated:
        return params
    p = int(params.p)
    if p < 1:
        raise ValidationError(f"p must be a positive integer, got {params.p}")
    sizes = tuple(int(n_a) for n_a in params.class_sizes)
    if len(sizes) < 1:
        raise ValidationError("need at least one class")
    if any(n_a < 1 for n_a in sizes):
        raise ValidationError(f"class sizes must be >= 1, got {sizes}")
    if len(params.covariances) != len(sizes):
        raise ValidationError(
            f"{len(sizes)} class sizes but {len(params.covariances)} covariances"
        )

    covs = []
    for a, cov in enumerate(params.covariances):
        mat = np.asarray(cov, dtype=float)
        if mat.shape != (p, p):
            raise ValidationError(
                f"covariance {a} has shape {mat.shape}, expected ({p}, {p})"
            )
        if not np.isfinite(mat).all():
            raise ValidationError(f"covariance {a} has non-finite entries")
        sym = 0.5 * (mat + mat.T)
        asym = 2.0 * np.abs(mat - sym).max()  # max |mat - mat.T|, read in order
        if asym > SYM_TOL * (1.0 + np.abs(mat).max()):
            raise ValidationError(
                f"covariance {a} not symmetric (max asymmetry {asym:.3e})"
            )
        covs.append(sym)

    scale = max(float(np.abs(mat).max()) for mat in covs)  # at most C_max
    spectra, basis = _joint_spectra(covs, scale)
    blocks = None if spectra is not None else _class_blocks(covs, scale)
    # the sizes of the blocks without the pad of an odd p
    dims = () if blocks is None else (p,) if blocks.shape[1] == 1 else (p - p // 2, p // 2)
    eigs = spectra if blocks is None else np.concatenate(
        [np.linalg.eigvalsh(blocks[:, j, :d, :d]) for j, d in enumerate(dims)], axis=1)
    for a in np.flatnonzero(eigs.min(axis=1) < 0.0):
        if eigs[a].min() < -PSD_TOL:
            raise ValidationError(
                f"covariance {a} not PSD, most negative eigenvalue {eigs[a].min():.6e}"
            )
        # within tolerance: clamp the offending directions to exactly zero
        np.clip(eigs[a], 0.0, None, out=eigs[a])
        for j, d in enumerate(dims):
            w, v = np.linalg.eigh(blocks[a, j, :d, :d])
            mat = (v * np.clip(w, 0.0, None)) @ v.T
            blocks[a, j, :d, :d] = 0.5 * (mat + mat.T)
        stored = eigs[a] if blocks is None else blocks[a]
        mat = _dense(stored, replace(params, p=p, basis=basis))
        covs[a] = 0.5 * (mat + mat.T)
    c = np.asarray(sizes, dtype=float) / sum(sizes)
    if blocks is not None and blocks.shape[1] == 1:
        covs = list(blocks[:, 0])  # read-only views: one copy of the matrices
    for arr in (*covs, spectra, basis, blocks, eigs, c):
        if arr is not None:
            arr.setflags(write=False)
    return replace(params, p=p, class_sizes=sizes, covariances=tuple(covs),
                   c_max=float(eigs.max()), validated=True, spectra=spectra,
                   basis=basis, blocks=blocks, eigenvalues=eigs, c=c)


def _joint_spectra(covs, scale: float):
    """(spectra, basis) of commuting symmetric covariances, or (None, None).

    Diagonal covariances give their diagonals and no basis. Otherwise a
    probe compares C_a C_b v with C_b C_a v for one fixed vector v, at the
    cost of k^2 mat-vecs; only when every pair passes is U taken from eigh
    of the generic combination sum_a sqrt(a + 1) C_a, and kept when each
    U^T C_a U is diagonal to COMMUTE_TOL * scale. With k = 1 the eigh of C_1
    is the decomposition itself.
    """
    if all(np.count_nonzero(c) == np.count_nonzero(np.diag(c)) for c in covs):
        return np.array([np.diag(c) for c in covs]), None
    if len(covs) == 1:
        w, u = np.linalg.eigh(covs[0])
        return w[None, :], u
    v = 1.0 / np.arange(1.0, covs[0].shape[0] + 1.0)  # fixed, with no symmetry
    cv = [c @ v for c in covs]
    bound = COMMUTE_TOL * scale**2 * np.linalg.norm(v)
    for a in range(len(covs)):
        for b in range(a + 1, len(covs)):
            if np.linalg.norm(covs[a] @ cv[b] - covs[b] @ cv[a]) > bound:
                return None, None
    _, u = np.linalg.eigh(sum(np.sqrt(a + 1.0) * c for a, c in enumerate(covs)))
    rotated = [u.T @ c @ u for c in covs]
    spectra = np.array([np.diag(r) for r in rotated])
    off = max(np.abs(r - np.diag(np.diag(r))).max() for r in rotated)
    if off > COMMUTE_TOL * scale:
        return None, None
    return spectra, u


def _class_blocks(covs, scale: float) -> np.ndarray:
    """The covariances as one (k, m, b, b) array of diagonal blocks.

    When every C_a commutes with the reversal J (i -> p-1-i) to
    COMMUTE_TOL * scale, as every symmetric Toeplitz matrix does, the even
    vectors (e_i + e_{p-1-i})/sqrt 2 (and e_h for odd p = 2h + 1) and the
    odd vectors (e_i - e_{p-1-i})/sqrt 2 split each C_a into two blocks
    (Cantoni & Butler, Linear Algebra Appl. 1976). With S = (C_a + J C_a J)/2
    the even block is S11 + S12 J and the odd one S11 - S12 J, on the
    leading ceil(p/2) and p/2 indices, so both are slices of S; the odd
    block of an odd p is zero-padded at its last index. Otherwise the one
    block is C_a itself.
    """
    p = covs[0].shape[0]
    h, b = p // 2, (p + 1) // 2
    # the leading rows of J C_a J; C_a - J C_a J vanishes where they match C_a
    mirrored = [c[::-1, ::-1][:b] for c in covs]
    if any(np.abs(c[:b] - r).max() > COMMUTE_TOL * scale
           for c, r in zip(covs, mirrored)):
        return np.stack(covs)[:, None]
    blocks = np.zeros((len(covs), 2, b, b))
    for a, (c, r) in enumerate(zip(covs, mirrored)):
        top = 0.5 * (c[:b] + r)  # the leading rows of S
        flip = top[:, ::-1][:, :b]  # S12 J
        np.add(top[:, :b], flip, out=blocks[a, 0])
        np.subtract(top[:h, :h], flip[:h, :h], out=blocks[a, 1, :h, :h])
    if p % 2:  # the slices double row and column h, where e_h is a unit vector
        blocks[:, 0, h, :] /= np.sqrt(2.0)
        blocks[:, 0, :, h] /= np.sqrt(2.0)
    return blocks


def _dense(op, params: ModelParams) -> np.ndarray:
    """The p x p matrix of an operator in the model's form, the inverse of
    `_joint_spectra` and `_class_blocks`.

    A 1-D op is U diag(op) U^T (diag(op) when the model has no basis). A
    one-block stack is op[0]. A two-block stack (E, O) in the even/odd
    basis of the reversal J expands, with h = p // 2, S = (E11 + O) / 2 and
    D = (E11 - O) / 2 on the leading h indices, to the top rows [S, D J]
    (plus row and column h from E / sqrt 2 and E_hh when p is odd); J X J
    = X gives the bottom rows.
    """
    if op.ndim == 1:
        u = params.basis
        return np.diag(op) if u is None else (u * op) @ u.T
    if len(op) == 1:
        return op[0]
    p = params.p
    h = p // 2
    even, odd = op[0], op[1, :h, :h]
    out = np.empty((p, p), dtype=op.dtype)
    out[:h, :h] = 0.5 * (even[:h, :h] + odd)
    out[:h, ::-1][:, :h] = 0.5 * (even[:h, :h] - odd)
    if p % 2:
        out[:h, h] = even[:h, h] / np.sqrt(2.0)
        out[h, :h] = even[h, :h] / np.sqrt(2.0)
        out[h, h + 1:] = out[h, h - 1::-1]
        out[h, h] = even[h, h]
    out[p - h:] = out[h - 1::-1, ::-1]
    return out


def _trace(op, params: ModelParams):
    """The trace of the p x p matrix that `_dense` expands op to, taken from
    op itself: the sum of a 1-D op, else the traces of its blocks, without
    the padded entry of the odd block of an odd p."""
    if op.ndim == 1:
        return op.sum()
    h = params.p // 2
    return np.trace(op[0]) + (np.trace(op[1, :h, :h]) if len(op) == 2 else 0.0)


def _in_form(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """A p x m matrix x in the orthogonal basis of the model's form: U^T x
    (x with no basis), a (1, p, m) view of x, or the (2, b, m) even and odd
    parts (x_i +/- x_{p-1-i}) / sqrt 2, the odd one of an odd p padded."""
    if params.blocks is None:
        return x if params.basis is None else params.basis.T @ x
    if params.blocks.shape[1] == 1:
        return x[None]
    h = params.p // 2
    top, bottom = x[:h], x[::-1][:h]
    out = np.zeros((2, params.p - h, x.shape[1]))
    out[0, :h] = (top + bottom) / np.sqrt(2.0)
    out[1, :h] = (top - bottom) / np.sqrt(2.0)
    out[0, h:] = x[h:params.p - h]  # row h of an odd p
    return out


@dataclass(frozen=True)
class ModelSpec:
    """Size-free model description: class fractions plus covariance specs.

    Used where the same ensemble family is needed at several dimensions
    (rate and variance scaling reports). Scaling by s multiplies p and
    every n_a by s, rebuilding the covariances at the new dimension.
    """

    p: int
    classes: tuple[tuple[int, CovarianceSpec], ...]

    def materialize(self, scale: int = 1) -> ModelParams:
        if scale < 1 or int(scale) != scale:
            raise ValidationError(f"scale must be a positive integer, got {scale}")
        p = self.p * int(scale)
        sizes = tuple(n_a * int(scale) for n_a, _ in self.classes)
        covs = tuple(build_covariance(spec, p) for _, spec in self.classes)
        return validate_model(ModelParams(p=p, class_sizes=sizes, covariances=covs))

    def at_p(self, p_target: int) -> ModelParams:
        if p_target % self.p:
            raise ValidationError(
                f"target p={p_target} is not an integer multiple of base p={self.p}"
            )
        return self.materialize(scale=p_target // self.p)
