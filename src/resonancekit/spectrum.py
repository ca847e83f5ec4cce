"""Exact oracle from leading boxes of the two parity blocks of H, solved as
stacked eigenvalue problems and certified by a Sturm count on the whole
blocks; the checked dense symmetric eigensolver the matrix chains use, on a
(G, n, n) stack of matrices (one matrix is a stack of one); the records of a
coupling sweep.  A sweep is held as arrays, one :class:`MethodSweep` per
method on the table's g grid, and its CSV is written from them.  The guard
band is enforced where ``methods.exact_sweep`` admits each coupling
(``operators.validated_level_count``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    ModelParams, TruncationConfig, _adjoint, _mat, build_parity_blocks, displacement_band
)

__all__ = [
    "CouplingErrors",
    "EigenDecomposition",
    "MethodSweep",
    "SpectrumTable",
    "check_rows",
    "eigh",
    "exact_spectra",
]

PARITY_EVEN = "even"
PARITY_ODD = "odd"

# Hermiticity bound of eigh's input, as a fraction of max(max|A|, 1).
_HERM_RTOL = 1e-14
# Eigenvalue accuracy every solve is checked to, as a fraction of max|lambda|.
_RESIDUAL_RTOL = 1e-10
_ORTHO_TOL = 1e-12
# Width of a degenerate group, as a fraction of max(omega, max|E|) over the
# n_levels + 1 lowest levels.
_DEGENERACY_RTOL = 1e-8
# Accuracy the exact oracle's levels are certified to, per max(|E|, omega).
_CERTIFY_RTOL = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns of each
    matrix of a stack: (G, n) and (G, n, n)."""

    values: np.ndarray
    vectors: np.ndarray


class CouplingErrors(Exception):
    """The exceptions of some matrices of a stack, by stack row, each the one
    that matrix raises on its own; the other rows passed every check so far."""

    def __init__(self, errors: dict[int, Exception]):
        super().__init__(f"{len(errors)} stacked couplings failed")
        self.errors = errors


def check_rows(bad, error) -> None:
    """Raise :class:`CouplingErrors` holding ``error(i)`` for each row i of a
    stack that ``bad``, one flag per row (shape (G,)), flags."""
    bad = np.asarray(bad)
    if bad.ndim != 1:
        raise ValueError(f"check_rows requires one flag per stack row, (G,), got {bad.shape}")
    if bad.any():
        raise CouplingErrors({i: error(i) for i in np.flatnonzero(bad).tolist()})


@dataclass(frozen=True, eq=False)
class MethodSweep:
    """One method's levels over a coupling grid, as arrays.

    At coupling i, level k has the energy ``energies[i, k]`` and the
    (branch, parity) label ``labels[label_index[i, k]]``; energies ascend
    along k.  ``errors[i]`` is the exception coupling i raised on its own, or
    None; where it is set, row i of the arrays is not read.
    """

    method: str
    energies: np.ndarray
    labels: tuple[tuple[str, str], ...]
    label_index: np.ndarray
    errors: tuple[Exception | None, ...]

    @classmethod
    def from_points(cls, method: str, points, n_levels: int) -> MethodSweep:
        """Inverse of :meth:`point`: coupling i has the ``n_levels`` levels,
        or the exception, ``points[i]``."""
        energies = np.full((len(points), n_levels), np.nan)
        codes = np.zeros((len(points), n_levels), dtype=np.intp)
        labels: dict[tuple[str, str], int] = {}
        for i, levels in enumerate(points):
            if not isinstance(levels, Exception):
                energies[i] = [energy for _, _, energy in levels]
                codes[i] = [labels.setdefault((b, p), len(labels)) for b, p, _ in levels]
        errors = tuple(exc if isinstance(exc, Exception) else None for exc in points)
        return cls(method, energies, tuple(labels), codes, errors)

    @property
    def ok(self) -> np.ndarray:
        return np.array([exc is None for exc in self.errors], dtype=bool)

    def parities(self, rows) -> np.ndarray:
        """The parity label of every level at the successful couplings that
        ``rows`` (an index or mask over the grid) selects."""
        parity = np.array([label[1] for label in self.labels], dtype=object)
        return parity[self.label_index[rows]]

    def point(self, i: int):
        """Coupling i's levels as (branch, parity, energy) in ascending energy
        order, or the exception it raised."""
        if self.errors[i] is not None:
            return self.errors[i]
        codes, energies = self.label_index[i].tolist(), self.energies[i].tolist()
        return [(*self.labels[c], e) for c, e in zip(codes, energies)]


@dataclass(eq=False)
class SpectrumTable:
    """Every method's :class:`MethodSweep` over one coupling grid.

    ``failures`` lists its failed points in (g, method) order, methods in
    ``sweeps`` order.
    """

    grid: np.ndarray
    sweeps: tuple[MethodSweep, ...] = ()

    def sweep(self, method: str) -> MethodSweep | None:
        return next((s for s in self.sweeps if s.method == method), None)

    @property
    def row_count(self) -> int:
        return sum(int(s.ok.sum()) * s.energies.shape[1] for s in self.sweeps)

    @property
    def failures(self) -> tuple[tuple[float, str, str], ...]:
        return tuple(
            (g, s.method, f"{type(s.errors[i]).__name__}: {s.errors[i]}")
            for i, g in enumerate(self.grid.tolist())
            for s in self.sweeps
            if s.errors[i] is not None
        )


def _gap_ids(values: np.ndarray, tol) -> np.ndarray:
    """Cluster id of each value along the last axis, ascending there: a new
    cluster starts wherever the gap to the previous value exceeds tol."""
    gaps = np.cumsum(np.diff(values, axis=-1) > tol, axis=-1)
    return np.concatenate([np.zeros((*values.shape[:-1], 1), gaps.dtype), gaps], -1)


def eigh(op) -> EigenDecomposition:
    """Full symmetric eigendecomposition of each real matrix of a (G, n, n)
    stack, ascending eigenvalues; one matrix is a stack of one, ``op[None]``.

    The one check of an operator before it is solved: raises ValueError on
    any other shape, and on a matrix that differs from its transpose by more
    than 1e-14*max(max|A|, 1); complex input raises TypeError (see
    ``operators._mat``).  Asserts the residual (against max|lambda|, the
    spectral norm) and orthonormality bounds that every downstream consumer
    relies on.  Each check holds per matrix (see :func:`check_rows`).
    """
    h = _mat(op)
    if h.ndim != 3 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"eigh requires a (G, n, n) stack, got shape {h.shape}")
    scale = np.maximum(np.abs(h).max(axis=(-2, -1)), 1.0)
    asymmetry = np.abs(h - _adjoint(h)).max(axis=(-2, -1))
    check_rows(asymmetry > _HERM_RTOL * scale,
               lambda i: ValueError("eigh requires a Hermitian operator"))
    values, vectors = np.linalg.eigh(h)
    residual = np.abs(h @ vectors - vectors * values[..., None, :]).max(axis=(-2, -1))
    norm_h = np.abs(values).max(axis=-1)
    check_rows((norm_h > 0) & (residual > _RESIDUAL_RTOL * norm_h),
               lambda i: ArithmeticError(f"eigensolver residual {residual[i]:.3e} too large"))
    ortho = np.abs(_adjoint(vectors) @ vectors - np.eye(values.shape[-1])).max(axis=(-2, -1))
    check_rows(ortho > _ORTHO_TOL,
               lambda i: ArithmeticError(f"eigenvectors not orthonormal: {ortho[i]:.3e}"))
    return EigenDecomposition(values=values, vectors=vectors)


def _sturm_count(diag: np.ndarray, off2: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Number of eigenvalues below each shift in ``x`` of the symmetric
    tridiagonal matrices with diagonal ``diag`` and squared off-diagonal
    ``off2``, as the negative pivots of the LDL^T factorization of T - x
    (Barth, Martin and Wilkinson, Numer. Math. 9, 386 (1967)).

    The last axis of ``diag`` and ``off2`` runs along the chain (``off2``
    with a leading zero, so both have the chain's length); their other axes
    broadcast against those of ``x``, whose last axis holds the shifts.  A
    pivot of magnitude below pivmin is replaced by -pivmin, as LAPACK's
    bisection does, so a zero pivot needs no special case and no quotient
    overflows.
    """
    pivmin = np.finfo(float).tiny * max(1.0, off2.max(initial=0.0))
    count = np.zeros(x.shape, dtype=int)
    pivot = np.ones(x.shape)
    for a, b2 in zip(np.moveaxis(diag, -1, 0), np.moveaxis(off2, -1, 0)):
        pivot = (a[..., None] - x) - b2[..., None] / pivot
        pivot[np.abs(pivot) < pivmin] = -pivmin
        count += pivot < 0
    return count


def _leading_box(params: ModelParams, n_max: int, n_levels: int) -> int:
    """Rows of the leading box each parity block of the exact oracle is first
    solved on: n_levels + 1 + the displacement band, at most n_max + 1."""
    return min(n_max + 1, n_levels + 1 + displacement_band(params))


def exact_spectra(
    omega: float, omega0: float, grid, n_max: int, n_levels: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The lowest ``n_levels`` (default: all) eigenvalues of the truncated
    Hamiltonian at each coupling of ``grid``, ascending, and whether each is
    odd: two (len(grid), n_levels) arrays.  Each parity block is solved on a
    box of its leading rows (:func:`_leading_box`), one stack per box size;
    a Sturm count on the whole blocks, in units of omega, certifies the
    levels up to rank ``n_levels`` to 1e-12*max(|E|, omega).  A box that
    fails doubles, up to the whole block, where it raises ArithmeticError.
    Levels closer than 1e-8*max(omega, max|E|), over the n_levels + 1
    lowest, form one group, inside which even labels come before odd ones.
    """
    grid = np.asarray(grid, dtype=float)
    size = n_max + 1
    n_levels = 2 * size if n_levels is None else min(n_levels, 2 * size)
    keep = min(size, n_levels + 1)  # each block's levels among the merged n_levels + 1
    top = min(n_levels, 2 * keep - 1)  # merged rank of the highest of them
    even, odd = build_parity_blocks(ModelParams(omega, omega0, 1.0), TruncationConfig(n_max))
    diag, root_n = np.stack([even.diag, odd.diag]), even.off  # off-diagonal sqrt(n) at g = 1
    scaled = diag[:, None] / omega  # certified in units of omega: no pivot falls below pivmin
    off2 = np.concatenate([np.zeros((grid.size, 1)), ((grid / omega)[:, None] * root_n) ** 2], -1)
    params = (ModelParams(omega, omega0, g) for g in grid.tolist())
    boxes = np.array([_leading_box(p, n_max, n_levels) for p in params])
    levels = np.empty((2, grid.size, keep))  # each block's lowest levels
    rank = np.arange(keep)
    pending = np.arange(grid.size)
    while pending.size:
        for box in sorted(set(boxes[pending].tolist())):  # np.unique would import numpy.ma
            rows, idx = pending[boxes[pending] == box], np.arange(box)
            h = np.zeros((2, rows.size, box, box))
            h[..., idx, idx] = diag[:, None, :box]
            h[..., idx[1:], idx[:-1]] = grid[rows, None] * root_n[:box - 1]
            levels[:, rows] = np.linalg.eigvalsh(h)[..., :keep]  # reads the lower triangle only
        cut = np.sort(np.concatenate(list(levels), -1))[:, top]
        delta = _CERTIFY_RTOL * np.maximum(np.abs(levels), omega)
        counts = _sturm_count(scaled, off2, np.concatenate([levels - delta, levels + delta], -1) / omega)
        below, upto = np.split(counts, 2, axis=-1)
        bad = ((below > rank) | (upto <= rank)) & (levels <= cut[:, None])
        failed = np.argwhere(bad & (boxes == size)[:, None]).tolist()
        if failed:
            block, i, k = failed[0]
            raise ArithmeticError(
                f"Sturm count does not certify eigenvalue {k} of the "
                f"{(PARITY_EVEN, PARITY_ODD)[block]} block at g = {float(grid[i])!r} "
                f"to {delta[block, i, k]:.3e}"
            )
        pending = np.flatnonzero(bad.any(axis=(0, 2)))
        boxes[pending] = np.minimum(size, 2 * boxes[pending])
    merged = np.concatenate(list(levels), -1)
    order = np.argsort(merged, axis=-1, kind="stable")
    values, is_odd = np.take_along_axis(merged, order, -1), order >= keep
    scale = np.maximum(omega, np.abs(values[:, [0, top]]).max(axis=-1))
    groups = _gap_ids(values, _DEGENERACY_RTOL * scale[:, None])
    is_odd = np.take_along_axis(is_odd, np.lexsort((is_odd, groups), axis=-1), -1)
    return values[:, :n_levels], is_odd[:, :n_levels]
