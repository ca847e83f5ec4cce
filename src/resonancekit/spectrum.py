"""Exact oracle from the two parity blocks of H, solved once per g grid as
stacked eigenvalue problems and certified by a Sturm count; the checked
dense Hermitian eigensolver the matrix chains use; the row and table
records of a coupling sweep.  Sweeps themselves, the exact oracle's
included, run through ``sweep.run_sweep``, which enforces the guard band."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import ModelParams, TruncationConfig, _mat, build_parity_blocks

__all__ = [
    "EigenDecomposition",
    "SpectrumRow",
    "SpectrumTable",
    "eigh",
    "exact_spectra",
    "exact_spectrum",
    "validate_truncation",
]

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_NA = "n/a"
PARITY_UNCLASSIFIED = "unclassified"

# Hermiticity bound of eigh's input, as a fraction of max(max|A|, 1).
_HERM_RTOL = 1e-14
# Eigenvalue accuracy every solve is checked to, as a fraction of max|lambda|.
_RESIDUAL_RTOL = 1e-10
_ORTHO_TOL = 1e-12
# Width of a degenerate group, as a fraction of max(1, max|E|).
_DEGENERACY_RTOL = 1e-8
# Matrix entries per stacked parity-block solve; bounds the oracle's memory
# on long g grids.
_EXACT_BLOCK = 1 << 18


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, slots=True)
class SpectrumRow:
    """One record of a coupling sweep."""

    g: float
    method: str
    level: int
    branch: str  # "+", "-" or "unassigned"
    parity: str  # "even", "odd" or "n/a"
    energy: float
    spurious: bool = False


@dataclass
class SpectrumTable:
    """Per-(g, method, level) eigenvalue records over a coupling sweep."""

    rows: tuple[SpectrumRow, ...] = ()
    failures: tuple[tuple[float, str, str], ...] = ()


def _gap_ids(values: np.ndarray, tol) -> np.ndarray:
    """Cluster id of each value along the last axis, ascending there: a new
    cluster starts wherever the gap to the previous value exceeds tol."""
    gaps = np.cumsum(np.diff(values, axis=-1) > tol, axis=-1)
    return np.concatenate([np.zeros((*values.shape[:-1], 1), gaps.dtype), gaps], -1)


def eigh(op) -> EigenDecomposition:
    """Full Hermitian eigendecomposition of a matrix, ascending eigenvalues.

    The one check of an operator before it is solved: raises ValueError on a
    non-square input, and on one that differs from its conjugate transpose by
    more than 1e-14*max(max|A|, 1).  Integer input is solved as float64 (see
    ``operators._mat``).  Asserts the residual (against max|lambda|, the
    spectral norm) and orthonormality bounds that every downstream consumer
    relies on.
    """
    h = _mat(op)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"eigh requires a square matrix, got shape {h.shape}")
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > _HERM_RTOL * scale:
        raise ValueError("eigh requires a Hermitian operator")
    values, vectors = np.linalg.eigh(h)
    residual = np.abs(h @ vectors - vectors * values).max()
    norm_h = np.abs(values).max()
    if norm_h > 0 and residual > _RESIDUAL_RTOL * norm_h:
        raise ArithmeticError(f"eigensolver residual {residual:.3e} too large")
    ortho = np.abs(vectors.conj().T @ vectors - np.eye(values.size)).max()
    if ortho > _ORTHO_TOL:
        raise ArithmeticError(f"eigenvectors not orthonormal: {ortho:.3e}")
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


def _certify(values: np.ndarray, diag: np.ndarray, off2: np.ndarray, grid) -> None:
    """Raise ArithmeticError unless, in every block, the k-th eigenvalue lies
    within delta = 1e-10*max|lambda| of ``values[..., k]``: the Sturm count
    below values[k] - delta must be at most k and below values[k] + delta
    above k."""
    delta = _RESIDUAL_RTOL * np.abs(values).max(axis=-1, keepdims=True)
    counts = _sturm_count(diag, off2, np.concatenate([values - delta, values + delta], -1))
    rank = np.arange(values.shape[-1])
    below, upto = np.split(counts, 2, axis=-1)
    bad = (below > rank) | (upto <= rank)
    if bad.any():
        block, i, k = np.argwhere(bad)[0]
        raise ArithmeticError(
            f"Sturm count does not certify eigenvalue {k} of the "
            f"{(PARITY_EVEN, PARITY_ODD)[block]} block at g = {float(grid[i])!r} "
            f"to {delta[block, i, 0]:.3e}"
        )


def exact_spectra(
    omega: float, omega0: float, grid, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of the truncated Hamiltonian at each coupling of
    ``grid``, from the two parity blocks.

    Returns ``(values, odd)``, both of shape (len(grid), 2*(n_max+1)): row i
    holds coupling i's eigenvalues ascending and whether each one belongs
    to the odd block.  The blocks of a run of couplings are solved as one
    stack of eigenvalue problems, without eigenvectors, and certified by a
    Sturm count.  Levels closer than 1e-8*max(1, max|E|) (per coupling) form
    one degenerate group, inside which even labels come before odd ones
    while the energies stay ascending.
    """
    grid = np.asarray(grid, dtype=float)
    even, odd = build_parity_blocks(ModelParams(omega, omega0, 1.0), TruncationConfig(n_max))
    diag = np.stack([even.diag, odd.diag])[:, None, :]
    root_n = even.off  # the off-diagonal at g = 1 is sqrt(n)
    size = n_max + 1
    step = max(1, _EXACT_BLOCK // (2 * size * size))
    idx = np.arange(size)
    blocks = np.empty((2, grid.size, size))
    for lo in range(0, grid.size, step):
        g = grid[lo:lo + step]
        off = g[:, None] * root_n
        h = np.zeros((2, g.size, size, size))
        h[..., idx, idx] = diag
        h[..., idx[1:], idx[:-1]] = off
        h[..., idx[:-1], idx[1:]] = off
        values = np.linalg.eigvalsh(h)
        off2 = np.concatenate([np.zeros((g.size, 1)), off * off], -1)
        _certify(values, diag, off2, g)
        blocks[:, lo:lo + step] = values
    values = np.concatenate([blocks[0], blocks[1]], -1)
    order = np.argsort(values, axis=-1, kind="stable")
    values = np.take_along_axis(values, order, -1)
    is_odd = order >= size
    tol = _DEGENERACY_RTOL * np.maximum(1.0, np.abs(values).max(axis=-1))
    groups = _gap_ids(values, tol[:, None])
    is_odd = np.take_along_axis(is_odd, np.lexsort((is_odd, groups), axis=-1), -1)
    return values, is_odd


def exact_spectrum(
    params: ModelParams, trunc: TruncationConfig
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Every eigenvalue of the truncated Hamiltonian, ascending, with its
    parity label: :func:`exact_spectra` at the one coupling ``params.g``."""
    values, odd = exact_spectra(params.omega, params.omega0, [params.g], trunc.n_max)
    return values[0], tuple(PARITY_ODD if o else PARITY_EVEN for o in odd[0].tolist())


def validate_truncation(params: ModelParams, trunc: TruncationConfig) -> int:
    """Largest L such that the lowest L eigenvalues at n_max and 2*n_max agree.

    Agreement threshold is 1e-8*omega.  L = 0 signals an unusable truncation.
    The boundary pair is never certified (L <= dim - 2): the top two levels
    of any truncation belong to the cut edge even when, as at g = 0, their
    values happen to agree with the doubled run.
    """
    small, _ = exact_spectrum(params, trunc)
    big, _ = exact_spectrum(params, TruncationConfig(n_max=2 * trunc.n_max))
    tol = 1e-8 * params.omega
    count = 0
    for e_small, e_big in zip(small, big):
        if abs(e_small - e_big) > tol:
            break
        count += 1
    return min(count, small.shape[0] - 2)
