"""Exact oracle from the two parity blocks of H (truncation checks), the
checked dense Hermitian eigensolver the matrix chains use, and the row and
table records of a coupling sweep.  Sweeps themselves, the exact oracle's
included, run through ``sweep.run_sweep``, which enforces the guard band."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import (
    ModelParams,
    ParityBlock,
    TruncationConfig,
    _mat,
    build_parity_blocks,
)

__all__ = [
    "EigenDecomposition",
    "SpectrumRow",
    "SpectrumTable",
    "eigh",
    "eigh_block",
    "exact_spectrum",
    "validate_truncation",
]

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_NA = "n/a"
PARITY_UNCLASSIFIED = "unclassified"

# Hermiticity bound of eigh's input, as a fraction of max(max|A|, 1).
_HERM_RTOL = 1e-14
_RESIDUAL_RTOL = 1e-10
_ORTHO_TOL = 1e-12
# Width of a degenerate group, as a fraction of max(1, max|E|).
_DEGENERACY_RTOL = 1e-8


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


def _gap_ids(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster id of each ascending value: a new cluster starts wherever the
    gap to the previous value exceeds tol."""
    return np.concatenate([[0], np.cumsum(np.diff(values) > tol)])


def _checked_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a Hermitian matrix, residual (against max|lambda|, the
    spectral norm) and orthonormality asserted."""
    values, vectors = np.linalg.eigh(h)
    residual = np.abs(h @ vectors - vectors * values).max()
    norm_h = np.abs(values).max()
    if norm_h > 0 and residual > _RESIDUAL_RTOL * norm_h:
        raise ArithmeticError(f"eigensolver residual {residual:.3e} too large")
    ortho = np.abs(vectors.conj().T @ vectors - np.eye(values.size)).max()
    if ortho > _ORTHO_TOL:
        raise ArithmeticError(f"eigenvectors not orthonormal: {ortho:.3e}")
    return values, vectors


def eigh(op) -> EigenDecomposition:
    """Full Hermitian eigendecomposition of a matrix, ascending eigenvalues.

    The one check of an operator before it is solved: raises ValueError on a
    non-square input, and on one that differs from its conjugate transpose by
    more than 1e-14*max(max|A|, 1).  Integer input is solved as float64 (see
    ``operators._mat``).  Asserts the residual and orthonormality bounds that
    every downstream consumer relies on.
    """
    h = _mat(op)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"eigh requires a square matrix, got shape {h.shape}")
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > _HERM_RTOL * scale:
        raise ValueError("eigh requires a Hermitian operator")
    values, vectors = _checked_eigh(h)
    return EigenDecomposition(values=values, vectors=vectors)


def eigh_block(block: ParityBlock) -> EigenDecomposition:
    """Checked eigendecomposition of one parity block, eigenvectors in the
    block's own basis (row j is the state at ``block.indices[j]``)."""
    h = np.diag(block.diag) + np.diag(block.off, 1) + np.diag(block.off, -1)
    values, vectors = _checked_eigh(h)
    return EigenDecomposition(values=values, vectors=vectors)


def exact_spectrum(
    params: ModelParams, trunc: TruncationConfig
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Every eigenvalue of the truncated Hamiltonian, ascending, with its
    parity label, from the two parity blocks.

    Labels hold by construction.  Levels closer than 1e-8*max(1, max|E|) form
    one degenerate group, inside which even labels come before odd ones while
    the energies stay ascending.
    """
    even, odd = (eigh_block(b).values for b in build_parity_blocks(params, trunc))
    values = np.concatenate([even, odd])
    order = np.argsort(values, kind="stable")
    values = values[order]
    is_odd = (np.arange(values.size) >= even.size)[order]
    tol = _DEGENERACY_RTOL * max(1.0, np.abs(values).max())
    is_odd = is_odd[np.lexsort((is_odd, _gap_ids(values, tol)))]
    return values, tuple(PARITY_ODD if o else PARITY_EVEN for o in is_odd)


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
