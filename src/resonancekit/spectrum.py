"""Exact oracle from the two parity blocks of H (sweeps, truncation checks)
and the checked dense Hermitian eigensolver the matrix chains use."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .operators import (
    ModelParams,
    ParityBlock,
    TruncationConfig,
    TruncatedOperator,
    build_parity_blocks,
)

__all__ = [
    "EigenDecomposition",
    "SpectrumRow",
    "SpectrumTable",
    "eigh",
    "eigh_block",
    "exact_spectrum",
    "sweep_exact",
    "validate_truncation",
]

log = logging.getLogger(__name__)

PARITY_EVEN = "even"
PARITY_ODD = "odd"
PARITY_NA = "n/a"
PARITY_UNCLASSIFIED = "unclassified"

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

    rows: list[SpectrumRow] = field(default_factory=list)
    failures: list[tuple[float, str, str]] = field(default_factory=list)

    def energies(self, g: float, method: str) -> np.ndarray:
        sel = [r.energy for r in self.rows if r.g == g and r.method == method]
        return np.array(sel)

    def select(self, method: str) -> list[SpectrumRow]:
        return [r for r in self.rows if r.method == method]

    def g_values(self) -> list[float]:
        seen: dict[float, None] = {}
        for r in self.rows:
            seen.setdefault(r.g, None)
        return list(seen)


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


def eigh(op: TruncatedOperator) -> EigenDecomposition:
    """Full Hermitian eigendecomposition with ascending eigenvalues.

    Raises on non-Hermitian input; asserts the residual and orthonormality
    bounds that every downstream consumer relies on.
    """
    h = op.entries
    scale = max(np.abs(h).max(), 1.0)
    if np.abs(h - h.conj().T).max() > 1e-12 * scale:
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


def sweep_exact(
    params: ModelParams,
    g_values,
    trunc: TruncationConfig,
    n_levels: int,
) -> SpectrumTable:
    """Exact spectrum over a strictly increasing g grid.

    One row per (g, level) for the lowest n_levels levels, parity-labeled and
    in ascending energy order.  Per-point eigensolver failures are logged and
    recorded in ``table.failures``; the sweep continues.
    """
    g_values = [float(g) for g in g_values]
    if any(b <= a for a, b in zip(g_values, g_values[1:])):
        raise ValueError("g grid must be strictly increasing")
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    table = SpectrumTable()
    for g in g_values:
        try:
            values, parity = exact_spectrum(replace(params, g=g), trunc)
        except Exception as exc:  # point marked failed, sweep continues
            log.warning("exact sweep failed at g=%.6g: %s", g, exc)
            table.failures.append((g, "exact", str(exc)))
            continue
        for level in range(n_levels):
            table.rows.append(
                SpectrumRow(
                    g=g,
                    method="exact",
                    level=level,
                    branch="unassigned",
                    parity=parity[level],
                    energy=float(values[level]),
                )
            )
    return table


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
