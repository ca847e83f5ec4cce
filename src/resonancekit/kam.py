"""Contact-transformation steps: conjugate by exp(W), monitor contraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import (
    DEFAULT_TOL_DEG,
    cluster_degeneracies,
    project_average,
    solve_cohomological,
)
from .operators import TruncatedOperator, _mat
from .spectrum import EigenDecomposition, eigh

__all__ = [
    "KamStepReport",
    "KamChain",
    "unitary_exp",
    "kam_step",
    "kam_iterate",
    "kam_iterate_full",
    "conjugate_by_series",
]

W_NORM_DIVERGENCE = 10.0


@dataclass(frozen=True)
class KamStepReport:
    """Contraction bookkeeping for a single contact-transformation step."""

    step: int
    residual_before: float
    residual_after: float
    contraction_ratio: float
    diverged: bool
    epsilon: float
    w_norm: float


@dataclass(frozen=True)
class KamChain:
    """Full output of an iterated KAM run.

    estimate: diagonal of the conjugated operator in the eigenbasis of the
    final renormalized reference, ordered by ascending reference energy.
    vectors: those eigenbasis columns expressed in the starting basis.
    """

    estimate: np.ndarray
    reports: tuple[KamStepReport, ...]
    reference: np.ndarray
    operator: np.ndarray
    vectors: np.ndarray
    diverged: bool


def unitary_exp(W) -> np.ndarray:
    """exp(W) for anti-Hermitian W, exactly unitary via eigenphases of iW."""
    w = _mat(W)
    scale = max(np.abs(w).max(), 1.0)
    if np.abs(w + w.conj().T).max() > 1e-10 * scale:
        raise ValueError("unitary_exp requires an anti-Hermitian generator")
    herm = 1j * w
    herm = 0.5 * (herm + herm.conj().T)
    phases, vecs = np.linalg.eigh(herm)
    u = (vecs * np.exp(-1j * phases)) @ vecs.conj().T
    defect = np.abs(u.conj().T @ u - np.eye(w.shape[0])).max()
    if defect > 1e-12:
        raise ArithmeticError(f"unitary defect {defect:.3e}")
    return u


def _offblock_residual(V, decomp, clusters) -> float:
    v = _mat(V)
    return float(np.linalg.norm(v - project_average(v, decomp, clusters), 2))


def kam_step(
    H0,
    V,
    decomp: EigenDecomposition,
    clusters,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, KamStepReport]:
    """One contact transformation: (H0 + V) -> exp(-W)(H0 + V)exp(W).

    Returns (H_new, D, V_new, U, report) with D the averaged part of V,
    V_new = H_new - H0 - D the new perturbation, of quadratic order away from
    resonances, and U = exp(W) the unitary of the step.  Conjugation is a
    numerically exact triple product with the spectrally built unitary, not a
    truncated series.  Divergence (residual growth, or ||W|| beyond the
    blow-up threshold) is reported, not raised.
    """
    h0 = _mat(H0)
    v = _mat(V)
    w = solve_cohomological(v, decomp, clusters)
    w_norm = float(np.linalg.norm(w, 2))
    u = unitary_exp(w)
    h_new = u.conj().T @ (h0 + v) @ u
    h_new = 0.5 * (h_new + h_new.conj().T)
    d = project_average(v, decomp, clusters)
    v_new = h_new - h0 - d
    before = _offblock_residual(v, decomp, clusters)

    ref_new = 0.5 * ((h0 + d) + (h0 + d).conj().T)
    decomp_new = eigh(TruncatedOperator(entries=ref_new, hermitian=True))
    clusters_new = cluster_degeneracies(decomp_new, clusters.tol_deg)
    after = _offblock_residual(v_new, decomp_new, clusters_new)

    h0_scale = max(float(np.linalg.norm(h0, 2)), np.finfo(float).tiny)
    ratio = after / before if before > 0 else 0.0
    report = KamStepReport(
        step=0,
        residual_before=before,
        residual_after=after,
        contraction_ratio=ratio,
        diverged=(after > before) or (w_norm > W_NORM_DIVERGENCE),
        epsilon=before / h0_scale,
        w_norm=w_norm,
    )
    return h_new, d, v_new, u, report


def kam_iterate_full(
    H0,
    V,
    max_steps: int,
    stop_tol: float = 1e-12,
    tol_deg: float | None = None,
) -> KamChain:
    """Iterate kam_step, re-clustering on the updated reference each time.

    Stops when the off-block residual drops to stop_tol*||H0|| (possibly
    before the first step) or when a step diverges.  The reported estimate is
    the diagonal of the conjugated operator in the final reference eigenbasis
    — essentially second-order perturbation theory after one step.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    h0 = _mat(H0).copy()
    v = _mat(V).copy()
    dim = h0.shape[0]
    u_total = np.eye(dim, dtype=complex)
    reports: list[KamStepReport] = []
    diverged = False
    if tol_deg is None:
        tol_deg = DEFAULT_TOL_DEG * max(np.abs(h0).max(), 1.0)

    for step in range(1, max_steps + 1):
        decomp = eigh(TruncatedOperator(entries=h0, hermitian=True))
        clusters = cluster_degeneracies(decomp, tol_deg)
        residual = _offblock_residual(v, decomp, clusters)
        if residual <= stop_tol * max(float(np.linalg.norm(h0, 2)), np.finfo(float).tiny):
            break
        _, d, v_new, u, report = kam_step(h0, v, decomp, clusters)
        reports.append(KamStepReport(**{**report.__dict__, "step": step}))
        u_total = u_total @ u
        h0 = h0 + d
        h0 = 0.5 * (h0 + h0.conj().T)
        v = v_new
        if report.diverged:
            diverged = True
            break

    ref_decomp = eigh(TruncatedOperator(entries=h0, hermitian=True))
    basis = ref_decomp.vectors
    operator = h0 + v
    estimate = np.real(np.diag(basis.conj().T @ operator @ basis))
    return KamChain(
        estimate=estimate,
        reports=tuple(reports),
        reference=h0,
        operator=operator,
        vectors=u_total @ basis,
        diverged=diverged,
    )


def kam_iterate(
    H0,
    V,
    max_steps: int,
    stop_tol: float = 1e-12,
    tol_deg: float | None = None,
) -> tuple[np.ndarray, tuple[KamStepReport, ...]]:
    """Diagonal spectrum estimate plus per-step reports (see kam_iterate_full)."""
    chain = kam_iterate_full(H0, V, max_steps, stop_tol, tol_deg)
    return chain.estimate, chain.reports


def conjugate_by_series(H, W, m_max: int = 12) -> np.ndarray:
    """Series form of exp(-W) H exp(W), commutator expansion cut at order m_max.

    Cross-check mode only: the iteration itself always conjugates exactly.
    Accurate to roughly ||W||^(m_max+1)/(m_max+1)! relative.
    """
    h = _mat(H)
    w = _mat(W)
    term = h.copy()
    acc = h.copy()
    for m in range(1, m_max + 1):
        term = (term @ w - w @ term) / m
        acc = acc + term
    return acc
