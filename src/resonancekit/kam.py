"""Contact-transformation steps: conjugate by exp(W), monitor contraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import (
    DEFAULT_TOL_DEG,
    DegeneracyClusters,
    cluster_levels,
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
    "kam_iterate_full",
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
    """exp(W) for anti-Hermitian W, exactly unitary via eigenphases of iW;
    real orthogonal for a real (antisymmetric) W."""
    w = _mat(W)
    scale = max(np.abs(w).max(), 1.0)
    if np.abs(w + w.conj().T).max() > 1e-10 * scale:
        raise ValueError("unitary_exp requires an anti-Hermitian generator")
    herm = 1j * w
    herm = 0.5 * (herm + herm.conj().T)
    phases, vecs = np.linalg.eigh(herm)
    u = (vecs * np.exp(-1j * phases)) @ vecs.conj().T
    u = u if np.iscomplexobj(w) else u.real.copy()
    defect = np.abs(u.conj().T @ u - np.eye(w.shape[0])).max()
    if defect > 1e-12:
        raise ArithmeticError(f"unitary defect {defect:.3e}")
    return u


def _spectral_norm(h: np.ndarray) -> float:
    """Spectral norm of a Hermitian matrix, its largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(h)).max())


def _offblock_residual(V, decomp, clusters) -> float:
    v = _mat(V)
    return _spectral_norm(v - project_average(v, decomp, clusters))


def kam_step(
    H0,
    V,
    decomp: EigenDecomposition,
    clusters,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    EigenDecomposition, DegeneracyClusters, KamStepReport,
]:
    """One contact transformation: (H0 + V) -> exp(-W)(H0 + V)exp(W).

    Returns (H_new, D, V_new, U, decomp_new, clusters_new, report) with D the
    averaged part of V, V_new = H_new - H0 - D the new perturbation, of
    quadratic order away from resonances, U = exp(W) the unitary of the step,
    and decomp_new, clusters_new the decomposition and clusters of the new
    reference H0 + D that the report's residual_after is measured in.
    Conjugation is a numerically exact triple product with the spectrally
    built unitary, not a truncated series.  Divergence (residual growth, or
    ||W|| beyond the blow-up threshold) is reported, not raised.
    """
    h0 = _mat(H0)
    v = _mat(V)
    w = solve_cohomological(v, decomp, clusters)
    w_norm = _spectral_norm(1j * w)
    u = unitary_exp(w)
    h_new = u.conj().T @ (h0 + v) @ u
    h_new = 0.5 * (h_new + h_new.conj().T)
    d = project_average(v, decomp, clusters)
    v_new = h_new - h0 - d
    before = _offblock_residual(v, decomp, clusters)

    ref_new = 0.5 * ((h0 + d) + (h0 + d).conj().T)
    decomp_new = eigh(TruncatedOperator(entries=ref_new, hermitian=True))
    clusters_new = cluster_levels(decomp_new.values, clusters.tol_deg)
    after = _offblock_residual(v_new, decomp_new, clusters_new)

    h0_scale = max(_spectral_norm(h0), np.finfo(float).tiny)
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
    return h_new, d, v_new, u, decomp_new, clusters_new, report


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
    u_total = np.eye(dim, dtype=np.result_type(h0, v))
    reports: list[KamStepReport] = []
    diverged = False
    if tol_deg is None:
        tol_deg = DEFAULT_TOL_DEG * max(np.abs(h0).max(), 1.0)

    decomp = eigh(TruncatedOperator(entries=h0, hermitian=True))
    clusters = cluster_levels(decomp.values, tol_deg)
    residual = _offblock_residual(v, decomp, clusters)
    for step in range(1, max_steps + 1):
        # decomp is the eigendecomposition of the current h0
        h0_norm = float(np.abs(decomp.values).max())
        if residual <= stop_tol * max(h0_norm, np.finfo(float).tiny):
            break
        # decomp, clusters and residual_after belong to the updated h0 below
        _, d, v, u, decomp, clusters, report = kam_step(h0, v, decomp, clusters)
        reports.append(KamStepReport(**{**report.__dict__, "step": step}))
        residual = report.residual_after
        u_total = u_total @ u
        h0 = h0 + d
        h0 = 0.5 * (h0 + h0.conj().T)
        if report.diverged:
            diverged = True
            break

    basis = decomp.vectors
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
