"""Contact-transformation steps: conjugate by exp(W), monitor contraction."""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .averaging import (
    DEFAULT_TOL_DEG,
    DegeneracyClusters,
    cluster_levels,
    project_average,
    solve_cohomological,
)
from .operators import _adjoint, _mat, _symmetrized
from .spectrum import CouplingErrors, EigenDecomposition, check_rows, eigh

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
    """Contraction bookkeeping for a single contact-transformation step; a
    step on a stack of matrices reports one value per matrix in each field."""

    step: int
    residual_before: float
    residual_after: float
    contraction_ratio: float
    diverged: bool
    epsilon: float
    w_norm: float


@dataclass(frozen=True)
class KamChain:
    """Full output of an iterated KAM run, on one matrix or on each matrix
    of a stack (leading axis).

    estimate: diagonal of the conjugated operator in the eigenbasis of the
    final renormalized reference, ordered by ascending reference energy.
    vectors: those eigenbasis columns expressed in the starting basis.
    reports, diverged: the steps taken and whether one diverged; for a
    stack, a tuple of reports and a flag per matrix.
    """

    estimate: np.ndarray
    reports: tuple
    operator: np.ndarray
    vectors: np.ndarray
    diverged: bool | np.ndarray


def unitary_exp(W) -> np.ndarray:
    """exp(W) for anti-Hermitian W (or each matrix of a stack), exactly
    unitary via eigenphases of iW; real orthogonal for a real
    (antisymmetric) W."""
    w = _mat(W)
    scale = np.maximum(np.abs(w).max(axis=(-2, -1)), 1.0)
    check_rows(np.abs(w + _adjoint(w)).max(axis=(-2, -1)) > 1e-10 * scale,
               lambda i: ValueError("unitary_exp requires an anti-Hermitian generator"))
    phases, vecs = np.linalg.eigh(_symmetrized(1j * w))
    rotated = vecs * np.exp(-1j * phases)[..., None, :]
    u = rotated @ np.conj(vecs, out=vecs).swapaxes(-1, -2)
    u = u if np.iscomplexobj(w) else u.real.copy()
    defect = np.abs(_adjoint(u) @ u - np.eye(w.shape[-1])).max(axis=(-2, -1))
    check_rows(defect > 1e-12, lambda i: ArithmeticError(f"unitary defect {defect[i]:.3e}"))
    return u


def _spectral_norm(h: np.ndarray) -> np.ndarray:
    """Spectral norm of a Hermitian matrix (of each of a stack), its largest
    |eigenvalue|."""
    return np.abs(np.linalg.eigvalsh(h)).max(axis=-1)


def _offblock_residual(V, decomp, clusters) -> np.ndarray:
    v = _mat(V)
    return _spectral_norm(v - project_average(v, decomp, clusters))


def kam_step(
    H0,
    V,
    decomp: EigenDecomposition,
    clusters: DegeneracyClusters,
    residual=None,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    EigenDecomposition, DegeneracyClusters, KamStepReport,
]:
    """One contact transformation: (H0 + V) -> exp(-W)(H0 + V)exp(W), of one
    matrix or of each matrix of a stack.

    Returns (H_new, D, V_new, U, decomp_new, clusters_new, report) with D the
    averaged part of V, V_new = H_new - H0 - D the new perturbation, of
    quadratic order away from resonances, U = exp(W) the unitary of the step,
    and decomp_new, clusters_new the decomposition and clusters of the new
    reference H0 + D that the report's residual_after is measured in.
    ``residual`` is V's off-block residual in ``decomp`` and ``clusters``
    when the caller already holds it (computed here otherwise).
    Conjugation is a numerically exact triple product with the spectrally
    built unitary, not a truncated series.  Divergence (residual growth, or
    ||W|| beyond the blow-up threshold) is reported, not raised.
    """
    h0 = _mat(H0)
    v = _mat(V)
    w = solve_cohomological(v, decomp, clusters)
    w_norm = _spectral_norm(1j * w)
    u = unitary_exp(w)
    h_new = _symmetrized(_adjoint(u) @ (h0 + v) @ u)
    d = project_average(v, decomp, clusters)
    v_new = h_new - h0 - d
    before = _offblock_residual(v, decomp, clusters) if residual is None else residual

    decomp_new = eigh(_symmetrized(h0 + d))
    clusters_new = cluster_levels(decomp_new.values, clusters.tol_deg)
    after = _offblock_residual(v_new, decomp_new, clusters_new)

    # H0 is Hermitian, so its spectral norm is its largest |eigenvalue|
    h0_scale = np.maximum(np.abs(decomp.values).max(axis=-1), np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(before > 0, after / before, 0.0)
    report = KamStepReport(
        step=0,
        residual_before=before[()],
        residual_after=after[()],
        contraction_ratio=ratio[()],
        diverged=((after > before) | (w_norm > W_NORM_DIVERGENCE))[()],
        epsilon=(before / h0_scale)[()],
        w_norm=w_norm[()],
    )
    return h_new, d, v_new, u, decomp_new, clusters_new, report


def kam_iterate_full(
    H0,
    V,
    max_steps: int,
    stop_tol: float = 1e-12,
    tol_deg: float | None = None,
) -> KamChain:
    """Iterate kam_step, re-clustering on the updated reference each time,
    on one matrix or on each matrix of a stack.

    A matrix stops when its off-block residual drops to stop_tol*||H0||
    (possibly before the first step) or when a step diverges; the others go
    on.  The reported estimate is the diagonal of the conjugated operator in
    the final reference eigenbasis — essentially second-order perturbation
    theory after one step.  tol_deg defaults to DEFAULT_TOL_DEG*max(max|H0|, 1)
    per matrix.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    single = np.ndim(H0) == 2  # one matrix runs as a stack of one
    h0, v = (_mat(x).reshape(-1, *np.shape(x)[-2:]) for x in (H0, V))
    count = h0.shape[0]
    if tol_deg is None:
        tol_deg = DEFAULT_TOL_DEG * np.maximum(np.abs(h0).max(axis=(-2, -1)), 1.0)
    tol_deg = np.broadcast_to(np.asarray(tol_deg, dtype=float), (count,))
    u_total = np.broadcast_to(np.eye(h0.shape[-1], dtype=np.result_type(h0, v)), h0.shape)
    reports: list[list[KamStepReport]] = [[] for _ in range(count)]
    diverged = np.zeros(count, dtype=bool)
    try:
        decomp = eigh(h0)
        clusters = cluster_levels(decomp.values, tol_deg)
        residual = _offblock_residual(v, decomp, clusters)
        values, vectors, ids = decomp.values, decomp.vectors, clusters.ids
        del decomp, clusters
        for step in range(1, max_steps + 1):
            # values, vectors and ids decompose and cluster the current h0
            h0_norm = np.maximum(np.abs(values).max(axis=-1), np.finfo(float).tiny)
            rows = np.flatnonzero(~diverged & ~(residual <= stop_tol * h0_norm))
            if rows.size == 0:
                break
            # a view, not a copy, when the rows that step are one run
            live = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] < rows.size else rows
            try:
                d, v_new, u, decomp_new, clusters_new, report = kam_step(
                    h0[live], v[live], EigenDecomposition(values[live], vectors[live]),
                    DegeneracyClusters(values[live], ids[live], tol_deg[live]), residual[rows],
                )[1:]
            except CouplingErrors as exc:
                raise CouplingErrors({int(rows[i]): e for i, e in exc.errors.items()}) from None
            fields = [np.asarray(f).tolist() for f in astuple(report)[1:]]
            for j, row in enumerate(rows.tolist()):
                reports[row].append(KamStepReport(step, *(f[j] for f in fields)))
            v = _assign(v, rows, v_new)
            # u_total is the identity before the first step
            u_total = _assign(u_total, rows, u if step == 1 else u_total[live] @ u)
            h0 = _assign(h0, rows, _symmetrized(h0[live] + d))
            vectors = _assign(vectors, rows, decomp_new.vectors)
            values[rows], ids[rows] = decomp_new.values, clusters_new.ids
            residual[rows] = report.residual_after
            diverged[rows] |= report.diverged
    except CouplingErrors as exc:
        raise exc.errors[0] if single else exc from None
    operator = h0 + v
    estimate = np.diagonal(_adjoint(vectors) @ operator @ vectors, axis1=-2, axis2=-1).real.copy()
    if single:
        return KamChain(estimate[0], tuple(reports[0]), operator[0], (u_total @ vectors)[0],
                        bool(diverged[0]))
    return KamChain(estimate, tuple(map(tuple, reports)), operator, u_total @ vectors, diverged)


def _assign(target: np.ndarray, rows, value: np.ndarray) -> np.ndarray:
    """``target`` with ``target[rows] = value``, complex when the value is (a
    real reference meeting a complex perturbation): ``value`` itself when it
    replaces every row, a copy of ``target`` otherwise."""
    dtype = np.result_type(target, value)
    if value.shape == target.shape and value.dtype == dtype:
        return value
    target = target.astype(dtype)
    target[rows] = value
    return target
