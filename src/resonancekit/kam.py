"""Contact-transformation steps: conjugate by exp(W), monitor contraction.

Every step runs on a (G, n) stack of reference levels and a (G, n, n) stack
of perturbations in the reference eigenbasis, and its bookkeeping is one
:class:`KamStepReport` of (G,) arrays, one value per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .averaging import _ascending, cluster_levels, project_average, solve_cohomological
from .operators import _adjoint, _mat, _symmetrized
from .spectrum import CouplingErrors, check_rows, eigh

__all__ = [
    "KamStepReport",
    "KamChain",
    "kam_step",
    "kam_iterate_full",
]

W_NORM_DIVERGENCE = 10.0


@dataclass(frozen=True, eq=False)
class KamStepReport:
    """Contraction bookkeeping for a single contact-transformation step: each
    field a (G,) array, one value per matrix of the stack."""

    residual_before: np.ndarray
    residual_after: np.ndarray
    contraction_ratio: np.ndarray
    diverged: np.ndarray
    epsilon: np.ndarray
    w_norm: np.ndarray


@dataclass(frozen=True)
class KamChain:
    """Full output of an iterated KAM run on each matrix of a stack (leading
    axis).

    estimate: the final renormalized reference levels plus the diagonal of
    the final perturbation, ordered by ascending reference level.
    vectors: the final reference eigenbasis columns expressed in the
    starting basis, rows in the caller's order of the starting levels.
    reports: one KamStepReport per step that any matrix took, in step order;
    a matrix that had already stopped reads NaN there, and False in
    ``diverged``.
    diverged, steps: per matrix, whether a step diverged and how many steps
    it took.
    """

    estimate: np.ndarray
    reports: tuple[KamStepReport, ...]
    vectors: np.ndarray
    diverged: np.ndarray
    steps: np.ndarray


def _exp_and_norm(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(w) and the spectral norm ||w||, its largest |eigenphase|, of each
    real antisymmetric matrix of a (G, n, n) stack; exp(w) is exactly
    orthogonal, built from the eigenphases of iw."""
    if w.ndim != 3 or w.shape[-1] != w.shape[-2]:
        raise ValueError(f"exp(W) requires a (G, n, n) stack, got shape {w.shape}")
    scale = np.maximum(np.abs(w).max(axis=(-2, -1)), 1.0)
    check_rows(np.abs(w + _adjoint(w)).max(axis=(-2, -1)) > 1e-10 * scale,
               lambda i: ValueError("exp(W) requires an anti-Hermitian generator"))
    iw = 1j * w  # Hermitian: symmetrized with its conjugate transpose
    phases, vecs = np.linalg.eigh(0.5 * (iw + iw.conj().swapaxes(-1, -2)))
    rotated = vecs * np.exp(-1j * phases)[..., None, :]
    u = (rotated @ np.conj(vecs, out=vecs).swapaxes(-1, -2)).real.copy()
    defect = np.abs(_adjoint(u) @ u - np.eye(w.shape[-1])).max(axis=(-2, -1))
    check_rows(defect > 1e-12, lambda i: ArithmeticError(f"unitary defect {defect[i]:.3e}"))
    return u, np.abs(phases).max(axis=-1)


def _offblock_residual(v: np.ndarray, ids) -> np.ndarray:
    """Spectral norm (largest |eigenvalue|) of the off-block part of each v."""
    return np.abs(np.linalg.eigvalsh(v - project_average(v, ids))).max(axis=-1)


def _add_levels(m: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Add diag(levels) to each matrix of the stack m, in place; returns m."""
    span = np.arange(levels.shape[-1])
    m[..., span, span] += levels
    return m


def kam_step(
    levels, V, ids: np.ndarray, tol_deg, residual=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, KamStepReport]:
    """One contact transformation: (H0 + V) -> U^H (H0 + V) U, of each matrix
    of a (G, n, n) stack, with H0 = diag(levels) for ascending ``levels``
    (G, n) and V given in that eigenbasis.

    ``ids`` are the cluster ids of the levels under the gap tolerance
    tol_deg (a number, or one per matrix), as cluster_levels gives them.
    Returns (levels_new, V_new, U, ids_new, report): U = exp(W) Q, with W
    the generator of the cohomological equation and Q the eigenvectors of
    the new reference diag(levels) + D (D the averaged part of V), whose
    ascending eigenvalues are levels_new and cluster ids ids_new; V_new =
    U^H (H0 + V) U - diag(levels_new) is the new perturbation in that
    eigenbasis, of quadratic order away from resonances, and the report's
    residual_after is measured in it.  ``residual`` is V's off-block
    residual under ``ids`` when the caller already holds it (computed here
    otherwise).  Levels that descend anywhere raise ValueError.
    Conjugation is a numerically exact triple product with the spectrally
    built unitary, not a truncated series.  Divergence (residual growth, or
    ||W|| beyond the blow-up threshold) is reported, not raised.
    """
    levels, v = _ascending(levels), _mat(V)
    e, w_norm = _exp_and_norm(solve_cohomological(v, levels, ids, tol_deg))
    d = project_average(v, ids)
    before = _offblock_residual(v, ids) if residual is None else residual

    reference = eigh(_add_levels(_symmetrized(d), levels))
    levels_new = reference.values
    u = e @ reference.vectors
    v_new = _add_levels(_symmetrized(_adjoint(u) @ _add_levels(v.copy(), levels) @ u), -levels_new)
    ids_new = cluster_levels(levels_new, tol_deg)
    after = _offblock_residual(v_new, ids_new)

    # H0 is diagonal, so its spectral norm is its largest |level|
    h0_scale = np.maximum(np.abs(levels).max(axis=-1), np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(before > 0, after / before, 0.0)
    report = KamStepReport(
        residual_before=before,
        residual_after=after,
        contraction_ratio=ratio,
        diverged=(after > before) | (w_norm > W_NORM_DIVERGENCE),
        epsilon=before / h0_scale,
        w_norm=w_norm,
    )
    return levels_new, v_new, u, ids_new, report


def kam_iterate_full(levels, V, max_steps: int, tol_deg, stop_tol: float = 1e-12) -> KamChain:
    """Iterate kam_step, re-clustering on the updated reference each time
    (gap tolerance tol_deg, a number or one per matrix), on each matrix of a
    (G, n, n) stack V given in the eigenbasis of the reference diag(levels),
    ``levels`` (G, n) in any order; one matrix is a stack of one.

    The levels are sorted once, stably, and V with them.  A matrix stops
    when its off-block residual drops to stop_tol*||H0|| (possibly before
    the first step) or when a step diverges; the others go on.  The reported
    estimate is the final levels plus the diagonal of the final perturbation
    — essentially second-order perturbation theory after one step.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    levels, v = np.asarray(levels, dtype=float), _mat(V)
    if levels.ndim != 2 or v.shape != levels.shape + levels.shape[-1:]:
        raise ValueError("kam_iterate_full requires (G, n) levels and a (G, n, n) stack "
                         f"to match, got shapes {levels.shape} and {v.shape}")
    count = levels.shape[0]
    tol_deg = np.broadcast_to(np.asarray(tol_deg, dtype=float), (count,))
    each = np.arange(count)[:, None]
    order = np.argsort(levels, axis=-1, kind="stable")
    levels, v = levels[each, order], v[each[:, :, None], order[:, :, None], order[:, None, :]]
    u_total = np.broadcast_to(np.eye(v.shape[-1]), v.shape)
    reports = []
    steps = np.zeros(count, dtype=int)
    diverged = np.zeros(count, dtype=bool)
    ids = cluster_levels(levels, tol_deg)
    residual = _offblock_residual(v, ids)
    for step in range(max_steps):
        h0_norm = np.maximum(np.abs(levels).max(axis=-1), np.finfo(float).tiny)
        rows = np.flatnonzero(~diverged & ~(residual <= stop_tol * h0_norm))
        if rows.size == 0:
            break
        # a view, not a copy, when the rows that step are one run
        live = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] < rows.size else rows
        try:
            levels_new, v_new, u, ids_new, report = kam_step(
                levels[live], v[live], ids[live], tol_deg[live], residual[rows]
            )
        except CouplingErrors as exc:
            raise CouplingErrors({int(rows[i]): e for i, e in exc.errors.items()}) from None
        reports.append(_spread(report, rows, count))
        steps[rows] += 1
        v = _assign(v, rows, v_new)
        # u_total is the identity before the first step
        u_total = _assign(u_total, rows, u if step == 0 else u_total[live] @ u)
        levels[rows], ids[rows] = levels_new, ids_new
        residual[rows] = report.residual_after
        diverged[rows] |= report.diverged
    estimate = levels + np.diagonal(v, axis1=-2, axis2=-1)
    vectors = np.empty(u_total.shape)
    vectors[each, order] = u_total  # rows back in the caller's order
    return KamChain(estimate, tuple(reports), vectors, diverged, steps)


def _spread(report: KamStepReport, rows: np.ndarray, count: int) -> KamStepReport:
    """The report of a step taken by the matrices ``rows`` of a stack of
    ``count``, spread over the whole stack: NaN, or False in ``diverged``,
    at the other matrices."""

    def spread(value: np.ndarray) -> np.ndarray:
        full = np.full(count, False if value.dtype == bool else np.nan, value.dtype)
        full[rows] = value
        return full

    return KamStepReport(**{name: spread(value) for name, value in vars(report).items()})


def _assign(target: np.ndarray, rows, value: np.ndarray) -> np.ndarray:
    """``target`` with ``target[rows] = value``: ``value`` itself when it
    replaces every row, a copy of ``target`` otherwise."""
    if value.shape == target.shape:
        return value
    target = target.copy()
    target[rows] = value
    return target
