"""Degeneracy-aware averaging: clustering, projector, cohomological generator.

Near-degenerate levels are grouped by cluster ids, a plain int array the
shape of the levels.  All spectral bookkeeping happens in the eigenbasis of
the reference operator and is rotated back; within-cluster sub-blocks are
kept verbatim (diagonalizing the effective operator is the job of the
resonant transformations).
"""

from __future__ import annotations

import numpy as np

from .operators import _adjoint, _mat
from .spectrum import EigenDecomposition, _gap_ids, check_rows

__all__ = [
    "cluster_levels",
    "project_average",
    "solve_cohomological",
    "combined_projector",
]


def cluster_levels(values: np.ndarray, tol_deg) -> np.ndarray:
    """Cluster ids of ascending values along the last axis, the shape of
    ``values``: ids[..., i] is the cluster of level i, numbered upward from 0.

    Greedy gap rule: a new cluster starts whenever the gap to the previous
    value exceeds tol_deg (a number, or one per stack row), so in-cluster
    pairwise spreads can reach a few tol_deg while adjacent-cluster boundary
    gaps always exceed it.
    """
    if np.any(np.asarray(tol_deg) <= 0):
        raise ValueError(f"tol_deg must be > 0, got {tol_deg}")
    return _gap_ids(np.asarray(values, dtype=float), np.asarray(tol_deg)[..., None])


def _in_cluster_mask(ids: np.ndarray) -> np.ndarray:
    return ids[..., :, None] == ids[..., None, :]


def project_average(V, decomp: EigenDecomposition, ids: np.ndarray) -> np.ndarray:
    """Averaging projector: keep exactly the in-cluster blocks of V (of each
    matrix of a stack, with its own cluster ids).

    Computed in the reference eigenbasis and rotated back to the original
    basis.  Idempotent; preserves Hermiticity; commutes with the reference up
    to the cluster tolerance.
    """
    v = _mat(V)
    if v.shape[-1] != decomp.dim:
        raise ValueError(f"dimension mismatch: V is {v.shape}, decomp dim {decomp.dim}")
    u = decomp.vectors
    d_eig = _adjoint(u) @ v @ u
    d_eig[~_in_cluster_mask(ids)] = 0.0
    return u @ d_eig @ _adjoint(u)


def solve_cohomological(
    V, decomp: EigenDecomposition, ids: np.ndarray, tol_deg
) -> np.ndarray:
    """Generator W with [H0, W] + V = D: W_ij = -V_ij/(E_i - E_j) off-cluster
    (of each matrix of a stack, with its own cluster ids).

    W is anti-Hermitian with zero blocks inside clusters.  An inter-cluster
    pair closer than tol_deg (a number, or one per stack row) means the
    clustering is inconsistent with the decomposition and is a hard error
    (the denominator would be resonant).
    """
    v = _mat(V)
    if v.shape[-1] != decomp.dim:
        raise ValueError(f"dimension mismatch: V is {v.shape}, decomp dim {decomp.dim}")
    u = decomp.vectors
    energies = decomp.values
    mask = _in_cluster_mask(ids)
    diff = energies[..., :, None] - energies[..., None, :]
    tol = np.broadcast_to(tol_deg, energies.shape[:-1])
    tight = (np.abs(diff) <= tol[..., None, None]) & ~mask

    def inconsistency(r):
        i, j = np.argwhere(tight[r])[0]
        return ValueError(
            "clustering inconsistency: inter-cluster gap "
            f"|E_{i} - E_{j}| = {abs(diff[r][i, j]):.3e} <= tol_deg {tol[r]:.3e}"
        )

    check_rows(tight.any(axis=(-2, -1)), inconsistency)
    diff[mask] = 1.0
    w_eig = _adjoint(u) @ v @ u
    w_eig /= diff
    np.negative(w_eig, out=w_eig)
    w_eig[mask] = 0.0
    return u @ w_eig @ _adjoint(u)


def combined_projector(V, H0_family, tol_deg) -> np.ndarray:
    """Union-of-supports averaging over a family of reference operators.

    A union of block supports is only basis-independent when every member is
    diagonal in one common basis, so each member is given in the working
    basis as its real diagonal: a 1-D array of length dim (the family may
    be one (members, dim) array), clustered by the gap rule with tolerance
    tol_deg.  Keeps every matrix position that is in-cluster for at least
    one member, each retained entry taken directly
    from V (duplicate positions kept once); a stack of matrices V shares
    the one mask.
    """
    v = _mat(V)
    diags = [np.asarray(member, dtype=float) for member in H0_family]
    if not diags:
        raise ValueError("H0_family must not be empty")
    for diag in diags:
        if diag.shape != v.shape[-1:]:
            raise ValueError(f"dimension mismatch: member {diag.shape}, V {v.shape}")
    diags = np.array(diags)
    # cluster ids over basis indices, per member: the gap rule on its sorted diagonal
    order = np.argsort(diags, axis=-1, kind="stable")
    sorted_ids = _gap_ids(np.take_along_axis(diags, order, -1), np.asarray(tol_deg)[..., None])
    ids = np.empty_like(order)
    np.put_along_axis(ids, order, sorted_ids, -1)
    mask = (ids[:, :, None] == ids[:, None, :]).any(axis=0)
    return np.where(mask, v, 0.0)
