"""Degeneracy-aware averaging: clustering, projector, cohomological generator.

Near-degenerate levels are grouped by cluster ids, a plain int array the
shape of the levels.  The reference is diagonal, so it is held as its level
vector and V is given in its eigenbasis: averaging keeps the in-cluster
entries of V and the generator divides the others by the level gaps.
Within-cluster sub-blocks are kept verbatim (diagonalizing the effective
operator is the job of the resonant transformations).
"""

from __future__ import annotations

import numpy as np

from .operators import _mat
from .spectrum import _gap_ids, check_rows

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
    value exceeds tol_deg (a finite number > 0, or one per stack row), so
    in-cluster pairwise spreads can reach a few tol_deg while adjacent-cluster
    boundary gaps always exceed it.  Values that descend anywhere are refused
    (ValueError): a negative gap never starts a cluster.
    """
    tol = np.asarray(tol_deg, dtype=float)
    if not np.all(np.isfinite(tol) & (tol > 0)):
        raise ValueError(f"tol_deg must be > 0 and finite, got {tol_deg}")
    return _gap_ids(_ascending(values), tol[..., None])


def _ascending(values) -> np.ndarray:
    """``values`` as floats; raises ValueError where they descend along the
    last axis."""
    values = np.asarray(values, dtype=float)
    if np.any(np.diff(values, axis=-1) < 0):
        raise ValueError("levels must be ascending along the last axis")
    return values


def _in_cluster_mask(ids: np.ndarray) -> np.ndarray:
    return ids[..., :, None] == ids[..., None, :]


def project_average(V, ids: np.ndarray) -> np.ndarray:
    """Averaging projector: keep exactly the in-cluster entries of V, given
    in the reference eigenbasis (of each matrix of a stack, with its own
    cluster ids).

    Idempotent; preserves symmetry; commutes with the reference up to the
    cluster tolerance.
    """
    return np.where(_in_cluster_mask(ids), _mat(V), 0.0)


def solve_cohomological(V, levels: np.ndarray, ids: np.ndarray, tol_deg) -> np.ndarray:
    """Generator W with [diag(levels), W] + V = D, V and W in the reference
    eigenbasis: W_ij = -V_ij/(E_i - E_j) off-cluster (of each matrix of a
    stack, with its own ascending levels and cluster ids).

    W is antisymmetric with zero blocks inside clusters.  An inter-cluster
    pair closer than tol_deg (a number, or one per stack row) means the
    clustering is inconsistent with the levels and is a hard error (the
    denominator would be resonant).
    """
    v = _mat(V)
    levels = np.asarray(levels, dtype=float)
    if v.shape[-2:] != 2 * levels.shape[-1:]:
        raise ValueError(f"dimension mismatch: V is {v.shape}, levels {levels.shape}")
    mask = _in_cluster_mask(ids)
    diff = levels[..., :, None] - levels[..., None, :]
    tol = np.broadcast_to(tol_deg, levels.shape[:-1])
    tight = (np.abs(diff) <= tol[..., None, None]) & ~mask

    def inconsistency(r):
        i, j = np.argwhere(tight[r])[0]
        return ValueError(
            "clustering inconsistency: inter-cluster gap "
            f"|E_{i} - E_{j}| = {abs(diff[r][i, j]):.3e} <= tol_deg {tol[r]:.3e}"
        )

    check_rows(tight.any(axis=(-2, -1)), inconsistency)
    diff[mask] = 1.0
    return np.where(mask, 0.0, -v / diff)


def combined_projector(V, H0_family, tol_deg) -> np.ndarray:
    """Union-of-supports averaging over a family of reference operators.

    A union of block supports is only basis-independent when every member is
    diagonal in one common basis, so each member is given in the working
    basis as its real diagonal: a 1-D array of length dim (the family may
    be one (members, dim) array), clustered by cluster_levels with tolerance
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
    ids = np.empty_like(order)
    np.put_along_axis(ids, order, cluster_levels(np.take_along_axis(diags, order, -1), tol_deg), -1)
    return np.where(_in_cluster_mask(ids).any(axis=0), v, 0.0)
