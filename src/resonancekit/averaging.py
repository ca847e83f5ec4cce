"""Degeneracy-aware averaging: projector, cohomological generator, resonance flags.

All spectral bookkeeping happens in the eigenbasis of the reference operator
and is rotated back; within-cluster sub-blocks are kept verbatim (diagonalizing
the effective operator is the job of the resonant transformations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import _mat
from .spectrum import EigenDecomposition, _gap_ids

__all__ = [
    "DegeneracyClusters",
    "cluster_levels",
    "project_average",
    "solve_cohomological",
    "classify_resonances",
    "combined_projector",
]

DEFAULT_TOL_DEG = 1e-8


@dataclass(frozen=True)
class DegeneracyClusters:
    """Partition of eigenvalue indices into near-degenerate groups.

    clusters[k] holds sorted level indices; means[k] the cluster mean energy;
    active[k] (when classified) whether the perturbation couples states inside
    the cluster.
    """

    clusters: tuple[tuple[int, ...], ...]
    means: tuple[float, ...]
    tol_deg: float
    active: tuple[bool, ...] | None = None
    tol_active: float | None = None

    @property
    def n_levels(self) -> int:
        return sum(len(c) for c in self.clusters)

    def cluster_ids(self) -> np.ndarray:
        cid = np.empty(self.n_levels, dtype=int)
        for k, cluster in enumerate(self.clusters):
            for i in cluster:
                cid[i] = k
        return cid


def cluster_levels(values: np.ndarray, tol_deg: float) -> DegeneracyClusters:
    """Greedy gap-based clustering of ascending values.

    A new cluster starts whenever the gap to the previous value exceeds
    tol_deg, so in-cluster pairwise spreads can reach a few tol_deg while
    adjacent-cluster boundary gaps always exceed it.
    """
    if tol_deg <= 0:
        raise ValueError(f"tol_deg must be > 0, got {tol_deg}")
    values = np.asarray(values, dtype=float)
    starts = np.flatnonzero(np.diff(_gap_ids(values, tol_deg), prepend=-1))
    bounds = np.append(starts, values.size).tolist()
    clusters = tuple(tuple(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]))
    means = np.add.reduceat(values, starts) / np.diff(bounds)
    return DegeneracyClusters(clusters=clusters, means=tuple(means.tolist()), tol_deg=tol_deg)


def _in_cluster_mask(clusters: DegeneracyClusters) -> np.ndarray:
    cid = clusters.cluster_ids()
    return cid[:, None] == cid[None, :]


def project_average(V, decomp: EigenDecomposition, clusters: DegeneracyClusters) -> np.ndarray:
    """Averaging projector: keep exactly the in-cluster blocks of V.

    Computed in the reference eigenbasis and rotated back to the original
    basis.  Idempotent; preserves Hermiticity; commutes with the reference up
    to the cluster tolerance.
    """
    v = _mat(V)
    if v.shape[0] != decomp.dim:
        raise ValueError(f"dimension mismatch: V is {v.shape}, decomp dim {decomp.dim}")
    u = decomp.vectors
    v_eig = u.conj().T @ v @ u
    d_eig = np.where(_in_cluster_mask(clusters), v_eig, 0.0)
    return u @ d_eig @ u.conj().T


def solve_cohomological(V, decomp: EigenDecomposition, clusters: DegeneracyClusters) -> np.ndarray:
    """Generator W with [H0, W] + V = D: W_ij = -V_ij/(E_i - E_j) off-cluster.

    W is anti-Hermitian with zero blocks inside clusters.  An inter-cluster
    pair closer than tol_deg means the clustering is inconsistent with the
    decomposition and is a hard error (the denominator would be resonant).
    """
    v = _mat(V)
    if v.shape[0] != decomp.dim:
        raise ValueError(f"dimension mismatch: V is {v.shape}, decomp dim {decomp.dim}")
    u = decomp.vectors
    energies = decomp.values
    mask = _in_cluster_mask(clusters)
    diff = energies[:, None] - energies[None, :]
    tight = (np.abs(diff) <= clusters.tol_deg) & ~mask
    if tight.any():
        i, j = np.argwhere(tight)[0]
        raise ValueError(
            "clustering inconsistency: inter-cluster gap "
            f"|E_{i} - E_{j}| = {abs(diff[i, j]):.3e} <= tol_deg {clusters.tol_deg:.3e}"
        )
    v_eig = u.conj().T @ v @ u
    with np.errstate(divide="ignore", invalid="ignore"):
        w_eig = np.where(mask, 0.0, -v_eig / np.where(mask, 1.0, diff))
    return u @ w_eig @ u.conj().T


def classify_resonances(
    V,
    decomp: EigenDecomposition,
    clusters: DegeneracyClusters,
    tol_active: float | None = None,
) -> DegeneracyClusters:
    """Flag each cluster active/passive by its in-cluster coupling strength.

    A cluster is active iff the largest off-diagonal in-cluster element
    |<nu j|V|nu j'>| (j != j') exceeds tol_active; singletons are passive.
    Default tol_active is 1e-10*||V|| — parity-forbidden elements vanish
    exactly, so the threshold only guards rounding.
    """
    v = _mat(V)
    u = decomp.vectors
    v_eig = u.conj().T @ v @ u
    if tol_active is None:
        tol_active = 1e-10 * max(np.linalg.norm(v, 2), np.finfo(float).tiny)
    flags: list[bool] = []
    report: list[float] = []
    for cluster in clusters.clusters:
        best = 0.0
        for a in cluster:
            for b in cluster:
                if a != b:
                    best = max(best, abs(v_eig[a, b]))
        flags.append(best > tol_active)
        report.append(best)
    return DegeneracyClusters(
        clusters=clusters.clusters,
        means=clusters.means,
        tol_deg=clusters.tol_deg,
        active=tuple(flags),
        tol_active=float(tol_active),
    )


def _diag_clusters(diag: np.ndarray, tol_deg: float) -> np.ndarray:
    """Cluster ids over basis indices for a diagonal operator."""
    order = np.argsort(diag, kind="stable")
    cid = np.empty(diag.shape[0], dtype=int)
    cid[order] = _gap_ids(diag[order], tol_deg)
    return cid


def combined_projector(V, H0_family, tol_deg: float | None = None) -> np.ndarray:
    """Union-of-supports averaging over a family of reference operators.

    A union of block supports is only basis-independent when every member is
    diagonal in one common basis, so each member is given in the working
    basis as its real diagonal: a 1-D array of length dim.  Keeps every
    matrix position that is in-cluster for at least one member, each retained
    entry taken directly from V (duplicate positions kept once).
    """
    v = _mat(V)
    diags = [np.asarray(member, dtype=float) for member in H0_family]
    if not diags:
        raise ValueError("H0_family must not be empty")
    mask = np.zeros(v.shape, dtype=bool)
    for diag in diags:
        if diag.shape != (v.shape[0],):
            raise ValueError(f"dimension mismatch: member {diag.shape}, V {v.shape}")
        tol = tol_deg if tol_deg is not None else DEFAULT_TOL_DEG * max(np.abs(diag).max(), 1.0)
        cid = _diag_clusters(diag, tol)
        mask |= cid[:, None] == cid[None, :]
    return np.where(mask, v, 0.0)
