"""Isometric/unitary transformation chains with spurious-eigenvalue bookkeeping.

Every step of a chain is an :class:`Isometry` ``S = R B``: ``R`` is an index
remap (a photon shift, a permutation, or the identity) and ``B`` a set of
small unitary blocks on disjoint index groups (atomic rotations, the
two-photon reflection, in-cluster rotations, displacements).  Conjugation
``S^H X S`` is a fancy-indexed gather followed by batched block updates; no
dense ``S`` is ever formed.  Each photon shift invalidates the top 1-2 photon
rows at truncation, so a chain accumulates a loss band that is added to the
guard band of validity claims.  A non-unitary (isometric) transformation with
``S^H S = 1 - sum of kernel projectors`` adds one exact zero eigenvalue per
kernel vector; those vectors are carried along the chain so the extra zeros
can be matched and filtered by eigenvector overlap rather than by energy
(physical zero eigenvalues exist too).

Every step leaves a renormalized reference that is diagonal in the current
basis, so a chain carries only its diagonal: the real level vector whose
entries are the chain's level estimates.  Every step also keeps the parity
(-1)^N (x) sigma_z diagonal, so a chain carries it as a sign vector: the
remap gathers it, and a block that would mix two parity classes raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .averaging import cluster_levels, combined_projector
from .closedform import require_one_photon_resonance, rt2_mixing_angle
from .kam import unitary_exp
from .operators import (
    ModelParams,
    TruncationConfig,
    _mat,
    basis_index,
    basis_label,
    build_boson_ops,
    displacement_band,
    parity_signs,
)

# Largest |q|^2 weight a block column may draw from outside its parity class:
# rounding only, about 1e-12 in the dropped off-diagonal of S^H P S.
_STRAY_PARITY_WEIGHT = 1e-24

__all__ = [
    "SpuriousLevel",
    "Isometry",
    "IsometryRecord",
    "TransformedHamiltonian",
    "atom_rotation_t",
    "rt_one_photon",
    "rt_two_photon",
    "generic_numeric_rt",
    "strong_chain",
    "rt_zero_field",
    "spurious_filter",
]


@dataclass(frozen=True)
class SpuriousLevel:
    """Exact zero eigenvalue attached to a transformation-kernel vector."""

    label: str
    vector: np.ndarray


@dataclass(frozen=True)
class Isometry:
    """Structured isometry ``S = R B`` on the flat basis.

    remap: column j of ``R`` is the unit vector at row ``remap[j]``, or zero
    (a kernel column) where ``remap[j] == -1``; None means ``R = 1``.
    blocks: groups of equal-size unitary blocks, each ``(idx, q)`` with idx of
    shape (m, k) and q of shape (m, k, k): ``B`` restricted to the indices
    ``idx[b]`` is ``q[b]``.  All blocks act on disjoint indices; ``B`` is the
    identity elsewhere.
    """

    remap: np.ndarray | None = None
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    @property
    def kernel_slots(self) -> np.ndarray:
        """Columns j with ``S e_j = 0``."""
        if self.remap is None:
            return np.zeros(0, dtype=int)
        return np.flatnonzero(self.remap < 0)

    @property
    def lost_slots(self) -> np.ndarray:
        """Rows outside the range of ``S``: basis states no column maps to."""
        if self.remap is None:
            return np.zeros(0, dtype=int)
        return np.setdiff1d(np.arange(self.remap.size), self.remap[self.remap >= 0])

    def _gather(self, x: np.ndarray, axes: int) -> np.ndarray:
        """``R^H x`` (axes=1) or ``R^H x R`` (axes=2), fresh, in x's and the blocks' dtype."""
        x = _mat(x)
        x = x.astype(np.result_type(x, *(q for _, q in self.blocks)), copy=False)
        if self.remap is None:
            return x.copy()
        kernel = self.remap < 0
        safe = np.where(kernel, 0, self.remap)
        if axes == 1:
            y = x[safe]
            y[kernel] = 0.0
            return y
        y = x[np.ix_(safe, safe)]
        y[kernel, :] = 0.0
        y[:, kernel] = 0.0
        return y

    def rotate(self, y: np.ndarray) -> np.ndarray:
        """``B^H y B`` in place for the matrix y."""
        for idx, q in self.blocks:
            if idx.shape[1] == 2:
                _rotate_pairs(y, idx, q)
                continue
            y[:, idx] = np.matmul(y[:, idx].transpose(1, 0, 2), q).transpose(1, 0, 2)
            y[idx, :] = np.matmul(q.conj().transpose(0, 2, 1), y[idx, :])
        return y

    def conjugate(self, x: np.ndarray) -> np.ndarray:
        """``S^H x S``."""
        return self.rotate(self._gather(x, 2))

    def conjugate_parity(self, p: np.ndarray) -> np.ndarray:
        """Diagonal of ``S^H diag(p) S`` for a parity sign vector p (+1, -1,
        and 0 on kernel slots) that S keeps diagonal.  The remap gathers p,
        with 0 on kernel columns; each block column q[:, l] then carries the
        one class its weight ``|q[:, l]|^2`` lies in.  A column drawing weight
        from two classes (kernel slots are a class of their own) would leave
        ``S^H diag(p) S`` off-diagonal, and raises ArithmeticError."""
        e = np.array(p, dtype=float)
        if self.remap is not None:
            e = np.where(self.remap < 0, 0.0, e[self.remap])
        for idx, q in self.blocks:
            weight = np.abs(q) ** 2
            classes = e[idx]
            own = np.take_along_axis(classes, weight.argmax(axis=1), axis=1)
            stray = np.einsum("mkl,mkl->ml", weight, classes[:, :, None] != own[:, None, :])
            if stray.max(initial=0.0) > _STRAY_PARITY_WEIGHT:
                raise ArithmeticError(
                    f"block mixes parity classes (stray weight {stray.max():.3e})"
                )
            e[idx] = own
        return e

    def pull(self, v: np.ndarray) -> np.ndarray:
        """``S^H v`` for a vector v."""
        w = self._gather(v, 1)
        for idx, q in self.blocks:
            w[idx] = np.matmul(q.conj().transpose(0, 2, 1), w[idx][..., None])[..., 0]
        return w


def _rotate_pairs(y: np.ndarray, idx: np.ndarray, q: np.ndarray) -> None:
    """``B^H y B`` in place for 2x2 blocks: column j of ``y B`` is
    ``y[:, j] B[j, j] + y[:, p] B[p, j]`` with p the other slot of j's block
    (p = j, B[j, j] = 1 and no partner term outside every block).  Works on
    whole rows and columns with a single temporary."""
    partner = np.arange(y.shape[0])
    diag = np.ones(y.shape[0], dtype=q.dtype)
    off = np.zeros(y.shape[0], dtype=q.dtype)
    for l in (0, 1):
        partner[idx[:, l]] = idx[:, 1 - l]
        diag[idx[:, l]] = q[:, l, l]
        off[idx[:, l]] = q[:, 1 - l, l]
    tmp = np.take(y, partner, axis=1)
    tmp *= off
    y *= diag
    y += tmp
    np.take(y, partner, axis=0, out=tmp)
    tmp *= off.conj()[:, None]
    y *= diag.conj()[:, None]
    y += tmp


@dataclass(frozen=True)
class IsometryRecord:
    """One isometric reduction step: its remap (plus any fixed unitary block,
    such as the two-photon reflection), kernel, dressing, truncation loss."""

    isometry: Isometry
    kernel_labels: tuple[str, ...]
    photon_dressing: int
    loss_rows: int


@dataclass(frozen=True)
class TransformedHamiltonian:
    """A Hamiltonian conjugated through a chain of transformations.

    operator: the conjugated full Hamiltonian in the current basis.
    levels: the renormalized reference, which is diagonal in the current
    basis, held as its real diagonal of length dim; its entries are the
    chain's level estimates.
    parity: the parity operator conjugated through the same chain, which
    keeps it diagonal, held as its real diagonal of length dim: +1 on even
    slots, -1 on odd ones, 0 on kernel slots (None without parity
    bookkeeping).
    spurious: kernel levels accumulated so far, vectors in the current basis.
    loss_band: top photon levels invalidated by index shifting / displacement.
    """

    operator: np.ndarray
    levels: np.ndarray
    parity: np.ndarray | None
    spurious: tuple[SpuriousLevel, ...]
    provenance: tuple[str, ...]
    loss_band: int
    params: ModelParams | None = None
    trunc: TruncationConfig | None = None
    records: tuple[IsometryRecord, ...] = ()

    def __post_init__(self):
        if np.shape(self.levels) != (self.dim,):
            raise ValueError(f"levels must have shape ({self.dim},), got {np.shape(self.levels)}")
        if self.parity is not None and (
            np.shape(self.parity) != (self.dim,) or not np.isin(self.parity, (-1.0, 0.0, 1.0)).all()
        ):
            raise ValueError(f"parity must be None or a sign vector of length {self.dim}")

    @property
    def dim(self) -> int:
        return self.operator.shape[0]


def atom_rotation_t() -> np.ndarray:
    """pi/2 rotation about the atomic y-axis: T^H sigma_x T = sigma_z."""
    return np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)


def _doublets(first: int, fock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The block group applying T on the atomic doublets of photon levels
    first..fock_dim-1."""
    idx = np.arange(2 * first, 2 * fock_dim).reshape(-1, 2)
    return idx, np.broadcast_to(atom_rotation_t(), (idx.shape[0], 2, 2))


def _shift_remap(fock_dim: int, atom: int, photons: int, first: int = 0) -> np.ndarray:
    """Remap lowering the photon number by ``photons`` on one atomic block,
    from photon level ``first`` up: column (n, atom) takes row
    (n - photons, atom) for n >= first + photons, the columns in between are
    the kernel, and every other column keeps its own row."""
    remap = np.arange(2 * fock_dim)
    cols = remap[atom::2]
    cols[first + photons:] = cols[first:-photons].copy()
    cols[first:first + photons] = -1
    return remap


def _conjugate(th: TransformedHamiltonian, isometries, tag: str) -> dict:
    """Shared bookkeeping for conjugating a chain by successive isometries."""
    operator, parity = th.operator, th.parity
    spurious = th.spurious
    for iso in isometries:
        operator = iso.conjugate(operator)
        if parity is not None:
            parity = iso.conjugate_parity(parity)
        spurious = tuple(replace(sp, vector=iso.pull(sp.vector)) for sp in spurious)
    return dict(
        operator=operator,
        parity=parity,
        spurious=spurious,
        provenance=th.provenance + (tag,),
        loss_band=th.loss_band,
        params=th.params,
        trunc=th.trunc,
        records=th.records,
    )


def _unit(dim: int, k: int) -> np.ndarray:
    vec = np.zeros(dim)
    vec[k] = 1.0
    return vec


def _ladder(omega: float, g: float, fock_dim: int) -> np.ndarray:
    """Diagonal of the dressed ladder omega*N (x) 1 + g*sqrt(N) (x) sigma_z."""
    ns = np.arange(fock_dim)
    diag = np.empty(2 * fock_dim)
    diag[0::2] = omega * ns + g * np.sqrt(ns)
    diag[1::2] = omega * ns - g * np.sqrt(ns)
    return diag


def rt_one_photon(
    H, params: ModelParams, trunc: TruncationConfig
) -> TransformedHamiltonian:
    """One-photon resonant transformation: photon-shift isometry on the "+"
    atomic block followed by the atomic rotation on the n >= 1 subspace.

    The result of applying it to the full Hamiltonian splits into the exactly
    diagonal dressed ladder omega*N (x) 1 + g*sqrt(N) (x) sigma_z (the
    reference) plus a two-photon-coupling remainder.  The kernel |0,+> turns
    into an exact spurious zero level.
    """
    require_one_photon_resonance(params)
    h = _mat(H)
    fock_dim = trunc.n_max + 1
    if h.shape[0] != 2 * fock_dim:
        raise ValueError(f"dimension mismatch: H is {h.shape}, trunc dim {2 * fock_dim}")
    shift = _shift_remap(fock_dim, 0, 1)
    levels = _ladder(params.omega, params.g, fock_dim)
    base = TransformedHamiltonian(
        operator=h,
        levels=levels,
        parity=parity_signs(trunc),
        spurious=(),
        provenance=(),
        loss_band=0,
        params=params,
        trunc=trunc,
    )
    fields = _conjugate(base, (Isometry(shift, (_doublets(1, fock_dim),)),), "rt_one_photon")
    fields["levels"] = levels
    fields["spurious"] = (SpuriousLevel(label=basis_label(0), vector=_unit(2 * fock_dim, 0)),)
    fields["loss_band"] = 1
    fields["records"] = (
        IsometryRecord(
            isometry=Isometry(shift),
            kernel_labels=(basis_label(0),),
            photon_dressing=-1,
            loss_rows=1,
        ),
    )
    return TransformedHamiltonian(**fields)


def _rt2_family(params: ModelParams, fock_dim: int) -> list[np.ndarray]:
    """Diagonals of the dressed references at every active locus g_n with n+2
    inside truncation."""
    w = params.omega
    return [
        _ladder(w, 2.0 * w / (math.sqrt(n) + math.sqrt(n + 2)), fock_dim)
        for n in range(fock_dim - 2)
    ]


def rt_two_photon(H1: TransformedHamiltonian) -> TransformedHamiltonian:
    """Two-photon resonant transformation on a one-photon-transformed chain.

    Extracts the resonant part of the chain's operator with the combined
    projector over the whole active-locus family, reduces it with the
    two-photon shift isometry plus the (0,2,-) reflection, and finishes with
    the per-photon 2x2 rotation on the commuting blocks.  Adds two spurious
    zeros at the kernel slots |1,+> and |2,+>.
    """
    params = H1.params
    if params is None or H1.trunc is None:
        raise ValueError("rt_two_photon needs the params/trunc carried by rt_one_photon")
    w = params.omega
    fock_dim = H1.trunc.n_max + 1
    dim = 2 * fock_dim

    # Every family member keeps the whole diagonal, so projecting the
    # operator is the reference plus the projected remainder.
    h1_eff = combined_projector(H1.operator, _rt2_family(params, fock_dim), tol_deg=1e-8 * w)

    # Two-photon shift on the "+" block away from the vacuum, identity on
    # (0,+) and on the "-" block, then the reflection by the mixing angle on
    # the (0,-)/(2,-) pair.
    shift = _shift_remap(fock_dim, 0, 2, first=1)
    theta = rt2_mixing_angle(w, params.g)
    c, s = math.cos(theta), math.sin(theta)
    reflection_idx = np.array([[basis_index(0, 1), basis_index(2, 1)]])
    reflection_q = np.array([[[-c, -s], [-s, c]]])

    # Per-photon rotation diagonalizing the commuting 2x2 blocks n >= 3.
    m = Isometry(shift).conjugate(h1_eff)
    pairs = np.arange(6, dim).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    block = np.stack([np.stack([m[i, i], m[i, j]], -1), np.stack([m[j, i], m[j, j]], -1)], -2)
    block = 0.5 * (block + block.conj().transpose(0, 2, 1))
    _, q = np.linalg.eigh(block)
    rotation = Isometry(
        None,
        ((np.concatenate([reflection_idx, pairs]), np.concatenate([reflection_q, q])),),
    )

    reduced = rotation.rotate(m)
    diag = np.diag(reduced)
    off = np.abs(reduced - np.diag(diag)).max()
    if off > 1e-10 * max(np.abs(reduced).max(), 1.0):
        raise ArithmeticError(
            f"two-photon reduction failed to diagonalize the effective part "
            f"(off-diagonal {off:.3e})"
        )

    kernels = tuple(
        SpuriousLevel(label=basis_label(basis_index(n, 0)), vector=_unit(dim, basis_index(n, 0)))
        for n in (1, 2)
    )
    fields = _conjugate(H1, (Isometry(shift, rotation.blocks),), "rt_two_photon")
    fields["levels"] = np.real(diag)
    fields["spurious"] = fields["spurious"] + kernels
    fields["loss_band"] = H1.loss_band + 2
    fields["records"] = H1.records + (
        IsometryRecord(
            isometry=Isometry(shift, ((reflection_idx, reflection_q),)),
            kernel_labels=tuple(k.label for k in kernels),
            photon_dressing=-2,
            loss_rows=2,
        ),
    )
    return TransformedHamiltonian(**fields)


def generic_numeric_rt(th: TransformedHamiltonian, tol_deg: float) -> TransformedHamiltonian:
    """Numeric resonant transformation without hand-built isometries.

    The reference is diagonal, so its eigenbasis is the stable ascending sort
    of its levels (a permutation).  Diagonalizes the effective operator
    H0 + (averaged V) by rotating inside the degeneracy clusters (gap
    tol_deg) of the sorted levels and conjugates the full operator by
    permutation plus cluster rotations; singleton clusters just shift by the
    diagonal of V.  Unitary: no spurious levels, no new truncation loss.
    """
    values = th.levels
    order = np.argsort(values, kind="stable")
    energies = values[order]
    # Singletons: E + Re V_ii; V = operator - reference in the sorted basis.
    new_e = energies + np.real(np.diag(th.operator) - values)[order]
    groups: dict[int, tuple[list, list]] = {}
    for cluster in cluster_levels(energies, tol_deg).clusters:
        if len(cluster) < 2:
            continue
        idx = list(cluster)
        rows = order[idx]
        block = np.diag(energies[idx]) + (th.operator[np.ix_(rows, rows)] - np.diag(values[rows]))
        block = 0.5 * (block + block.conj().T)
        vals, vecs = np.linalg.eigh(block)
        new_e[idx] = vals
        members = groups.setdefault(len(idx), ([], []))
        members[0].append(idx)
        members[1].append(vecs)
    blocks = tuple((np.array(idx), np.array(q)) for idx, q in groups.values())
    fields = _conjugate(th, (Isometry(order, blocks),), "generic_numeric_rt")
    fields["levels"] = new_e
    return TransformedHamiltonian(**fields)


def strong_chain(
    H, params: ModelParams, trunc: TruncationConfig
) -> TransformedHamiltonian:
    """Atomic rotation, the opposite displacements of the two atomic blocks,
    and the atomic rotation again: the unbounded part of the Hamiltonian
    becomes the exactly diagonal displaced ladder
    (omega*(N+1/2) - g^2/omega) (x) 1 (the reference); the bounded remainder
    carries the displacement matrix elements, with the decoupled splitting
    on sigma_z.  This is the parity-adapted displaced basis of the
    generalized rotating-wave approximation (Irish, PRL 99, 173601 (2007)):
    the parity is diagonal in it.  Unitary for any g (the truncated a^H - a
    is anti-Hermitian), but the displacement corrupts a g-dependent top band.
    """
    h = _mat(H)
    fock_dim = trunc.n_max + 1
    if h.shape[0] != 2 * fock_dim:
        raise ValueError(f"dimension mismatch: H is {h.shape}, trunc dim {2 * fock_dim}")
    w, g = params.omega, params.g
    a, a_dag, _ = build_boson_ops(trunc)
    gen = (g / w) * (a_dag - a)
    displacement = Isometry(
        None,
        ((np.arange(2 * fock_dim).reshape(-1, 2).T, np.stack([unitary_exp(-gen), unitary_exp(gen)])),),
    )

    ns = np.arange(fock_dim)
    levels = np.repeat(w * (ns + 0.5) - g * g / w, 2)

    base = TransformedHamiltonian(
        operator=h,
        levels=levels,
        parity=None,
        spurious=(),
        provenance=(),
        loss_band=0,
        params=params,
        trunc=trunc,
    )
    rotation = Isometry(None, (_doublets(0, fock_dim),))
    fields = _conjugate(base, (rotation, displacement, rotation), "strong_chain")
    fields["levels"] = levels
    # After the first rotation the parity is the atomic flip, not diagonal,
    # so the sign vector is set rather than mapped: T^H sigma_z T = -sigma_x,
    # T^H sigma_x T = sigma_z and Pi D(a) Pi = D(-a), which holds in the
    # truncated box, give S^H P S = -P.
    fields["parity"] = -parity_signs(trunc)
    fields["loss_band"] = min(displacement_band(params), trunc.n_max)
    return TransformedHamiltonian(**fields)


def rt_zero_field(H2: TransformedHamiltonian) -> TransformedHamiltonian:
    """Photon-shift isometry on the "-" atomic block, treating the zero-field
    degeneracies of the displaced ladder.  The new reference is the bare
    ladder omega*N (x) 1; |0,-> becomes an exact spurious zero."""
    params = H2.params
    if params is None or H2.trunc is None:
        raise ValueError("rt_zero_field needs the params/trunc carried by the chain")
    fock_dim = H2.trunc.n_max + 1
    shift = Isometry(_shift_remap(fock_dim, 1, 1))
    ns = np.arange(fock_dim)
    vac_minus = basis_index(0, 1)

    fields = _conjugate(H2, (shift,), "rt_zero_field")
    fields["levels"] = np.repeat(params.omega * ns.astype(float), 2)
    fields["spurious"] = fields["spurious"] + (
        SpuriousLevel(label=basis_label(vac_minus), vector=_unit(2 * fock_dim, vac_minus)),
    )
    fields["loss_band"] = H2.loss_band + 1
    fields["records"] = H2.records + (
        IsometryRecord(
            isometry=shift,
            kernel_labels=(basis_label(vac_minus),),
            photon_dressing=-1,
            loss_rows=1,
        ),
    )
    return TransformedHamiltonian(**fields)


def spurious_filter(
    values: np.ndarray, spurious: tuple[SpuriousLevel, ...]
) -> tuple[np.ndarray, list[int], list[int]]:
    """Remove exactly one zero level per kernel vector.

    Each kernel vector is given in the basis of the levels, so its component
    k is its overlap with level k.  Matching is by concentration on one level
    (overlap >= 0.99), not by energy alone — physical zero eigenvalues exist.
    A kernel without a matching zero level indicates a transformation bug and
    raises.

    Returns (cleaned values, kept indices, removed indices).
    """
    values = np.asarray(values, dtype=float)
    zero_tol = 1e-8 * max(1.0, np.abs(values).max())
    removed: list[int] = []
    for sp in spurious:
        w = sp.vector / max(np.linalg.norm(sp.vector), np.finfo(float).tiny)
        overlaps = np.abs(w)
        order = np.argsort(-overlaps)
        match = -1
        for idx in order:
            if overlaps[idx] < 0.99:
                break
            if idx in removed:
                continue
            if abs(values[idx]) <= zero_tol:
                match = int(idx)
                break
        if match < 0:
            raise ValueError(
                f"no zero level matches kernel {sp.label} "
                f"(best overlap {overlaps[order[0]]:.3f})"
            )
        removed.append(match)
    kept = [i for i in range(len(values)) if i not in removed]
    return values[kept], kept, removed
