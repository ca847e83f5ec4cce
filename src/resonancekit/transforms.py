"""Isometric/unitary transformation chains with kernel bookkeeping.

Every step of a chain is an :class:`Isometry` ``S = R B``: ``R`` is an index
remap (a photon shift, a permutation, or the identity) and ``B`` a set of
small unitary blocks on disjoint index groups (atomic rotations, the
two-photon reflection, in-cluster rotations).  Conjugation
``S^H X S`` is a fancy-indexed gather followed by batched block updates; no
dense ``S`` is ever formed.  Each photon shift invalidates the top 1-2 photon
rows at truncation, so a chain accumulates a loss band that is added to the
guard band of validity claims.  A non-unitary (isometric) transformation with
``S^H S = 1 - sum of kernel projectors`` adds one exact zero eigenvalue per
kernel slot: the slot's row and column of ``S^H X S`` are exactly 0 (physical
zero eigenvalues exist too, so the spurious ones are told apart by slot, not
by energy).

Every step leaves a renormalized reference that is diagonal in the current
basis, so a chain carries only its diagonal: the real level vector whose
entries are the chain's level estimates.  Every step also keeps the parity
(-1)^N (x) sigma_z diagonal, so a chain carries it as a sign vector: the
remap gathers it, with 0 on kernel columns, and a block that would mix two
parity classes (a kernel slot is a class of its own) raises.  The sign-0
slots are the chain's only record of its kernel; the step isometries it
keeps in ``records`` name their own kernel and lost slots.

A chain runs on a stack of couplings: its ``params`` are one ModelParams
per coupling, the operator is a (G, dim, dim) stack and the levels and
parity are (G, dim), one row per coupling; one coupling is a stack of one.
Each step is one array program over the stack, and a coupling that fails a
check raises :class:`spectrum.CouplingErrors` for its row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import cluster_levels, combined_projector
from .closedform import require_one_photon_resonance, rt2_mixing_angle
from .operators import (
    ModelParams,
    TruncationConfig,
    _adjoint,
    _mat,
    _symmetrized,
    basis_index,
    parity_signs,
)
from .spectrum import check_rows

# Largest |q|^2 weight a block column may draw from outside its parity class:
# rounding only, about 1e-12 in the dropped off-diagonal of S^H P S.
_STRAY_PARITY_WEIGHT = 1e-24

__all__ = [
    "Isometry",
    "TransformedHamiltonian",
    "atom_rotation_t",
    "rt_one_photon",
    "rt_two_photon",
    "generic_numeric_rt",
]


@dataclass(frozen=True)
class Isometry:
    """Structured isometry ``S = R B`` on the flat basis, of each matrix of a
    stack.

    remap: column j of ``R`` is the unit vector at row ``remap[..., j]``, or
    zero (a kernel column) where that is -1; of shape (dim,) for every matrix
    alike or (G, dim) for each of a stack of G.  None means ``R = 1``.
    blocks: groups of equal-size real orthogonal blocks, each ``(idx, q)``
    with idx of shape (m, k) and q of shape (m, k, k): ``B`` restricted to
    the indices ``idx[b]`` is ``q[b]``.  On a stack, index ``r*dim + i`` is
    slot i of matrix r, so one group holds blocks of any of its matrices.
    The blocks of one matrix act on disjoint indices; ``B`` is the identity
    elsewhere.  The groups are applied in order.  The model is real, so a
    complex block raises TypeError when it is applied.
    """

    remap: np.ndarray | None = None
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    @property
    def kernel_slots(self) -> np.ndarray:
        """Columns j with ``S e_j = 0`` (of a remap shared by every matrix)."""
        if self.remap is None:
            return np.zeros(0, dtype=int)
        return np.flatnonzero(self.remap < 0)

    @property
    def lost_slots(self) -> np.ndarray:
        """Rows outside the range of ``S``: basis states no column maps to."""
        if self.remap is None:
            return np.zeros(0, dtype=int)
        return np.setdiff1d(np.arange(self.remap.size), self.remap[self.remap >= 0])

    def _take(self, x: np.ndarray, axes: int) -> np.ndarray:
        """``R^H x`` (axes=1) or ``R^H x R`` (axes=2) of each vector or matrix
        of a stack, fresh."""
        if self.remap is None:
            return x.copy()
        kernel = self.remap < 0
        # the remap with x's stack axes: one shared, or one per matrix
        safe = np.where(kernel, 0, self.remap)[(None,) * (x.ndim - axes + 1 - self.remap.ndim)]
        if axes == 1:
            y = np.take_along_axis(x, safe, -1)
        else:  # one gather, with every index array leading so that y is C-contiguous
            lead = tuple(i[..., None, None] for i in np.indices(x.shape[:-2], sparse=True))
            y = x[(*lead, safe[..., :, None], safe[..., None, :])]
        lines = np.broadcast_to(kernel, y.shape[:y.ndim - axes + 1])
        y[lines] = 0.0
        if axes == 2:
            y.swapaxes(-1, -2)[lines] = 0.0
        return y

    def rotate(self, y: np.ndarray) -> np.ndarray:
        """``B^H y B`` in place for each matrix of a C-contiguous stack y."""
        dim = y.shape[-1]
        stack = y.reshape(-1, dim, dim)
        span = np.arange(dim)
        for idx, q in self.blocks:
            q = _mat(q)
            if idx.shape[1] == 2:
                _rotate_pairs(stack, idx, q)
                continue
            mat, slot = np.divmod(idx, dim)
            cols = (mat[:, None, :], span[:, None], slot[:, None, :])
            stack[cols] = np.matmul(stack[cols], q)
            rows = (mat[:, :, None], slot[:, :, None], span)
            stack[rows] = np.matmul(_adjoint(q), stack[rows])
        return y

    def conjugate(self, x: np.ndarray) -> np.ndarray:
        """``S^T x S`` of each matrix of a real stack x; a complex x or block
        raises TypeError."""
        return self.rotate(self._take(_mat(x), 2))

    def conjugate_parity(self, p: np.ndarray) -> np.ndarray:
        """Diagonal of ``S^H diag(p) S`` for each parity sign vector (+1, -1,
        and 0 on kernel slots) of a (G, dim) stack p, that S keeps diagonal.
        The remap gathers p, with 0 on kernel columns; each block column
        q[:, l] then carries the one class its weight ``|q[:, l]|^2`` lies
        in.  A column drawing weight from two classes (kernel slots are a
        class of their own) would leave ``S^H diag(p) S`` off-diagonal, and
        raises ArithmeticError for its matrix."""
        e = self._take(np.asarray(p, dtype=float), 1)
        flat = e.reshape(-1)
        for idx, q in self.blocks:
            weight = np.abs(q) ** 2
            classes = flat[idx]
            own = np.take_along_axis(classes, weight.argmax(axis=1), axis=1)
            stray = np.einsum("mkl,mkl->ml", weight, classes[:, :, None] != own[:, None, :])
            worst = np.zeros(e.shape[:-1])
            np.maximum.at(worst.reshape(-1), idx[:, 0] // e.shape[-1], stray.max(axis=1, initial=0))
            check_rows(worst > _STRAY_PARITY_WEIGHT, lambda i: ArithmeticError(
                f"block mixes parity classes (stray weight {worst[i]:.3e})"))
            flat[idx] = own
        return e


def _rotate_pairs(stack: np.ndarray, idx: np.ndarray, q: np.ndarray) -> None:
    """``B^H y B`` in place on each matrix y of ``stack`` (G, dim, dim): column
    j of ``y B`` is ``y[:, j] B[j, j] + y[:, p] B[p, j]`` with p the other
    slot of j's block (p = j, B[j, j] = 1 and a zero partner term outside
    every block, which leave finite entries as they are).  Works on whole
    rows and columns with a single temporary."""
    count, dim = stack.shape[0], stack.shape[-1]
    partner = np.arange(count * dim)
    diag = np.ones(count * dim)
    off = np.zeros(count * dim)
    for l in (0, 1):
        partner[idx[:, l]] = idx[:, 1 - l]
        diag[idx[:, l]] = q[:, l, l]
        off[idx[:, l]] = q[:, 1 - l, l]
    partner, diag, off = (a.reshape(count, dim) for a in (partner % dim, diag, off))
    each, span = np.arange(count)[:, None, None], np.arange(dim)
    tmp = stack[each, span[:, None], partner[:, None, :]]
    tmp *= off[:, None, :]
    stack *= diag[:, None, :]
    stack += tmp
    del tmp  # before the row gather, which takes its place
    tmp = stack[each, partner[:, :, None], span]
    tmp *= off[:, :, None]
    stack *= diag[:, :, None]
    stack += tmp


def _stacked_blocks(idx: np.ndarray, q: np.ndarray, stack: tuple, dim: int):
    """One block group acting alike on every matrix of a stack of shape
    ``stack`` (G,): idx (m, k) per matrix, q (m, k, k) shared or (G, m, k, k),
    as flat indices and one block per (matrix, block)."""
    k = idx.shape[1]
    offsets = np.arange(math.prod(stack))[:, None, None] * dim
    q = np.broadcast_to(q, (*stack, *q.shape[-3:]))
    return (offsets + idx).reshape(-1, k), q.reshape(-1, k, k)


@dataclass(frozen=True)
class TransformedHamiltonian:
    """A Hamiltonian conjugated through a chain of transformations.

    operator: the conjugated full Hamiltonian in the current basis, a
    (G, dim, dim) stack of them, one per coupling.
    levels: the renormalized reference, which is diagonal in the current
    basis, held as its real diagonal of length dim per coupling; its
    entries are the chain's level estimates.
    parity: the parity operator conjugated through the same chain, which
    keeps it diagonal, held as its real diagonal like the levels: +1 on even
    slots, -1 on odd ones, 0 on kernel slots, each of which holds one exact
    spurious zero eigenvalue.
    loss_band: top photon levels invalidated by index shifting.
    params: one ModelParams per coupling.
    trunc: the truncation of the box the chain was built in.
    records: the photon-shift steps so far, each an Isometry holding its
    remap (plus any fixed unitary block, such as the two-photon reflection):
    it shifts ``len(kernel_slots)`` photons and loses ``len(lost_slots)`` rows.
    """

    operator: np.ndarray
    levels: np.ndarray
    parity: np.ndarray
    provenance: tuple[str, ...]
    loss_band: int
    params: tuple[ModelParams, ...]
    trunc: TruncationConfig
    records: tuple[Isometry, ...] = ()

    def __post_init__(self):
        shape = self.operator.shape[:-1]
        if np.shape(self.levels) != shape:
            raise ValueError(f"levels must have shape {shape}, got {np.shape(self.levels)}")
        if np.shape(self.parity) != shape or not (
            (self.parity == 0.0) | (np.abs(self.parity) == 1.0)
        ).all():
            raise ValueError(f"parity must be a sign vector of shape {shape}")

    @property
    def dim(self) -> int:
        return self.operator.shape[-1]


def atom_rotation_t() -> np.ndarray:
    """pi/2 rotation about the atomic y-axis: T^H sigma_x T = sigma_z."""
    return np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)


def _doublets(fock_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The block group applying T on the atomic doublets of photon levels
    1..fock_dim-1."""
    idx = np.arange(2, 2 * fock_dim).reshape(-1, 2)
    return idx, np.broadcast_to(atom_rotation_t(), (idx.shape[0], 2, 2))


def _shift_remap(fock_dim: int, photons: int, first: int = 0) -> np.ndarray:
    """Remap lowering the photon number by ``photons`` on the "+" atomic
    block, from photon level ``first`` up: column (n, +) takes row
    (n - photons, +) for n >= first + photons, the columns in between are
    the kernel, and every other column keeps its own row."""
    remap = np.arange(2 * fock_dim)
    cols = remap[0::2]
    cols[first + photons:] = cols[first:-photons].copy()
    cols[first:first + photons] = -1
    return remap


def _conjugate(th: TransformedHamiltonian, isometries, tag: str) -> dict:
    """Shared bookkeeping for conjugating a chain by successive isometries."""
    operator, parity = th.operator, th.parity
    for iso in isometries:
        operator = iso.conjugate(operator)
        parity = iso.conjugate_parity(parity)
    return dict(vars(th), operator=operator, parity=parity, provenance=th.provenance + (tag,))


def _couplings(params) -> tuple[ModelParams, np.ndarray]:
    """The first of a sequence of ModelParams (one per stack row) and their
    couplings; a ValueError if the rows do not share omega and omega0."""
    first = params[0]
    for p in params:
        if (p.omega, p.omega0) != (first.omega, first.omega0):
            raise ValueError(
                "the rows of a stack must share omega and omega0; got (omega, omega0) = "
                f"({first.omega}, {first.omega0}) and ({p.omega}, {p.omega0})"
            )
    return first, np.array([p.g for p in params])


def _ladder(omega: float, g, fock_dim: int) -> np.ndarray:
    """Diagonal of the dressed ladder omega*N (x) 1 + g*sqrt(N) (x) sigma_z,
    one row per coupling for an array ``g``."""
    ns = np.arange(fock_dim)
    split = np.multiply.outer(g, np.sqrt(ns))
    diag = np.empty(split.shape[:-1] + (2 * fock_dim,))
    diag[..., 0::2] = omega * ns + split
    diag[..., 1::2] = omega * ns - split
    return diag


def rt_one_photon(H, params, trunc: TruncationConfig) -> TransformedHamiltonian:
    """One-photon resonant transformation: photon-shift isometry on the "+"
    atomic block followed by the atomic rotation on the n >= 1 subspace.

    The result of applying it to the full Hamiltonian splits into the exactly
    diagonal dressed ladder omega*N (x) 1 + g*sqrt(N) (x) sigma_z (the
    reference) plus a two-photon-coupling remainder.  The kernel slot |0,+>
    holds an exact spurious zero level.  ``H`` is a stack of Hamiltonians,
    one per ModelParams of the sequence ``params``.
    """
    first, g = _couplings(params)
    require_one_photon_resonance(first.omega, first.omega0)
    h = _mat(H)
    fock_dim = trunc.n_max + 1
    dim = 2 * fock_dim
    if h.shape != np.shape(g) + (dim, dim):
        raise ValueError(f"dimension mismatch: H is {h.shape}, trunc dim {dim}")
    shift = _shift_remap(fock_dim, 1)
    levels = _ladder(first.omega, g, fock_dim)
    base = TransformedHamiltonian(
        operator=h,
        levels=levels,
        parity=np.broadcast_to(parity_signs(trunc), levels.shape),
        provenance=(),
        loss_band=0,
        params=params,
        trunc=trunc,
    )
    rotation = _stacked_blocks(*_doublets(fock_dim), np.shape(g), dim)
    fields = _conjugate(base, (Isometry(shift, (rotation,)),), "rt_one_photon")
    fields["levels"] = levels
    fields["loss_band"] = 1
    fields["records"] = (Isometry(shift),)
    return TransformedHamiltonian(**fields)


def _rt2_family(omega: float, fock_dim: int) -> np.ndarray:
    """Diagonals of the dressed references at every active locus g_n with n+2
    inside truncation, one row per locus."""
    n = np.arange(fock_dim - 2)
    return _ladder(omega, 2.0 * omega / (np.sqrt(n) + np.sqrt(n + 2)), fock_dim)


def rt_two_photon(H1: TransformedHamiltonian) -> TransformedHamiltonian:
    """Two-photon resonant transformation on a one-photon-transformed chain.

    Extracts the resonant part of the chain's operator with the combined
    projector over the whole active-locus family, reduces it with the
    two-photon shift isometry plus the (0,2,-) reflection, and finishes with
    the per-photon 2x2 rotation on the commuting blocks.  Adds two spurious
    zeros at the kernel slots |1,+> and |2,+>.
    """
    first, g = _couplings(H1.params)
    w = first.omega
    fock_dim = H1.trunc.n_max + 1
    dim = 2 * fock_dim
    stack = np.shape(g)

    # Every family member keeps the whole diagonal, so projecting the
    # operator is the reference plus the projected remainder.
    h1_eff = combined_projector(H1.operator, _rt2_family(w, fock_dim), tol_deg=1e-8 * w)

    # Two-photon shift on the "+" block away from the vacuum, identity on
    # (0,+) and on the "-" block, then the reflection by the mixing angle on
    # the (0,-)/(2,-) pair.
    shift = _shift_remap(fock_dim, 2, first=1)
    theta = rt2_mixing_angle(w, g)
    c, s = np.cos(theta), np.sin(theta)
    reflection_idx = np.array([[basis_index(0, 1), basis_index(2, 1)]])
    reflection_q = np.stack([np.stack([-c, -s], -1), np.stack([-s, c], -1)], -2)[..., None, :, :]

    # Per-photon rotation diagonalizing the commuting 2x2 blocks n >= 3.
    m = Isometry(shift).conjugate(h1_eff)
    del h1_eff
    pairs = np.arange(6, dim).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    block = np.stack(
        [np.stack([m[..., i, i], m[..., i, j]], -1), np.stack([m[..., j, i], m[..., j, j]], -1)], -2
    )
    _, q = np.linalg.eigh(_symmetrized(block))
    rotation = Isometry(None, (_stacked_blocks(
        np.concatenate([reflection_idx, pairs]), np.concatenate([reflection_q, q], -3), stack, dim
    ),))

    reduced = rotation.rotate(m)
    diag = np.diagonal(reduced, axis1=-2, axis2=-1).copy()
    reduced.reshape(*stack, dim * dim)[..., :: dim + 1] = 0.0  # only diag outlives the check
    off = np.abs(reduced, out=reduced).max(axis=(-2, -1))
    del m, reduced
    scale = np.maximum(np.maximum(off, np.abs(diag).max(axis=-1)), 1.0)
    check_rows(off > 1e-10 * scale, lambda r: ArithmeticError(
        "two-photon reduction failed to diagonalize the effective part "
        f"(off-diagonal {off[r]:.3e})"))

    fields = _conjugate(H1, (Isometry(shift, rotation.blocks),), "rt_two_photon")
    fields["levels"] = diag
    fields["loss_band"] = H1.loss_band + 2
    fields["records"] = H1.records + (
        Isometry(shift, (_stacked_blocks(reflection_idx, reflection_q, stack, dim),)),
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

    On a stack, the equal-size clusters of every coupling are diagonalized
    as one stack of blocks, and the rotations are applied by cluster size.
    """
    values = th.levels
    dim = th.dim
    order = np.argsort(values, axis=-1, kind="stable")
    energies = np.take_along_axis(values, order, -1)
    # Singletons: E + V_ii; V = operator - reference in the sorted basis.
    diagonal = np.diagonal(th.operator, axis1=-2, axis2=-1) - values
    new_e = energies + np.take_along_axis(diagonal, order, -1)

    # Clusters over the stack: flat start index r*dim + i and size.
    ids = cluster_levels(energies, tol_deg).reshape(-1, dim)
    starts = np.flatnonzero(np.diff(ids, axis=-1, prepend=-1))
    sizes = np.diff(np.append(starts, ids.size))
    operator = th.operator.reshape(-1, dim, dim)
    flat_values, flat_order, flat_e = values.reshape(-1), order.reshape(-1), new_e.reshape(-1)
    flat_energies = energies.reshape(-1)
    blocks = []  # (flat indices, rotation) of the clusters, one group per size
    for k in (np.flatnonzero(np.bincount(sizes)[2:]) + 2).tolist():
        at = starts[sizes == k]
        idx = at[:, None] + np.arange(k)
        mat = at // dim
        rows = flat_order[idx]
        span = np.arange(k)
        block = operator[mat[:, None, None], rows[:, :, None], rows[:, None, :]]
        own = flat_values[mat[:, None] * dim + rows]
        block[:, span, span] = flat_energies[idx] + (block[:, span, span] - own)
        vals, vecs = np.linalg.eigh(_symmetrized(block))
        flat_e[idx] = vals
        blocks.append((idx, vecs))
    fields = _conjugate(th, (Isometry(order, tuple(blocks)),), "generic_numeric_rt")
    fields["levels"] = new_e
    return TransformedHamiltonian(**fields)
