"""Dense test oracles: Kronecker-product builders and the dense matrix S of
every chain step, for checking the structured conjugations of
``resonancekit.transforms`` against plain ``S^H X S`` products.

The runtime never forms these matrices; they exist only so the tests can
compare the index-remap implementation with the textbook one.  The
commutator-series conjugation plays the same role for ``resonancekit.kam``,
which conjugates by an exactly unitary exp(W).  The dense solve of one
parity block is the eigenvector-carrying counterpart of the exact oracle,
which solves the blocks for eigenvalues only.
"""

import math

import numpy as np

from resonancekit.averaging import cluster_levels, combined_projector
from resonancekit.closedform import rt2_mixing_angle
from resonancekit.kam import unitary_exp
from resonancekit.operators import _mat, basis_index
from resonancekit.spectrum import EigenDecomposition, eigh
from resonancekit.transforms import atom_rotation_t


def tensor(field_op: np.ndarray, atom_op: np.ndarray) -> np.ndarray:
    """Kronecker product field_op (x) atom_op in the k = 2n+s convention."""
    field_op = np.asarray(field_op, dtype=complex)
    atom_op = np.asarray(atom_op, dtype=complex)
    if atom_op.shape != (2, 2):
        raise ValueError(f"atom factor must be 2x2, got {atom_op.shape}")
    if field_op.ndim != 2 or field_op.shape[0] != field_op.shape[1]:
        raise ValueError(f"field factor must be square, got {field_op.shape}")
    return np.kron(field_op, atom_op)


def atom_block(f_pp, f_pm, f_mp, f_mm) -> np.ndarray:
    """Assemble a 2x2 operator-valued block matrix [[f_pp, f_pm], [f_mp, f_mm]]
    from four operators on the field factor."""
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    return sum(tensor(f, e) for f, e in zip((f_pp, f_pm, f_mp, f_mm), units))


def shift_down(fock_dim: int) -> np.ndarray:
    """Normalized lowering shift sum_n |n><n+1| on the field factor."""
    return np.eye(fock_dim, k=1, dtype=complex)


def op_A(fock_dim: int) -> np.ndarray:
    """Two-photon shift A = sum_n sqrt(n+1) |n><n+2|."""
    a = np.zeros((fock_dim, fock_dim), dtype=complex)
    for n in range(fock_dim - 2):
        a[n, n + 2] = math.sqrt(n + 1)
    return a


def op_A_perp0(fock_dim: int) -> np.ndarray:
    """A restricted off the vacuum: sum_{n>=1} sqrt(n+1) |n><n+2|."""
    a = op_A(fock_dim)
    a[0, :] = 0.0
    return a


def build_r2(omega: float, g: float, fock_dim: int) -> np.ndarray:
    """Combined two-photon reduction: two-photon shift on the "+" block away
    from the vacuum, a reflection by the mixing angle on the (0,-)/(2,-)
    pair, identity on (0,+)."""
    dim = 2 * fock_dim
    r2 = np.zeros((dim, dim), dtype=complex)
    for n in range(1, fock_dim - 2):
        r2[basis_index(n, 0), basis_index(n + 2, 0)] = 1.0
    for n in range(1, fock_dim):
        if n != 2:
            r2[basis_index(n, 1), basis_index(n, 1)] = 1.0
    r2[basis_index(0, 0), basis_index(0, 0)] = 1.0
    theta = rt2_mixing_angle(omega, g)
    i0, i2 = basis_index(0, 1), basis_index(2, 1)
    r2[i0, i0] = -math.cos(theta)
    r2[i0, i2] = -math.sin(theta)
    r2[i2, i0] = -math.sin(theta)
    r2[i2, i2] = math.cos(theta)
    return r2


def isometry_matrix(iso, dim: int) -> np.ndarray:
    """Dense S = R B of a structured :class:`resonancekit.transforms.Isometry`."""
    s = np.eye(dim, dtype=complex)
    if iso.remap is not None:
        s = np.zeros((dim, dim), dtype=complex)
        cols = np.flatnonzero(iso.remap >= 0)
        s[iso.remap[cols], cols] = 1.0
    for idx, q in iso.blocks:
        for members, block in zip(idx, q):
            s[:, members] = s[:, members] @ block
    return s


# ------------------------------------------------- dense S of each chain step


def s_rt_one_photon(fock_dim: int) -> np.ndarray:
    eye_f = np.eye(fock_dim, dtype=complex)
    zero = np.zeros_like(eye_f)
    r1 = atom_block(shift_down(fock_dim), zero, zero, eye_f)
    p0 = np.zeros_like(eye_f)
    p0[0, 0] = 1.0
    return r1 @ (tensor(p0, np.eye(2)) + tensor(eye_f - p0, atom_rotation_t()))


def s_rt_two_photon(h1) -> np.ndarray:
    """The reduction of the one-photon chain h1, with the per-photon rotation
    read off the dense r2^H h1_eff r2 block by block."""
    params = h1.params
    fock_dim = h1.trunc.n_max + 1
    w = params.omega
    ns = np.arange(fock_dim)
    family = []
    for n in range(fock_dim - 2):
        g_n = 2.0 * w / (math.sqrt(n) + math.sqrt(n + 2))
        diag = np.empty(2 * fock_dim)
        diag[0::2] = w * ns + g_n * np.sqrt(ns)
        diag[1::2] = w * ns - g_n * np.sqrt(ns)
        family.append(diag)
    reference = np.diag(h1.levels)
    h1_eff = reference + combined_projector(h1.operator - reference, family, tol_deg=1e-8 * w)
    r2 = build_r2(w, params.g, fock_dim)
    m = r2.conj().T @ h1_eff @ r2
    rot = np.eye(2 * fock_dim, dtype=complex)
    for n in range(3, fock_dim):
        i, j = basis_index(n, 0), basis_index(n, 1)
        block = np.array([[m[i, i], m[i, j]], [m[j, i], m[j, j]]])
        _, q = np.linalg.eigh(0.5 * (block + block.conj().T))
        rot[np.ix_([i, j], [i, j])] = q
    return r2 @ rot


def s_rt_zero_field(fock_dim: int) -> np.ndarray:
    eye_f = np.eye(fock_dim, dtype=complex)
    zero = np.zeros_like(eye_f)
    return atom_block(eye_f, zero, zero, shift_down(fock_dim))


def s_strong_chain(params, fock_dim: int) -> np.ndarray:
    a = np.diag(np.sqrt(np.arange(1, fock_dim)), k=1).astype(complex)
    gen = (params.g / params.omega) * (a.conj().T - a)
    zero = np.zeros_like(a)
    u = atom_block(unitary_exp(-gen), zero, zero, unitary_exp(gen))
    t = tensor(np.eye(fock_dim), atom_rotation_t())
    return t @ u @ t


def s_generic_numeric_rt(th, tol_deg: float) -> np.ndarray:
    """Dense eigendecomposition of the reference times the in-cluster
    rotations of the effective operator."""
    ref = np.diag(th.levels).astype(complex)
    decomp = eigh(ref)
    u = decomp.vectors
    v_eig = u.conj().T @ (th.operator - ref) @ u
    q = np.eye(th.dim, dtype=complex)
    for cluster in cluster_levels(decomp.values, tol_deg).clusters:
        idx = list(cluster)
        block = np.diag(decomp.values[idx]) + v_eig[np.ix_(idx, idx)]
        _, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
        q[np.ix_(idx, idx)] = vecs
    return u @ q


def conjugate_by_series(H, W, m_max: int = 12) -> np.ndarray:
    """Series form of exp(-W) H exp(W), commutator expansion cut at order m_max.

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


def eigh_block(block) -> EigenDecomposition:
    """Checked dense eigendecomposition of one parity block, eigenvectors in
    the block's own basis (row j is the state at ``block.indices[j]``)."""
    return eigh(np.diag(block.diag) + np.diag(block.off, 1) + np.diag(block.off, -1))
