"""Dense test oracles: Kronecker-product builders (with the Pauli matrices
and the dense parity operator, the matrix side of the parity sign vector)
and the dense matrix S of every chain step, for checking the structured
conjugations of ``resonancekit.transforms`` against plain ``S^H X S``
products.

The runtime never forms these matrices; they exist only so the tests can
compare the index-remap implementation with the textbook one.  The
commutator-series conjugation plays the same role for ``resonancekit.kam``,
which conjugates by an exactly unitary exp(W).  The dense solve of one
parity block is the eigenvector-carrying counterpart of the exact oracle,
which solves the blocks for eigenvalues only, and the dense solve of every
whole block is the full-spectrum oracle the exact oracle's boxes are checked
against.  The matrix paths behind
strong_avg and strong_rt are the matrix side of the closed forms'
acceptance check, and reading levels off a chain slot by slot is the matrix
side of rt1 and of jc.  The rotating-wave Hamiltonian is the dense model the
averaging of the counter-rotating term reproduces, and the doubled-truncation
comparison is the check the guard band is tested against.  The library
takes stacks only: these helpers pass one matrix or coupling as a stack of
one and read back its row 0, and split one set of clustered levels into its
clusters.
"""

import math

import numpy as np

from resonancekit.averaging import (
    DegeneracyClusters,
    cluster_levels,
    combined_projector,
    project_average,
)
from resonancekit.closedform import rt2_mixing_angle
from resonancekit.kam import unitary_exp
from resonancekit.methods import BRANCH_UNASSIGNED, MethodLevel
from resonancekit.operators import (
    ModelParams,
    TruncationConfig,
    _mat,
    basis_index,
    build_parity_blocks,
    build_rabi,
    parity_signs,
)
from resonancekit.spectrum import (
    PARITY_EVEN,
    PARITY_ODD,
    CouplingErrors,
    EigenDecomposition,
    eigh,
    exact_spectra,
)
from resonancekit.transforms import (
    TransformedHamiltonian,
    atom_rotation_t,
    generic_numeric_rt,
    rt_zero_field,
    strong_chain,
)


# Parity label of a level that has none: the chains without parity bookkeeping.
PARITY_NA = "n/a"

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def exact_spectrum(
    params: ModelParams, trunc: TruncationConfig
) -> tuple[np.ndarray, tuple[str, ...]]:
    """Every eigenvalue of the truncated Hamiltonian, ascending, with its
    parity label: :func:`resonancekit.spectrum.exact_spectra` at the one
    coupling ``params.g``."""
    values, odd = exact_spectra(params.omega, params.omega0, [params.g], trunc.n_max)
    return values[0], tuple(PARITY_ODD if o else PARITY_EVEN for o in odd[0].tolist())


def dense_exact_spectra(
    omega: float, omega0: float, grid, n_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of the truncated Hamiltonian at each coupling of
    ``grid``, as :func:`resonancekit.spectrum.exact_spectra` returns them,
    from a plain dense solve of each whole parity block: (values, odd), both
    (len(grid), 2*(n_max+1)), values ascending and, inside each group of
    levels closer than 1e-8*max(1, max|E|), even labels before odd ones."""
    rows = []
    for g in np.asarray(grid, dtype=float).tolist():
        blocks = build_parity_blocks(ModelParams(omega, omega0, g), TruncationConfig(n_max))
        values = np.concatenate([np.linalg.eigvalsh(
            np.diag(b.diag) + np.diag(b.off, 1) + np.diag(b.off, -1)) for b in blocks])
        odd = np.repeat([False, True], n_max + 1)
        order = np.argsort(values, kind="stable")
        values, odd = values[order], odd[order]
        tol = 1e-8 * max(1.0, np.abs(values).max())
        groups = np.concatenate([[0], np.cumsum(np.diff(values) > tol)])
        rows.append((values, odd[np.lexsort((odd, groups))]))
    return np.array([v for v, _ in rows]), np.array([o for _, o in rows])


def row_error(call, *args, **kwargs) -> Exception:
    """The exception row 0 of a stack of one raises: ``call(*args,
    **kwargs)`` must raise :class:`CouplingErrors` for that row alone."""
    try:
        call(*args, **kwargs)
    except CouplingErrors as exc:
        assert list(exc.errors) == [0], exc.errors
        return exc.errors[0]
    raise AssertionError(f"{call.__name__} raised no CouplingErrors")


def eigh_one(op) -> EigenDecomposition:
    """:func:`resonancekit.spectrum.eigh` of one matrix, as a stack of one."""
    decomp = eigh(np.asarray(op)[None])
    return EigenDecomposition(decomp.values[0], decomp.vectors[0])


def cluster_members(ids) -> tuple[tuple[int, ...], ...]:
    """The level indices of each cluster of one set of clustered levels,
    from their cluster ids (``DegeneracyClusters.ids`` of one row)."""
    bounds = np.flatnonzero(np.diff(ids, append=-1)) + 1
    return tuple(tuple(range(lo, hi)) for lo, hi in zip([0, *bounds[:-1]], bounds))


def cluster_means(values, ids) -> tuple[float, ...]:
    """The mean level of each cluster of one set of clustered levels."""
    return tuple(np.mean(values[list(c)]) for c in cluster_members(ids))


def tensor(field_op: np.ndarray, atom_op: np.ndarray) -> np.ndarray:
    """Kronecker product field_op (x) atom_op in the k = 2n+s convention."""
    field_op = np.asarray(field_op, dtype=complex)
    atom_op = np.asarray(atom_op, dtype=complex)
    if atom_op.shape != (2, 2):
        raise ValueError(f"atom factor must be 2x2, got {atom_op.shape}")
    if field_op.ndim != 2 or field_op.shape[0] != field_op.shape[1]:
        raise ValueError(f"field factor must be square, got {field_op.shape}")
    return np.kron(field_op, atom_op)


def build_parity(trunc: TruncationConfig) -> np.ndarray:
    """Parity operator P = (-1)^N (x) sigma_z; P = P^H, P^2 = 1, [P, H] = 0."""
    return np.diag(parity_signs(trunc))


def build_jaynes_cummings(params: ModelParams, trunc: TruncationConfig) -> np.ndarray:
    """Rotating-wave Hamiltonian: the coupling keeps only the co-rotating
    terms g*(a (x) sigma_+ + a^H (x) sigma_-), which exchange one photon with
    one atomic flip and couple the degenerate pairs |n,+> <-> |n+1,->."""
    n = np.arange(trunc.n_max + 1)
    ladder = params.omega * (n + 0.5)
    h = np.zeros((trunc.dim, trunc.dim))
    plus, minus = 2 * n, 2 * n + 1
    h[plus, plus] = ladder + 0.5 * params.omega0
    h[minus, minus] = ladder - 0.5 * params.omega0
    h[plus[:-1], minus[1:]] = params.g * np.sqrt(n[1:])
    h[minus[1:], plus[:-1]] = params.g * np.sqrt(n[1:])
    return h


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
    """The reduction of the one-photon chain h1 (a stack of one), with the
    per-photon rotation read off the dense r2^H h1_eff r2 block by block."""
    params = h1.params[0]
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
    reference = np.diag(h1.levels[0])
    h1_eff = reference + combined_projector(h1.operator[0] - reference, family, tol_deg=1e-8 * w)
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
    u = atom_block(unitary_exp(-gen[None])[0], zero, zero, unitary_exp(gen[None])[0])
    t = tensor(np.eye(fock_dim), atom_rotation_t())
    return t @ u @ t


def s_generic_numeric_rt(th, tol_deg: float) -> np.ndarray:
    """Dense eigendecomposition of the reference times the in-cluster
    rotations of the effective operator, of the chain th (a stack of one)."""
    ref = np.diag(th.levels[0]).astype(complex)
    decomp = eigh_one(ref)
    u = decomp.vectors
    v_eig = u.conj().T @ (th.operator[0] - ref) @ u
    q = np.eye(th.dim, dtype=complex)
    for cluster in cluster_members(cluster_levels(decomp.values, tol_deg).ids):
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
    return eigh_one(np.diag(block.diag) + np.diag(block.off, 1) + np.diag(block.off, -1))


def build_effective(
    H0, V, decomp: EigenDecomposition, clusters: DegeneracyClusters
) -> np.ndarray:
    """Effective operator H0 + (averaged V); Hermitian by construction."""
    h_eff = _mat(H0) + project_average(V, decomp, clusters)
    return 0.5 * (h_eff + h_eff.conj().swapaxes(-1, -2))  # scrub rotation round-off


def levels_from_chain(th: TransformedHamiltonian, n_levels: int) -> list[MethodLevel]:
    """Read levels off a chain, a stack of one: slot k is a level with energy
    ``levels[0, k]``, photon number k // 2 and parity ``parity[0, k]``.
    Drops the sign-0 slots, which are the kernel slots and hold the spurious
    zeros, and the levels in the top ``loss_band`` photon rows; sorts
    stably, ranks."""
    n_max = th.trunc.n_max if th.trunc is not None else th.dim // 2 - 1
    values, parity = np.asarray(th.levels[0], dtype=float), th.parity[0]
    usable = np.flatnonzero(parity != 0.0)
    usable = usable[usable // 2 <= n_max - th.loss_band]
    usable = usable[np.argsort(values[usable], kind="stable")]
    if len(usable) < n_levels:
        raise ValueError(
            f"requested {n_levels} levels but only {len(usable)} survive the "
            f"guard band (loss_band={th.loss_band}, n_max={n_max})"
        )
    return [
        MethodLevel(level=rank, branch=BRANCH_UNASSIGNED, energy=float(values[k]),
                    parity=PARITY_EVEN if parity[k] > 0 else PARITY_ODD)
        for rank, k in enumerate(usable[:n_levels])
    ]


def strong_avg_decomposition(params: ModelParams, trunc: TruncationConfig):
    """Matrix path behind strong_avg: displaced chain, averaging over the
    doubly degenerate displaced ladder, diagonalization of the effective
    operator.  Returns (decomposition, chain), both stacks of one."""
    th = strong_chain(build_rabi(params, trunc)[None], (params,), trunc)
    reference = np.diag(th.levels[0])[None]
    decomp = eigh(reference)
    clusters = cluster_levels(decomp.values, 1e-8 * params.omega)
    heff = build_effective(reference, th.operator - reference, decomp, clusters)
    return eigh(heff), th


def strong_rt_chain(params: ModelParams, trunc: TruncationConfig) -> TransformedHamiltonian:
    """Matrix path behind strong_rt: displaced chain, zero-field photon-shift
    reduction, numeric diagonalization of the doublet blocks of the averaged
    operator, as a stack of one."""
    th = strong_chain(build_rabi(params, trunc)[None], (params,), trunc)
    th = rt_zero_field(th)
    return generic_numeric_rt(th, tol_deg=1e-8 * params.omega)


def validate_truncation(params: ModelParams, trunc: TruncationConfig) -> int:
    """Largest L such that the lowest L eigenvalues at n_max and 2*n_max agree.

    Agreement threshold is 1e-8*omega.  L = 0 signals an unusable truncation.
    The boundary pair is never certified (L <= dim - 2): the top two levels
    of any truncation belong to the cut edge even when, as at g = 0, their
    values happen to agree with the doubled run.
    """
    small, _ = exact_spectrum(params, trunc)
    big, _ = exact_spectrum(params, TruncationConfig(n_max=2 * trunc.n_max))
    tol = 1e-8 * params.omega
    count = 0
    for e_small, e_big in zip(small, big):
        if abs(e_small - e_big) > tol:
            break
        count += 1
    return min(count, small.shape[0] - 2)
