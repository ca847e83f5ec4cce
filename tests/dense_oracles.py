"""Dense test oracles: Kronecker-product builders (with the Pauli matrices
and the dense parity operator, the matrix side of the parity sign vector)
and the dense matrix S of every chain step, for checking the structured
conjugations of ``resonancekit.transforms`` against plain ``S^H X S``
products.

The runtime never forms these matrices; they exist only so the tests can
compare the index-remap implementation with the textbook one.  The
commutator-series conjugation plays the same role for ``resonancekit.kam``,
which conjugates by an exactly unitary exp(W), and the eigenbasis round
trip of a reference that is not diagonal (``averaged_in_basis``) plays it
for ``resonancekit.averaging``, which takes V in the eigenbasis of a
diagonal reference held as its levels.  The dense solve of one
parity block is the eigenvector-carrying counterpart of the exact oracle,
which solves the blocks for eigenvalues only, and the dense solve of every
whole block is the full-spectrum oracle the exact oracle's boxes are checked
against.  The matrix paths behind strong_avg and strong_rt, the displaced
chain and its zero-field shift, exist only here, as dense products: they
are the matrix side of the closed forms' acceptance check, and reading
levels off a chain slot by slot is the matrix side of rt1 and of jc.  The
rotating-wave Hamiltonian is the dense model the averaging of the
counter-rotating term reproduces, and the doubled-truncation comparison is
the check the guard band is tested against.  The library
takes stacks only: these helpers pass one matrix or coupling as a stack of
one and read back its row 0, and split one set of clustered levels into its
clusters.
"""

import math

import numpy as np
import scipy.linalg

from resonancekit.averaging import (
    cluster_levels, combined_projector, project_average, solve_cohomological
)
from resonancekit.closedform import rt2_mixing_angle
from resonancekit.methods import BRANCH_UNASSIGNED
from resonancekit.operators import (
    ModelParams,
    TruncationConfig,
    _mat,
    basis_index,
    build_parity_blocks,
    build_rabi,
    displacement_band,
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
from resonancekit.transforms import TransformedHamiltonian, atom_rotation_t, generic_numeric_rt


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
    omega: float, omega0: float, grid, n_max: int, n_levels: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Every eigenvalue of the truncated Hamiltonian at each coupling of
    ``grid``, labelled as :func:`resonancekit.spectrum.exact_spectra` labels
    its lowest ``n_levels`` (default: all), from a plain dense solve of each
    whole parity block: (values, odd), both (len(grid), 2*(n_max+1)), values
    ascending and, inside each group of levels closer than
    1e-8*max(omega, max|E|) over the n_levels + 1 lowest, even labels before
    odd ones."""
    rows = []
    for g in np.asarray(grid, dtype=float).tolist():
        blocks = build_parity_blocks(ModelParams(omega, omega0, g), TruncationConfig(n_max))
        values = np.concatenate([np.linalg.eigvalsh(
            np.diag(b.diag) + np.diag(b.off, 1) + np.diag(b.off, -1)) for b in blocks])
        odd = np.repeat([False, True], n_max + 1)
        order = np.argsort(values, kind="stable")
        values, odd = values[order], odd[order]
        lowest = values if n_levels is None else values[:n_levels + 1]
        tol = 1e-8 * max(omega, np.abs(lowest).max())
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
    from their cluster ids (one row of what ``cluster_levels`` returns)."""
    bounds = np.flatnonzero(np.diff(ids, append=-1)) + 1
    return tuple(tuple(range(lo, hi)) for lo, hi in zip([0, *bounds[:-1]], bounds))


def cluster_means(values, ids) -> tuple[float, ...]:
    """The mean level of each cluster of one set of clustered levels."""
    return tuple(np.mean(values[list(c)]) for c in cluster_members(ids))


def ladder_ops(trunc: TruncationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation, creation and number operators on the field factor:
    a[n, n+1] = sqrt(n+1), a_dag = a^T, N = diag(0..n_max)."""
    a = np.diag(np.sqrt(np.arange(1.0, trunc.n_max + 1)), k=1)
    return a, a.T.copy(), np.diag(np.arange(trunc.n_max + 1.0))


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
    # the diagonal is in-cluster for every member, so the levels stay in place
    h1_eff = combined_projector(h1.operator[0], family, tol_deg=1e-8 * w)
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


def s_strong_chain(params: ModelParams, trunc: TruncationConfig) -> np.ndarray:
    """Atomic rotation, the opposite displacements exp(-/+G) of the two
    atomic blocks, G = (g/omega)(a^H - a), and the atomic rotation again: the
    parity-adapted displaced basis of the generalized rotating-wave
    approximation (Irish, PRL 99, 173601 (2007))."""
    a, a_dag, _ = ladder_ops(trunc)
    gen = (params.g / params.omega) * (a_dag - a)
    zero = np.zeros_like(a)
    u = atom_block(scipy.linalg.expm(-gen), zero, zero, scipy.linalg.expm(gen))
    t = tensor(np.eye(trunc.n_max + 1), atom_rotation_t())
    return t @ u @ t


def s_generic_numeric_rt(th, tol_deg: float) -> np.ndarray:
    """Dense permutation sorting the reference levels (the reference
    eigenbasis) times the in-cluster rotations of the effective operator, of
    the chain th (a stack of one)."""
    order = np.argsort(th.levels[0], kind="stable")
    u = np.eye(th.dim, dtype=complex)[:, order]
    h_eig = u.conj().T @ th.operator[0] @ u
    q = np.eye(th.dim, dtype=complex)
    for cluster in cluster_members(cluster_levels(th.levels[0, order], tol_deg)):
        idx = list(cluster)
        block = h_eig[np.ix_(idx, idx)]
        _, vecs = np.linalg.eigh(0.5 * (block + block.conj().T))
        q[np.ix_(idx, idx)] = vecs
    return u @ q


def chain_residue(th: TransformedHamiltonian, slots=slice(None)) -> tuple[np.ndarray, np.ndarray]:
    """The reference levels of the chain th at ``slots`` and its operator
    there without them on the diagonal: the (G, n) levels and the (G, n, n)
    perturbation, in the reference eigenbasis, that the contact step takes."""
    levels = th.levels[:, slots]
    v = th.operator[:, slots][:, :, slots].copy()
    span = np.arange(levels.shape[-1])
    v[:, span, span] -= levels
    return levels, v


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


def averaged_in_basis(h0, v, tol_deg) -> tuple[np.ndarray, np.ndarray]:
    """The averaged part of v and the generator W of the cohomological
    equation [h0, W] + v = averaged part, for a Hermitian reference h0 that
    need not be diagonal, one matrix each, in the basis h0 and v are given
    in: h0 is diagonalized, v averaged and solved in its eigenbasis (gap
    tolerance tol_deg) and both rotated back."""
    decomp = eigh(np.asarray(h0)[None])
    u = decomp.vectors[0]
    ids = cluster_levels(decomp.values, tol_deg)
    v_eig = (u.conj().T @ v @ u)[None]
    d = project_average(v_eig, ids)[0]
    w = solve_cohomological(v_eig, decomp.values, ids, tol_deg)[0]
    return u @ d @ u.conj().T, u @ w @ u.conj().T


def levels_from_chain(th: TransformedHamiltonian, n_levels: int) -> list[tuple[str, str, float]]:
    """Read levels off a chain, a stack of one, as ``MethodSweep.point``
    gives them, (branch, parity, energy): slot k is a level with energy
    ``levels[0, k]``, photon number k // 2 and parity ``parity[0, k]``.
    Drops the sign-0 slots, which are the kernel slots and hold the spurious
    zeros, and the levels in the top ``loss_band`` photon rows; sorts
    stably."""
    n_max = th.trunc.n_max
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
        (BRANCH_UNASSIGNED, PARITY_EVEN if parity[k] > 0 else PARITY_ODD, float(values[k]))
        for k in usable[:n_levels]
    ]


def strong_chain(params: ModelParams, trunc: TruncationConfig, zero_field: bool = False):
    """The Hamiltonian conjugated by the dense S of :func:`s_strong_chain`,
    then by that of :func:`s_rt_zero_field` if ``zero_field``, as a stack of
    one.  The reference is the displaced ladder omega*(n+1/2) - g^2/omega
    on both atomic slots, or the bare ladder omega*n after the zero-field
    shift; S^T P S = -P (T^T sigma_z T = -sigma_x, T^T sigma_x T = sigma_z
    and Pi D(a) Pi = D(-a), which holds in the truncated box), and the
    zero-field shift gathers that sign vector with 0 on its kernel slot
    |0,->.  Entries between two parity classes are 0 in exact arithmetic and
    rounding in the dense product; they are set to 0, so that a degenerate
    cluster of the chain's levels never mixes the classes."""
    fock_dim = trunc.n_max + 1
    s = s_strong_chain(params, trunc)
    w, ns = params.omega, np.arange(fock_dim)
    levels = np.repeat(w * (ns + 0.5) - params.g * params.g / w, 2)
    parity = -parity_signs(trunc)
    loss_band = min(displacement_band(params), trunc.n_max)
    if zero_field:
        s = s @ s_rt_zero_field(fock_dim)
        levels, loss_band = np.repeat(w * ns.astype(float), 2), loss_band + 1
        parity[1::2] = np.append(0.0, parity[1:-1:2])
    operator = np.real(s.conj().T @ build_rabi(params, trunc) @ s)
    operator[parity[:, None] != parity[None, :]] = 0.0
    return TransformedHamiltonian(
        operator=operator[None], levels=levels[None], parity=parity[None],
        provenance=("strong_chain",), loss_band=loss_band, params=(params,), trunc=trunc,
    )


def strong_avg_decomposition(params: ModelParams, trunc: TruncationConfig):
    """Matrix path behind strong_avg: displaced chain, averaging over the
    doubly degenerate displaced ladder, diagonalization of the effective
    operator.  Returns (decomposition, chain), both stacks of one."""
    th = strong_chain(params, trunc)
    # the reference is the chain's levels, so averaging over it keeps the
    # chain operator's entries between slots of one cluster of the levels
    heff = combined_projector(th.operator, [th.levels[0]], 1e-8 * params.omega)
    return eigh(heff), th


def strong_rt_chain(params: ModelParams, trunc: TruncationConfig) -> TransformedHamiltonian:
    """Matrix path behind strong_rt: displaced chain, zero-field photon-shift
    reduction, numeric diagonalization of the doublet blocks of the averaged
    operator, as a stack of one."""
    return generic_numeric_rt(strong_chain(params, trunc, zero_field=True),
                              tol_deg=1e-8 * params.omega)


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
