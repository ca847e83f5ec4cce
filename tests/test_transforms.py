"""Resonant transformations: shift isometries, rotations, chains."""

import numpy as np
import pytest

from resonancekit.averaging import cluster_levels
from resonancekit.closedform import closed_form_table, rt2_mixing_angle
from resonancekit.methods import (
    kam_truncation,
    rabi_rt1_chain,
    rabi_rt2_chain,
    rt2_iterated_chain,
)
from resonancekit.operators import (
    ATOM_MINUS,
    ATOM_PLUS,
    ModelParams,
    TruncationConfig,
    basis_index,
    _symmetrized,
    basis_label,
    build_rabi,
    parity_signs,
)
from resonancekit.spectrum import eigh
from resonancekit.transforms import (
    Isometry,
    TransformedHamiltonian,
    atom_rotation_t,
    generic_numeric_rt,
    rt_one_photon,
    rt_two_photon,
)

from dense_oracles import (
    SIGMA_X,
    SIGMA_Z,
    build_jaynes_cummings,
    build_r2,
    cluster_members,
    isometry_matrix,
    levels_from_chain,
    op_A,
    op_A_perp0,
    row_error,
    s_generic_numeric_rt,
    s_rt_one_photon,
    s_rt_two_photon,
    shift_down,
    strong_chain,
    tensor,
)


def _bare(operator, levels):
    """A chain holding just an operator and its reference levels, as a stack
    of one; its params and truncation are those of the operator's box at
    g = 0, and its parity is one class (+1 on every slot), which every
    rotation keeps."""
    operator = np.asarray(operator, dtype=float)[None]
    return TransformedHamiltonian(
        operator=operator,
        levels=np.asarray(levels, dtype=float)[None],
        parity=np.ones(operator.shape[:-1]), provenance=(), loss_band=0,
        params=(_params(0.0),), trunc=TruncationConfig(n_max=operator.shape[-1] // 2 - 1),
    )


def _kernel_labels(th):
    """Labels of the sign-0 (kernel) slots of a chain, a stack of one."""
    return [basis_label(k) for k in np.flatnonzero(th.parity[0] == 0.0)]


def _projector(dim, *indices):
    p = np.zeros((dim, dim), dtype=complex)
    for k in indices:
        p[k, k] = 1.0
    return p


# ---------------------------------------------------------------- pieces


def test_atom_rotation_is_special_orthogonal():
    t = atom_rotation_t()
    np.testing.assert_allclose(t, np.array([[1, -1], [1, 1]]) / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(t.conj().T @ t, np.eye(2), atol=1e-15)
    assert np.linalg.det(t).real == pytest.approx(1.0, abs=1e-14)


def test_atom_rotation_exchanges_pauli_axes():
    t = atom_rotation_t()
    np.testing.assert_allclose(t.conj().T @ SIGMA_X @ t, SIGMA_Z, atol=1e-15)
    np.testing.assert_allclose(t.conj().T @ SIGMA_Z @ t, -SIGMA_X, atol=1e-15)


def test_shift_down_partial_isometry_identities():
    b = shift_down(4)
    np.testing.assert_array_equal(b, np.eye(4, k=1))
    np.testing.assert_array_equal(b @ b.conj().T, np.diag([1.0, 1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(b.conj().T @ b, np.diag([0.0, 1.0, 1.0, 1.0]))


def test_op_A_entries_and_identities():
    fock = 6
    a = op_A(fock)
    for n in range(fock - 2):
        assert a[n, n + 2] == np.sqrt(n + 1.0)
    assert np.count_nonzero(a) == fock - 2
    # Identities hold entrywise: same scalar products, bit for bit.
    expect_lower = np.zeros(fock)
    expect_lower[: fock - 2] = [np.sqrt(n + 1.0) ** 2 for n in range(fock - 2)]
    np.testing.assert_array_equal(a @ a.conj().T, np.diag(expect_lower))
    expect_raise = np.zeros(fock)
    expect_raise[2:] = [np.sqrt(n + 1.0) ** 2 for n in range(fock - 2)]
    np.testing.assert_array_equal(a.conj().T @ a, np.diag(expect_raise))


def test_op_A_perp0_drops_vacuum_row():
    fock = 6
    a = op_A(fock)
    a_perp = op_A_perp0(fock)
    np.testing.assert_array_equal(a_perp[0], np.zeros(fock))
    np.testing.assert_array_equal(a_perp[1:], a[1:])


# ---------------------------------------------------------------- rt1


def _params(g):
    return ModelParams(omega=1.0, omega0=1.0, g=g)


def _one(g):
    """The coupling g as a stack of one."""
    return (_params(g),)


def test_rt_one_photon_diagonalizes_co_rotating_model():
    params = _params(0.35)
    trunc = TruncationConfig(n_max=20)
    h = build_jaynes_cummings(params, trunc)
    th = rt_one_photon(h[None], (params,), trunc)
    operator, levels = th.operator[0], th.levels[0]
    scale = np.abs(operator).max()
    off = operator - np.diag(np.diag(operator))
    assert np.abs(off).max() <= 1e-12 * scale
    np.testing.assert_allclose(operator, np.diag(levels), atol=1e-12 * scale)
    # Levels: omega*n +/- g*sqrt(n) interleaved by slot.
    ns = np.arange(trunc.n_max + 1)
    assert np.array_equal(levels[0::2], ns + 0.35 * np.sqrt(ns))
    assert np.array_equal(levels[1::2], ns - 0.35 * np.sqrt(ns))


def test_rt_one_photon_trades_top_level_for_spurious_zero():
    params = _params(0.4)
    trunc = TruncationConfig(n_max=15)
    h = build_jaynes_cummings(params, trunc)
    th = rt_one_photon(h[None], (params,), trunc)
    got = np.sort(np.linalg.eigvalsh(th.operator[0]))
    exact = np.sort(np.linalg.eigvalsh(h))
    # The unpaired bare level omega*(n_max + 1) is lost to the shift; a
    # spurious zero appears in its stead.  (It is not the largest
    # eigenvalue: the top dressed pair reaches higher.)
    unpaired = int(np.argmin(np.abs(exact - (trunc.n_max + 1.0))))
    assert exact[unpaired] == pytest.approx(trunc.n_max + 1.0, abs=1e-10)
    expect = np.sort(np.concatenate([np.delete(exact, unpaired), [0.0]]))
    np.testing.assert_allclose(got, expect, atol=1e-10)


def test_rt_one_photon_keeps_low_spectrum_of_full_model():
    params = _params(0.1)
    trunc = TruncationConfig(n_max=30)
    h = build_rabi(params, trunc)
    th = rt_one_photon(h[None], (params,), trunc)
    # The kernel slot's row and column are exactly 0: leaving out the one
    # sign-0 slot leaves out exactly the spurious zero.
    keep = np.flatnonzero(th.parity[0] != 0.0)
    assert keep.size == trunc.dim - 1
    cleaned = eigh(th.operator[:, keep[:, None], keep]).values[0]
    exact = eigh(h[None]).values[0]
    np.testing.assert_allclose(cleaned[:12], exact[:12], atol=1e-9)


def test_rt_one_photon_decoupled_case_is_preserved():
    params = _params(0.0)
    trunc = TruncationConfig(n_max=10)
    h = build_jaynes_cummings(params, trunc)
    th = rt_one_photon(h[None], (params,), trunc)
    np.testing.assert_allclose(th.operator[0], np.diag(th.levels[0]), atol=1e-12)
    ns = np.arange(trunc.n_max + 1, dtype=float)
    np.testing.assert_array_equal(th.levels[0], np.repeat(ns, 2))


def test_rt_one_photon_validates_input():
    params = _params(0.2)
    trunc = TruncationConfig(n_max=10)
    h = build_jaynes_cummings(params, trunc)[None]
    with pytest.raises(ValueError, match="dimension mismatch"):
        rt_one_photon(h[:, :-2, :-2], (params,), trunc)
    detuned = ModelParams(omega=1.0, omega0=0.8, g=0.2)
    with pytest.raises(ValueError, match="require omega0 = omega"):
        rt_one_photon(h, (detuned,), trunc)


def test_rt_one_photon_record_identities_exact():
    params = _params(0.3)
    trunc = TruncationConfig(n_max=12)
    dim = trunc.dim
    th = rt_one_photon(build_rabi(params, trunc)[None], (params,), trunc)
    assert len(th.records) == 1
    rec = th.records[0]
    # A one-photon shift: one kernel slot, one lost row.
    assert [basis_label(k) for k in rec.kernel_slots] == ["|0,+>"]
    top_plus = basis_index(trunc.n_max, ATOM_PLUS)
    vac_plus = basis_index(0, ATOM_PLUS)
    # The remap sends each column to its own row, except the "+" shift by
    # one photon: |0,+> is the kernel and |n_max,+> is never reached.
    remap = rec.remap
    assert remap[vac_plus] == -1
    for n in range(1, trunc.n_max + 1):
        assert remap[basis_index(n, ATOM_PLUS)] == basis_index(n - 1, ATOM_PLUS)
        assert remap[basis_index(n, ATOM_MINUS)] == basis_index(n, ATOM_MINUS)
    assert rec.kernel_slots.tolist() == [vac_plus]
    assert rec.lost_slots.tolist() == [top_plus]
    assert rec.blocks == ()
    r = isometry_matrix(rec, dim)
    np.testing.assert_array_equal(r, tensor(shift_down(trunc.n_max + 1), np.diag([1, 0]))
                                  + tensor(np.eye(trunc.n_max + 1), np.diag([0, 1])))
    np.testing.assert_array_equal(
        r @ r.conj().T, np.eye(dim) - _projector(dim, top_plus)
    )
    np.testing.assert_array_equal(
        r.conj().T @ r, np.eye(dim) - _projector(dim, vac_plus)
    )


def test_rt_one_photon_spurious_bookkeeping():
    params = _params(0.3)
    trunc = TruncationConfig(n_max=12)
    th = rt_one_photon(build_rabi(params, trunc)[None], (params,), trunc)
    assert th.loss_band == 1
    assert th.provenance == ("rt_one_photon",)
    # The spurious zero sits on the one sign-0 slot, whose row and column
    # are exactly 0: e_0 is an exact zero eigenvector.
    assert _kernel_labels(th) == ["|0,+>"]
    operator = th.operator[0]
    assert not operator[0].any() and not operator[:, 0].any()


def test_rt_one_photon_parity_still_commutes():
    params = _params(0.3)
    trunc = TruncationConfig(n_max=14)
    th = rt_one_photon(build_rabi(params, trunc)[None], (params,), trunc)
    p, operator = th.parity[0], th.operator[0]
    comm = p[:, None] * operator - operator * p[None, :]
    assert np.abs(comm).max() == 0.0
    # The carried parity is S^H P S for an isometry S with a rank-one
    # kernel: a sign on every slot but the kernel slot |0,+>.
    assert np.flatnonzero(p == 0).tolist() == [basis_index(0, ATOM_PLUS)]
    assert set(np.abs(p[1:]).tolist()) == {1.0}


def test_rt_one_photon_remainder_couples_two_photon_blocks_only():
    params = _params(0.3)
    trunc = TruncationConfig(n_max=14)
    th = rt_one_photon(build_rabi(params, trunc)[None], (params,), trunc)
    v1 = th.operator[0] - np.diag(th.levels[0])
    scale = max(np.abs(v1).max(), 1e-300)
    support = set()
    fock = trunc.n_max + 1
    for m in range(fock):
        for n in range(fock):
            block = v1[2 * m : 2 * m + 2, 2 * n : 2 * n + 2]
            if np.abs(block).max() > 1e-12 * scale:
                support.add(abs(m - n))
    assert support == {2}


# ---------------------------------------------------------------- rt2


def test_rt_two_photon_bookkeeping():
    trunc = TruncationConfig(n_max=24)
    th2 = rabi_rt2_chain(_one(0.3), trunc)
    assert th2.provenance == ("rt_one_photon", "rt_two_photon")
    assert th2.loss_band == 3
    assert _kernel_labels(th2) == ["|0,+>", "|1,+>", "|2,+>"]
    assert len(th2.records) == 2
    # A two-photon shift: two kernel slots, two lost rows.
    assert len(th2.records[1].kernel_slots) == 2
    assert len(th2.records[1].lost_slots) == 2


def test_build_r2_partial_isometry_identities():
    fock = 12
    dim = 2 * fock
    th2 = rabi_rt2_chain(_one(0.4), TruncationConfig(n_max=fock - 1))
    iso = th2.records[1]
    kernel = [basis_index(1, ATOM_PLUS), basis_index(2, ATOM_PLUS)]
    lost = [basis_index(fock - 2, ATOM_PLUS), basis_index(fock - 1, ATOM_PLUS)]
    assert iso.kernel_slots.tolist() == kernel
    assert iso.lost_slots.tolist() == lost
    # Two-photon "+" shift away from the vacuum; every other slot stays.
    for n in range(3, fock):
        assert iso.remap[basis_index(n, ATOM_PLUS)] == basis_index(n - 2, ATOM_PLUS)
    keep = [k for k in range(dim) if k % 2 == ATOM_MINUS or k == basis_index(0, ATOM_PLUS)]
    np.testing.assert_array_equal(iso.remap[keep], keep)
    # The record's only block is the (0,-)/(2,-) reflection; remap plus
    # reflection is the dense r2 entry for entry.
    r2 = isometry_matrix(iso, dim)
    np.testing.assert_array_equal(r2, build_r2(1.0, 0.4, fock))
    np.testing.assert_allclose(
        r2.conj().T @ r2, np.eye(dim) - _projector(dim, *kernel), atol=1e-14
    )
    np.testing.assert_allclose(
        r2 @ r2.conj().T, np.eye(dim) - _projector(dim, *lost), atol=1e-14
    )


def test_rt2_mixing_angle():
    assert rt2_mixing_angle(1.0, 0.0) == 0.0
    for g in (0.2, 0.7, 1.3):
        theta = rt2_mixing_angle(1.0, g)
        num, den = g * np.sqrt(2.0), 2.0 - g * np.sqrt(2.0)
        assert np.tan(2.0 * theta) * den == pytest.approx(num, rel=1e-12)


def test_rt_two_photon_decoupled_levels_form_shifted_ladder():
    trunc = TruncationConfig(n_max=20)
    th2 = rabi_rt2_chain(_one(0.0), trunc)
    energies = [energy for _, _, energy in levels_from_chain(th2, 8)]
    # The two-photon shift relabels the "+" slots but the physical ladder
    # is unchanged: 0 once (no spurious zero), every positive rung twice.
    np.testing.assert_allclose(energies, [0, 1, 1, 2, 2, 3, 3, 4], atol=1e-10)


def test_rt_two_photon_matches_closed_form():
    params = _params(0.3)
    trunc = TruncationConfig(n_max=40)
    th2 = rabi_rt2_chain((params,), trunc)
    chain_levels = [energy for _, _, energy in levels_from_chain(th2, 10)]
    table = closed_form_table("rt2", params.omega, params.omega0, [params.g], 14)
    closed = np.sort(table.energies[0][~table.spurious])[:10]
    np.testing.assert_allclose(chain_levels, closed, atol=1e-8)


# ---------------------------------------------------------------- generic


def test_generic_numeric_rt_identity_when_nothing_resonates(rng):
    ref = np.arange(6, dtype=float)
    v = rng.standard_normal((6, 6)) * 0.01
    v = v + v.T
    np.fill_diagonal(v, 0.0)
    th = generic_numeric_rt(_bare(np.diag(ref) + v, ref), tol_deg=1e-6)
    # Ascending nondegenerate diagonal reference and no averaged coupling:
    # the transformation is the exact identity, bit for bit.
    assert np.array_equal(th.operator[0], np.diag(ref) + v)
    assert np.array_equal(th.levels[0], ref)
    assert th.provenance == ("generic_numeric_rt",)
    assert th.records == ()
    assert th.loss_band == 0


def test_generic_numeric_rt_dresses_degenerate_pairs():
    params = _params(0.25)
    trunc = TruncationConfig(n_max=16)
    h_jc = build_jaynes_cummings(params, trunc)
    free = build_rabi(ModelParams(1.0, 1.0, 0.0), trunc)
    th = generic_numeric_rt(_bare(h_jc, np.real(np.diag(free))), tol_deg=1e-3)
    got = np.sort(th.levels[0])
    exact = np.linalg.eigvalsh(h_jc)
    np.testing.assert_allclose(got, exact, atol=1e-10)


# ---------------------------------------------------------------- stacks


@pytest.mark.parametrize("second", [ModelParams(2.0, 2.0, 0.1), ModelParams(1.0, 0.5, 0.1)])
def test_a_stack_with_mixed_frequencies_is_rejected(second):
    # Every row of a stack is built with the first row's omega and omega0,
    # so rows that disagree on either would be silently wrong.
    trunc = TruncationConfig(n_max=8)
    params = (ModelParams(1.0, 1.0, 0.1), second)
    named = rf"\(1\.0, 1\.0\) and \({second.omega}, {second.omega0}\)"
    with pytest.raises(ValueError, match=named):
        rabi_rt1_chain(params, trunc)


def test_chain_operators_are_float64():
    params = _params(0.4)
    trunc = TruncationConfig(n_max=20)
    for th in (rabi_rt1_chain((params,), trunc), rt2_iterated_chain((params,), trunc)):
        assert th.operator.dtype == np.float64, th.provenance


# ------------------------------------------- structured vs dense products


def _step_case(step, params, trunc):
    """(input chain, the step applied to it, dense S of that step, kernel
    slots the step adds); the chains are stacks of one."""
    fock = trunc.n_max + 1
    h = build_rabi(params, trunc)[None]
    one = (params,)
    bare = TransformedHamiltonian(
        operator=h, levels=np.diagonal(h, axis1=-2, axis2=-1), parity=parity_signs(trunc)[None],
        provenance=(), loss_band=0, params=one, trunc=trunc,
    )
    zero_field = strong_chain(params, trunc, zero_field=True)
    rt1 = rt_one_photon(h, one, trunc)
    if step == "rt_one_photon":
        return bare, lambda th: rt_one_photon(th.operator, one, trunc), \
            s_rt_one_photon(fock), [basis_index(0, ATOM_PLUS)]
    if step == "rt_two_photon":
        return rt1, rt_two_photon, s_rt_two_photon(rt1), \
            [basis_index(1, ATOM_PLUS), basis_index(2, ATOM_PLUS)]
    if step == "generic_numeric_rt/zero_field":
        return zero_field, lambda th: generic_numeric_rt(th, tol_deg=1e-8), \
            s_generic_numeric_rt(zero_field, 1e-8), []
    if step == "generic_numeric_rt/rt2":
        chain = rt_two_photon(rt1)
        return chain, lambda th: generic_numeric_rt(th, tol_deg=1e-3), \
            s_generic_numeric_rt(chain, 1e-3), []
    raise AssertionError(step)


@pytest.mark.parametrize("g", [0.0, 0.15, 0.3, 0.6])
@pytest.mark.parametrize("n_max", [12, 24])
@pytest.mark.parametrize(
    "step",
    [
        "rt_one_photon",
        "rt_two_photon",
        "generic_numeric_rt/zero_field",
        "generic_numeric_rt/rt2",
    ],
)
def test_structured_step_matches_dense_conjugation(step, n_max, g):
    trunc = TruncationConfig(n_max=n_max)
    th_in, apply, s, new_kernels = _step_case(step, _params(g), trunc)
    th_out = apply(th_in)
    operator_in, parity_in = th_in.operator[0], th_in.parity[0]
    scale = max(np.abs(operator_in).max(), 1.0)
    np.testing.assert_allclose(
        th_out.operator[0], s.conj().T @ operator_in @ s, rtol=0, atol=1e-13 * scale
    )
    # Every step keeps the parity diagonal, so the sign vector is all of it.
    parity = s.conj().T @ np.diag(parity_in) @ s
    np.testing.assert_allclose(th_out.parity[0], np.real(np.diag(parity)), rtol=0, atol=1e-13)
    assert np.abs(parity - np.diag(np.diag(parity))).max() <= 1e-13
    # The step's kernel slots join the sign-0 slots the input carried.
    kernel = np.flatnonzero(th_out.parity[0] == 0.0)
    assert set(new_kernels) <= set(kernel.tolist())
    assert kernel.size == np.count_nonzero(parity_in == 0.0) + len(new_kernels)


def test_isometry_matches_its_dense_matrix(rng, make_hermitian):
    # Remap with two kernel columns, real 2x2 and 3x3 orthogonal blocks.
    dim = 11
    remap = rng.permutation(dim)
    remap[[2, 7]] = -1
    idx2 = np.array([[0, 5], [3, 9]])
    idx3 = np.array([[1, 4, 10]])

    def orthogonals(m, k):
        return np.linalg.qr(rng.standard_normal((m, k, k)))[0]

    iso = Isometry(remap, ((idx2, orthogonals(2, 2)), (idx3, orthogonals(1, 3))))
    s = isometry_matrix(iso, dim)
    x = make_hermitian(rng, dim)
    np.testing.assert_allclose(iso.conjugate(x[None])[0], s.T @ x @ s, atol=1e-14)
    # A sign vector whose gathered classes are constant on every block stays
    # diagonal; kernel columns read 0.
    gathered = rng.choice([-1.0, 1.0], size=dim)
    gathered[idx2[0]], gathered[idx2[1]], gathered[idx3[0]] = 1.0, -1.0, -1.0
    p = np.empty(dim)
    p[remap[remap >= 0]] = gathered[remap >= 0]
    p[np.setdiff1d(np.arange(dim), remap)] = 1.0
    conjugated = s.T @ np.diag(p) @ s
    mapped = iso.conjugate_parity(p[None])[0]
    np.testing.assert_allclose(mapped, np.diag(conjugated), atol=1e-14)
    np.testing.assert_allclose(conjugated, np.diag(np.diag(conjugated)), atol=1e-14)
    assert mapped[[2, 7]].tolist() == [0.0, 0.0]
    assert iso.kernel_slots.tolist() == [2, 7]
    assert iso.lost_slots.tolist() == sorted(set(range(dim)) - set(remap[remap >= 0]))


@pytest.mark.parametrize(
    "field, value",
    [
        ("levels", np.zeros((4, 4))),
        ("levels", np.zeros(3)),
        ("levels", np.zeros(5)),
        ("levels", np.zeros((4, 1))),
        ("parity", np.eye(4)),
        ("parity", np.full(4, 0.5)),
    ],
    ids=["levels0", "levels1", "levels2", "levels3", "parity_matrix", "parity_not_signs"],
)
def test_transformed_hamiltonian_rejects_misshapen_levels(field, value):
    fields = dict(
        operator=np.eye(4), levels=np.zeros(4), parity=np.ones(4),
        provenance=(), loss_band=0, params=(_params(0.0),), trunc=TruncationConfig(n_max=1),
    )
    fields[field] = value
    with pytest.raises(ValueError, match=rf"{field} must .*\b4\b"):
        TransformedHamiltonian(**fields)


def test_generic_numeric_rt_reads_eigenbasis_off_the_diagonal():
    # Unsorted diagonal with a degenerate pair: the stable ascending sort
    # is the permutation, the pair is rotated by the eigenvectors of its
    # effective block, singletons just shift by the diagonal of V.
    ref = np.array([3.0, 1.0, 2.0, 1.0])
    v = np.zeros((4, 4))
    v[1, 3] = v[3, 1] = 0.5
    v[0, 0], v[2, 2] = 0.25, -0.125
    th = generic_numeric_rt(_bare(np.diag(ref) + v, ref), tol_deg=1e-6)
    np.testing.assert_allclose(th.levels[0], [0.5, 1.5, 1.875, 3.25])
    np.testing.assert_allclose(th.operator[0], np.diag([0.5, 1.5, 1.875, 3.25]), atol=1e-15)


def test_generic_numeric_rt_levels_are_the_dense_cluster_blocks_bit_for_bit():
    # On the rt2 chains of the rt_full_kam sweep (0 <= g <= 0.3 at 12
    # levels), a cluster's new levels are the eigenvalues of diag(sorted
    # levels) + (block - diag(own levels)), the operator's block at the
    # cluster's sorted slots, and a singleton shifts by Re V_ii: the same
    # bits as when both diagonals were dense matrices.
    tol = 1e-3
    chain = rabi_rt2_chain(tuple(_params(g) for g in np.linspace(0.0, 0.3, 81)),
                           kam_truncation(12))
    levels = generic_numeric_rt(chain, tol_deg=tol).levels
    clustered = 0
    for r, (own, op) in enumerate(zip(chain.levels, chain.operator)):
        order = np.argsort(own, kind="stable")
        energies = own[order]
        expected = energies + np.real(np.diagonal(op) - own)[order]
        for idx in map(list, cluster_members(cluster_levels(energies, tol))):
            if len(idx) > 1:
                rows = order[idx]
                block = np.diag(energies[idx]) + (op[np.ix_(rows, rows)] - np.diag(own[rows]))
                expected[idx] = np.linalg.eigh(_symmetrized(block)[None])[0][0]
                clustered += 1
        np.testing.assert_array_equal(levels[r], expected)
    assert clustered > 0


def test_parity_map_rejects_a_block_mixing_parity_classes():
    t = atom_rotation_t()[None]
    mixing = Isometry(None, ((np.array([[0, 1]]), t),))
    with pytest.raises(ArithmeticError, match="mixes parity classes"):
        raise row_error(mixing.conjugate_parity, np.array([[1.0, -1.0, 1.0]]))
    # A kernel slot is a class of its own.
    with pytest.raises(ArithmeticError, match="mixes parity classes"):
        raise row_error(mixing.conjugate_parity, np.array([[1.0, 0.0, 1.0]]))
    # Inside one class the block is harmless.
    np.testing.assert_array_equal(
        mixing.conjugate_parity(np.array([[-1.0, -1.0, 1.0]]))[0], [-1, -1, 1]
    )

