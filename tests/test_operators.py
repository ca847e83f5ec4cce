"""Truncated Fock-space operators: tensor products, models, guard bands."""

import numpy as np
import pytest

from resonancekit.averaging import combined_projector, project_average, solve_cohomological
from resonancekit.kam import kam_iterate_full, kam_step
from resonancekit.operators import (
    ATOM_MINUS,
    ATOM_PLUS,
    ModelParams,
    TruncationConfig,
    basis_index,
    basis_label,
    build_parity_blocks,
    build_rabi,
    default_guard,
    displacement_band,
    validated_level_count,
)
from resonancekit.spectrum import eigh
from resonancekit.transforms import Isometry, atom_rotation_t, rt_one_photon

from dense_oracles import (
    SIGMA_X,
    SIGMA_Z,
    atom_block,
    build_jaynes_cummings,
    build_parity,
    ladder_ops,
    tensor,
)


# ---------------------------------------------------------------- configs


def test_model_params_validation():
    with pytest.raises(ValueError, match="omega must be > 0"):
        ModelParams(omega=0.0, omega0=1.0, g=0.1)
    with pytest.raises(ValueError, match="omega0 must be >= 0"):
        ModelParams(omega=1.0, omega0=-1.0, g=0.1)
    with pytest.raises(ValueError, match="g must be >= 0"):
        ModelParams(omega=1.0, omega0=1.0, g=-0.1)
    p = ModelParams(omega=1.0, omega0=1.0, g=0.0)
    assert p.g == 0.0


@pytest.mark.parametrize("field", ["omega", "omega0", "g"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_model_params_rejects_non_finite(field, bad):
    kwargs = {"omega": 1.0, "omega0": 1.0, "g": 0.1, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModelParams(**kwargs)


def test_truncation_config_validation():
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        TruncationConfig(n_max=0)
    assert TruncationConfig(n_max=5).dim == 12


# ---------------------------------------------------------------- basis


def test_basis_index_interleaves_atom_inside_photon():
    assert basis_index(0, ATOM_PLUS) == 0
    assert basis_index(0, ATOM_MINUS) == 1
    assert basis_index(3, ATOM_MINUS) == 7
    pairs = [(k // 2, k % 2) for k in range(8)]
    assert [basis_index(n, s) for n, s in pairs] == list(range(8))


def test_basis_label_format():
    assert basis_label(0) == "|0,+>"
    assert basis_label(1) == "|0,->"
    assert basis_label(7) == "|3,->"


# ---------------------------------------------------------------- tensor


def test_tensor_conventions():
    trunc = TruncationConfig(n_max=1)
    a, _, n_op = ladder_ops(trunc)
    eye_f = np.eye(trunc.n_max + 1)
    np.testing.assert_array_equal(
        np.diag(tensor(eye_f, SIGMA_Z)).real, [1.0, -1.0, 1.0, -1.0]
    )
    np.testing.assert_array_equal(
        np.diag(tensor(n_op, np.eye(2))).real, [0.0, 0.0, 1.0, 1.0]
    )
    coupling = tensor(a, SIGMA_X)
    # a (x) sigma_x hops one photon down while flipping the atom.
    assert coupling[basis_index(0, ATOM_PLUS), basis_index(1, ATOM_MINUS)] == 1.0
    assert coupling[basis_index(0, ATOM_MINUS), basis_index(1, ATOM_PLUS)] == 1.0
    assert coupling[basis_index(0, ATOM_PLUS), basis_index(1, ATOM_PLUS)] == 0.0


def test_tensor_validates_shapes():
    with pytest.raises(ValueError, match="atom factor must be 2x2"):
        tensor(np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="field factor must be square"):
        tensor(np.zeros((2, 3)), np.eye(2))


def test_atom_block_assembles_two_by_two_structure(rng):
    fock = 4
    blocks = [rng.standard_normal((fock, fock)) for _ in range(4)]
    full = atom_block(*blocks)
    assert full.shape == (2 * fock, 2 * fock)
    for n in range(fock):
        for m in range(fock):
            assert full[basis_index(n, ATOM_PLUS), basis_index(m, ATOM_PLUS)] == blocks[0][n, m]
            assert full[basis_index(n, ATOM_PLUS), basis_index(m, ATOM_MINUS)] == blocks[1][n, m]
            assert full[basis_index(n, ATOM_MINUS), basis_index(m, ATOM_PLUS)] == blocks[2][n, m]
            assert full[basis_index(n, ATOM_MINUS), basis_index(m, ATOM_MINUS)] == blocks[3][n, m]


def test_atom_block_diagonal_blocks_only():
    fock = 3
    zero = np.zeros((fock, fock))
    full = atom_block(np.eye(fock), zero, zero, 2.0 * np.eye(fock))
    assert full.shape == (2 * fock, 2 * fock)
    assert full[basis_index(0, ATOM_PLUS), basis_index(1, ATOM_MINUS)] == 0.0
    assert full[basis_index(2, ATOM_MINUS), basis_index(2, ATOM_MINUS)] == 2.0


# ---------------------------------------------------------------- models


def test_rabi_matrix_elements():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.1)
    trunc = TruncationConfig(n_max=6)
    h = build_rabi(params, trunc)
    assert np.array_equal(h, h.conj().T)
    assert h.dtype == np.float64
    # Diagonal: omega*(n + 1/2) +/- omega0/2.
    for n in range(trunc.n_max + 1):
        assert h[basis_index(n, ATOM_PLUS), basis_index(n, ATOM_PLUS)] == pytest.approx(
            n + 1.0
        )
        assert h[basis_index(n, ATOM_MINUS), basis_index(n, ATOM_MINUS)] == pytest.approx(
            float(n)
        )
    # Coupling between the vacuum and the one-photon flipped state.
    assert h[basis_index(0, ATOM_PLUS), basis_index(1, ATOM_MINUS)] == pytest.approx(0.1)
    # Counter-rotating element is present in the full model.
    assert h[basis_index(0, ATOM_MINUS), basis_index(1, ATOM_PLUS)] == pytest.approx(0.1)


@pytest.mark.parametrize("omega0", [0.0, 0.37, 1.0, 2.5])
@pytest.mark.parametrize("g", [0.0, 0.5, 3.0])
def test_dense_builders_are_float64_and_exactly_symmetric(omega0, g):
    # eigh is the only runtime Hermiticity check, so the builders' symmetry
    # is pinned here, bit for bit.
    params = ModelParams(omega=1.0, omega0=omega0, g=g)
    for n_max in (1, 5, 120):
        trunc = TruncationConfig(n_max=n_max)
        for h in (
            build_rabi(params, trunc),
            build_jaynes_cummings(params, trunc),
            build_parity(trunc),
        ):
            assert h.dtype == np.float64
            assert h.shape == (trunc.dim, trunc.dim)
            assert np.array_equal(h, h.T)


@pytest.mark.parametrize("omega0", [1.0, 0.0, 0.37])
@pytest.mark.parametrize("g", [0.0, 0.45])
def test_dense_builders_match_kronecker_products(omega0, g):
    params = ModelParams(omega=1.3, omega0=omega0, g=g)
    trunc = TruncationConfig(n_max=9)
    a, a_dag, n_op = ladder_ops(trunc)
    eye_f = np.eye(trunc.n_max + 1)
    sigma_plus = np.array([[0.0, 1.0], [0.0, 0.0]])
    free = params.omega * tensor(n_op + 0.5 * eye_f, np.eye(2)) + 0.5 * params.omega0 * tensor(
        eye_f, SIGMA_Z
    )
    rabi = free + params.g * tensor(a + a_dag, SIGMA_X)
    jc = free + params.g * (tensor(a, sigma_plus) + tensor(a_dag, sigma_plus.T))
    parity = tensor(np.diag((-1.0) ** np.arange(trunc.n_max + 1)), SIGMA_Z)
    np.testing.assert_array_equal(build_rabi(params, trunc), rabi)
    np.testing.assert_array_equal(build_jaynes_cummings(params, trunc), jc)
    np.testing.assert_array_equal(build_parity(trunc), parity)


def test_rabi_decoupled_spectrum_is_doubled_ladder():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.0)
    trunc = TruncationConfig(n_max=4)
    values = np.linalg.eigvalsh(build_rabi(params, trunc))
    np.testing.assert_allclose(values, [0, 1, 1, 2, 2, 3, 3, 4, 4, 5], atol=1e-12)


def test_jaynes_cummings_keeps_only_co_rotating_coupling():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.3)
    trunc = TruncationConfig(n_max=5)
    h_full = build_rabi(params, trunc)
    h_jc = build_jaynes_cummings(params, trunc)
    np.testing.assert_array_equal(np.diag(h_jc), np.diag(h_full))
    # (n,+) <-> (n+1,-) survives with amplitude g*sqrt(n+1).
    for n in range(trunc.n_max):
        elem = h_jc[basis_index(n, ATOM_PLUS), basis_index(n + 1, ATOM_MINUS)]
        assert elem == pytest.approx(0.3 * np.sqrt(n + 1))
    # The counter-rotating element is dropped.
    assert h_jc[basis_index(0, ATOM_MINUS), basis_index(1, ATOM_PLUS)] == 0.0
    assert h_full[basis_index(0, ATOM_MINUS), basis_index(1, ATOM_PLUS)] != 0.0


def test_jaynes_cummings_pair_blocks_close():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.25)
    trunc = TruncationConfig(n_max=8)
    values = np.linalg.eigvalsh(build_jaynes_cummings(params, trunc))
    expected = [0.0]
    for n in range(1, trunc.n_max + 1):
        expected.extend([n - 0.25 * np.sqrt(n), n + 0.25 * np.sqrt(n)])
    expected.append(float(trunc.n_max + 1))
    np.testing.assert_allclose(values, sorted(expected), atol=1e-12)


# ---------------------------------------------------------------- parity


def test_parity_diagonal_pattern():
    trunc = TruncationConfig(n_max=3)
    p = build_parity(trunc)
    assert np.array_equal(p, np.diag(np.diag(p)))
    # P|0,+> = +|0,+>; sign alternates with photon number and atom state.
    expect = []
    for n in range(trunc.n_max + 1):
        expect.extend([(-1.0) ** n, -((-1.0) ** n)])
    np.testing.assert_array_equal(np.diag(p).real, expect)


def test_parity_is_involutive_and_commutes_exactly():
    params = ModelParams(omega=1.0, omega0=0.7, g=0.4)
    trunc = TruncationConfig(n_max=12)
    p = build_parity(trunc)
    np.testing.assert_array_equal(p @ p, np.eye(trunc.dim))
    for build in (build_rabi, build_jaynes_cummings):
        h = build(params, trunc)
        # Commutation is exact in floating point, not merely approximate:
        # every nonzero H entry connects equal parity signs.
        assert np.array_equal(p @ h, h @ p)


@pytest.mark.parametrize("omega0", [1.0, 0.0, 0.37])
def test_parity_blocks_reassemble_the_dense_hamiltonian(omega0):
    params = ModelParams(omega=1.3, omega0=omega0, g=0.45)
    trunc = TruncationConfig(n_max=9)
    h = build_rabi(params, trunc)
    p = np.diag(build_parity(trunc)).real
    even, odd = build_parity_blocks(params, trunc)
    # The blocks partition the basis and hold exactly H's entries.
    assert sorted(np.concatenate([even.indices, odd.indices])) == list(range(trunc.dim))
    assembled = np.zeros((trunc.dim, trunc.dim))
    for sign, block in ((1.0, even), (-1.0, odd)):
        assert np.all(p[block.indices] == sign)
        chain = np.diag(block.diag) + np.diag(block.off, 1) + np.diag(block.off, -1)
        assembled[np.ix_(block.indices, block.indices)] = chain
    np.testing.assert_array_equal(assembled, h.real)
    assert not np.any(h.imag)


# ---------------------------------------------------------------- guards


def test_default_guard_grows_with_coupling():
    trunc = TruncationConfig(n_max=60)
    assert default_guard(ModelParams(1.0, 1.0, 0.0), trunc) == 10
    assert default_guard(ModelParams(1.0, 1.0, 1.0), trunc) == 18
    # ceil(8 * 9) + 10 = 82 exceeds n_max - 1, so the cap kicks in.
    assert default_guard(ModelParams(1.0, 1.0, 3.0), trunc) == 59
    assert default_guard(ModelParams(1.0, 1.0, 2.0), trunc) == 42
    small = TruncationConfig(n_max=5)
    assert default_guard(ModelParams(1.0, 1.0, 10.0), small) == 4


def test_displacement_band_squares_the_coupling_ratio():
    # At omega = 1e-300, omega**2 underflows to 0; (g / omega)**2 does not,
    # so g = 0 keeps its band and a ratio whose square is out of float range
    # raises OverflowError, as g = 1e200 does at omega = 1.
    assert displacement_band(ModelParams(1e-300, 1e-300, 0.0)) == 10
    assert displacement_band(ModelParams(1e-300, 1e-300, 1e-300)) == 18
    for omega, g in ((1e-300, 0.5), (1.0, 1e200)):
        with pytest.raises(OverflowError):
            displacement_band(ModelParams(omega, omega, g))


def test_validated_level_count():
    params = ModelParams(1.0, 1.0, 1.0)
    trunc = TruncationConfig(n_max=60)
    # 2*(n_max + 1 - guard) levels survive the guard band.
    assert validated_level_count(params, trunc) == 2 * (61 - 18)


# ---------------------------------------------------------------- real only

_LEVELS, _IDS = np.array([[0.0, 1.0]]), np.array([[0, 1]])
_COMPLEX = np.array([[[0.0, 1j], [-1j, 0.0]]])
_ROTATION = Isometry(None, ((np.array([[0, 1]]), atom_rotation_t()[None]),))
_PARAMS, _TRUNC = (ModelParams(1.0, 1.0, 0.3),), TruncationConfig(n_max=2)
_COMPLEX_H = build_rabi(_PARAMS[0], _TRUNC)[None] + 0j

# Every public entry that takes an operator, called with a complex one.
COMPLEX_CALLS = {
    "eigh": lambda: eigh(_COMPLEX),
    "kam_step": lambda: kam_step(_LEVELS, _COMPLEX, _IDS, 1e-8),
    "kam_iterate_full": lambda: kam_iterate_full(_LEVELS, _COMPLEX, 1, 1e-8),
    "project_average": lambda: project_average(_COMPLEX, _IDS),
    "solve_cohomological": lambda: solve_cohomological(_COMPLEX, _LEVELS, _IDS, 1e-8),
    "combined_projector": lambda: combined_projector(_COMPLEX, [_LEVELS[0]], 1e-8),
    "Isometry.conjugate": lambda: _ROTATION.conjugate(_COMPLEX),
    "Isometry.conjugate_blocks": lambda: Isometry(
        None, ((np.array([[0, 1]]), 1j * atom_rotation_t()[None]),)
    ).conjugate(np.eye(2)[None]),
    "rt_one_photon": lambda: rt_one_photon(_COMPLEX_H, _PARAMS, _TRUNC),
}


@pytest.mark.parametrize("name", sorted(COMPLEX_CALLS))
def test_a_complex_operator_is_refused(name):
    # The model is real: a complex operator or block is refused, never cast.
    with pytest.raises(TypeError, match="operators are real, got dtype complex128"):
        COMPLEX_CALLS[name]()
