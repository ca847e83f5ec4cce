"""Exact-diagonalization oracle: eigh, parity blocks, the Sturm-count
certificate, sweeps, truncation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from resonancekit import spectrum
from resonancekit.methods import grid_sweep
from resonancekit.operators import (
    ModelParams,
    TruncationConfig,
    build_parity_blocks,
    build_rabi,
)
from resonancekit.spectrum import (
    PARITY_EVEN,
    PARITY_ODD,
    eigh,
    exact_spectra,
)
from resonancekit.sweep import SweepConfig, run_sweep

from dense_oracles import (
    build_parity,
    dense_exact_spectra,
    eigh_block,
    eigh_one,
    exact_spectrum,
    row_error,
    validate_truncation,
)
from row_reference import table_rows

# Regression constants from an n_max=120 oracle run, cross-checked at
# n_max=60 (agreement below 2e-14).  omega = omega0 = 1, g = 0.2.
LOWEST_12_G02 = np.array(
    [
        -0.020201999386269,
        0.780666270558556,
        1.178491610235722,
        1.699383293621968,
        2.258855696463070,
        2.638067461433701,
        3.319162364055751,
        3.587379540282633,
        4.368740488705048,
        4.543719003328242,
        5.411179503553038,
        5.505261267917163,
    ]
)
# Ground-state energy at omega = omega0 = 1, g = 0.5, n_max = 80.
E0_G05 = -0.1332942354616252


# ---------------------------------------------------------------- eigh


def test_eigh_sorts_ascending():
    h = np.diag([3.0, 1.0, 2.0])
    decomp = eigh_one(h)
    np.testing.assert_array_equal(decomp.values, [1.0, 2.0, 3.0])
    # Columns are the matching permutation vectors.
    np.testing.assert_allclose(h @ decomp.vectors, decomp.vectors * decomp.values, atol=1e-14)


def test_eigh_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="eigh requires a Hermitian operator"):
        raise row_error(eigh, bad[None])


def test_eigh_input_validation():
    for shape in [(2, 3), (4,), (2, 2, 3), (2, 2, 2, 2), (1, 2, 3)]:
        with pytest.raises(ValueError, match=r"eigh requires a \(G, n, n\) stack, got shape"):
            eigh(np.zeros(shape))
    decomp = eigh_one(np.array([[2, 1], [1, 2]]))
    assert decomp.values.dtype == np.float64
    assert decomp.vectors.dtype == np.float64
    np.testing.assert_allclose(decomp.values, [1.0, 3.0], rtol=0, atol=1e-14)


@pytest.mark.parametrize("dim", [4, 242])
def test_eigh_hermiticity_tolerance_boundary(dim):
    # The bound is 1e-14 * max(max|A|, 1), here with max|A| = 3, and the
    # defect sits in one off-diagonal entry of the last rows.
    rng = np.random.default_rng(dim)
    base = rng.uniform(-1.0, 1.0, (dim, dim)) + 1j * rng.uniform(-1.0, 1.0, (dim, dim))
    base = 0.5 * (base + base.conj().T)
    base[0, 0] = 3.0
    base[dim - 1, dim - 2] = base[dim - 2, dim - 1] = 0.0
    bound = 1e-14 * 3.0
    inside = base.copy()
    inside[dim - 1, dim - 2] = 0.9 * bound
    assert eigh(inside[None]).dim == dim
    outside = base.copy()
    outside[dim - 1, dim - 2] = 1.1j * bound
    with pytest.raises(ValueError, match="eigh requires a Hermitian operator"):
        raise row_error(eigh, outside[None])


def test_eigh_residual_and_orthonormality(rng, make_hermitian):
    h = make_hermitian(rng, 64, scale=3.0)
    decomp = eigh_one(h)
    assert np.all(np.diff(decomp.values) >= 0)
    residual = np.abs(h @ decomp.vectors - decomp.vectors * decomp.values).max()
    assert residual <= 1e-10 * np.linalg.norm(h, 2)
    gram = decomp.vectors.conj().T @ decomp.vectors
    assert np.abs(gram - np.eye(64)).max() <= 1e-12


def test_decoupled_spectrum_is_doubled_ladder():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.0)
    trunc = TruncationConfig(n_max=6)
    decomp = eigh_one(build_rabi(params, trunc))
    expect = [0.0]
    for n in range(1, trunc.n_max + 1):
        expect.extend([float(n), float(n)])
    expect.append(float(trunc.n_max + 1))
    np.testing.assert_allclose(decomp.values, expect, atol=1e-12)


def test_lowest_twelve_regression_at_g02():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.2)
    decomp = eigh_one(build_rabi(params, TruncationConfig(n_max=60)))
    np.testing.assert_allclose(decomp.values[:12], LOWEST_12_G02, atol=1e-10)


def test_ground_state_regression_at_g05():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.5)
    decomp = eigh_one(build_rabi(params, TruncationConfig(n_max=80)))
    assert abs(decomp.values[0] - E0_G05) < 1e-11


def test_eigh_is_deterministic():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.37)
    op = build_rabi(params, TruncationConfig(n_max=30))
    d1, d2 = eigh(op[None]), eigh(op[None])
    assert np.array_equal(d1.values, d2.values)
    assert np.array_equal(d1.vectors, d2.vectors)


# ---------------------------------------------------------------- parity


def _dense_parity_labels(params, trunc, count):
    """Parity labels of the lowest ``count`` levels of the dense solve, read
    off <v|P|v>; valid where those levels are non-degenerate."""
    vectors = eigh_one(build_rabi(params, trunc)).vectors[:, :count]
    p = build_parity(trunc)
    expect = np.real(np.einsum("ik,ij,jk->k", vectors.conj(), p, vectors))
    assert np.abs(np.abs(expect) - 1.0).max() < 1e-10
    return [PARITY_EVEN if e > 0 else PARITY_ODD for e in expect]


def test_exact_spectrum_decoupled_ground_and_first_excited():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.0)
    _, parity = exact_spectrum(params, TruncationConfig(n_max=8))
    # Ground state |0,-> has parity -(+1) = -1: odd.
    assert parity[0] == PARITY_ODD
    # The doubly degenerate level at energy 1 holds |0,+> and |1,->, both even.
    assert parity[1] == PARITY_EVEN
    assert parity[2] == PARITY_EVEN
    # Next pair at energy 2 is odd/odd, and so on alternating by pair.
    assert parity[3] == PARITY_ODD
    assert parity[4] == PARITY_ODD
    assert parity[5] == PARITY_EVEN


def test_exact_spectrum_labels_half_the_levels_each_parity():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.3)
    trunc = TruncationConfig(n_max=20)
    values, parity = exact_spectrum(params, trunc)
    assert set(parity) == {PARITY_EVEN, PARITY_ODD}
    counts = {lab: parity.count(lab) for lab in (PARITY_EVEN, PARITY_ODD)}
    assert counts[PARITY_EVEN] == trunc.dim // 2
    assert counts[PARITY_ODD] == trunc.dim // 2
    assert np.all(np.diff(values) >= 0)
    np.testing.assert_allclose(
        values, eigh_one(build_rabi(params, trunc)).values, rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("g", [0.0, 0.3])
def test_parity_block_eigenvectors_are_eigenvectors_of_h_and_p(g):
    # At g = 0 every level but the ground state is an even-odd or even-even
    # degenerate pair; block eigenvectors are parity eigenvectors regardless.
    params = ModelParams(omega=1.0, omega0=1.0, g=g)
    trunc = TruncationConfig(n_max=10)
    h = build_rabi(params, trunc)
    p = build_parity(trunc)
    for sign, block in zip((1.0, -1.0), build_parity_blocks(params, trunc)):
        decomp = eigh_block(block)
        embedded = np.zeros((trunc.dim, decomp.dim), dtype=complex)
        embedded[block.indices] = decomp.vectors
        np.testing.assert_allclose(p @ embedded, sign * embedded, atol=1e-8)
        np.testing.assert_allclose(h @ embedded, embedded * decomp.values, atol=1e-10)


def test_exact_spectrum_orders_degenerate_ties_even_before_odd():
    # At omega0 = 0 the two blocks coincide; a tiny splitting puts the odd
    # partner of some pairs below the even one, by far less than 1e-8.
    for omega0 in (0.0, 1e-10):
        values, parity = exact_spectrum(
            ModelParams(1.0, omega0, 0.4), TruncationConfig(n_max=12)
        )
        assert parity == (PARITY_EVEN, PARITY_ODD) * 13
        assert np.all(np.diff(values) >= 0)


_GRID_PARAMS = dict(
    omega=st.floats(0.2, 3.0),
    omega0=st.floats(0.0, 3.0),
    n_max=st.integers(1, 40),
    grid=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(**_GRID_PARAMS)
def test_parity_blocks_match_scipy_tridiagonal_solver(omega, omega0, n_max, grid):
    values, odd = exact_spectra(omega, omega0, grid, n_max)
    trunc = TruncationConfig(n_max=n_max)
    for g, row, row_odd in zip(grid, values, odd):
        even_block, odd_block = build_parity_blocks(ModelParams(omega, omega0, g), trunc)
        ref_even = eigvalsh_tridiagonal(even_block.diag, even_block.off)
        ref_odd = eigvalsh_tridiagonal(odd_block.diag, odd_block.off)
        ref = np.sort(np.concatenate([ref_even, ref_odd]))
        assert np.all(np.abs(row - ref) <= 1e-12 * np.maximum(np.abs(ref), omega))
        assert row_odd.sum() == n_max + 1


@settings(max_examples=60, deadline=None)
@given(**_GRID_PARAMS)
def test_parity_block_trace_equals_eigenvalue_sum(omega, omega0, n_max, grid):
    values, _ = exact_spectra(omega, omega0, grid, n_max)
    trunc = TruncationConfig(n_max=n_max)
    for g, row in zip(grid, values):
        blocks = build_parity_blocks(ModelParams(omega, omega0, g), trunc)
        trace = sum(block.diag.sum() for block in blocks)
        assert abs(row.sum() - trace) <= 1e-12 * np.abs(row).sum()


def _assert_lowest_levels(values, odd, dense, omega):
    """``values`` and ``odd`` are the first columns of the dense oracle's
    levels, to 1e-12*max(|E|, omega), and of its labels, exactly."""
    ref, ref_odd = (a[:, :values.shape[1]] for a in dense)
    assert np.all(np.abs(values - ref) <= 1e-12 * np.maximum(np.abs(ref), omega))
    np.testing.assert_array_equal(odd, ref_odd)


@settings(max_examples=60, deadline=None)
@given(**_GRID_PARAMS, n_levels=st.integers(1, 90))
def test_lowest_levels_are_the_first_of_the_dense_oracles(omega, omega0, n_max, grid, n_levels):
    values, odd = exact_spectra(omega, omega0, grid, n_max, n_levels)
    assert values.shape == odd.shape == (len(grid), min(n_levels, 2 * (n_max + 1)))
    _assert_lowest_levels(values, odd, dense_exact_spectra(omega, omega0, grid, n_max), omega)


_BASELINE_GRIDS = {"weak": np.linspace(0.0, 0.3, 31), "wide": np.linspace(0.0, 1.5, 151)}


@pytest.mark.parametrize("n_max", [60, 120, 240])
@pytest.mark.parametrize("grid", _BASELINE_GRIDS.values(), ids=_BASELINE_GRIDS)
def test_boxes_give_the_dense_oracles_lowest_levels(grid, n_max):
    values, odd = exact_spectra(1.0, 1.0, grid, n_max, 12)
    _assert_lowest_levels(values, odd, dense_exact_spectra(1.0, 1.0, grid, n_max), 1.0)


def test_boxes_too_small_to_certify_grow_to_the_same_levels(monkeypatch):
    grid = np.linspace(0.0, 1.5, 31)
    expected = exact_spectra(1.0, 0.37, grid, 60, 12)
    solved = []
    solve = np.linalg.eigvalsh

    def recorded(h):
        solved.append(h.shape[-1])
        return solve(h)

    # leading boxes of the 13 rows that hold the levels kept, trailing ones of 2
    monkeypatch.setattr(spectrum, "_boxes", lambda *args: ([13] * grid.size, [2] * grid.size))
    monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
    values, odd = exact_spectra(1.0, 0.37, grid, 60, 12)
    assert solved[:2] == [13, 2] and {26, 52, 4, 8, 16, 32} <= set(solved)  # doubled
    assert np.all(np.abs(values - expected[0]) <= 1e-12 * np.maximum(np.abs(expected[0]), 1.0))
    np.testing.assert_array_equal(odd, expected[1])


# ---------------------------------------------------------------- certificate


def test_certificate_rejects_a_shifted_level(monkeypatch):
    solve = np.linalg.eigvalsh

    def shifted(h):
        values = solve(h)
        values[1, -1, 3] += 1e-6  # odd block, last coupling, level 3
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    with pytest.raises(ArithmeticError, match="eigenvalue 3 of the odd block at g = 0.5"):
        exact_spectra(1.0, 1.0, [0.0, 0.25, 0.5], 20)


def test_a_certificate_failure_fails_only_its_coupling(monkeypatch):
    grid = np.linspace(0.0, 1.0, 11)
    trunc = TruncationConfig(n_max=30)
    clean = grid_sweep("exact", 1.0, 1.0, grid, trunc, 6)
    solve = np.linalg.eigvalsh

    def shifted(h):
        values = solve(h)
        values[h[..., 1, 0] == 0.5, 0] += 1e-6  # the leading boxes at g = 0.5
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", shifted)
    tampered = grid_sweep("exact", 1.0, 1.0, grid, trunc, 6)
    assert isinstance(tampered.errors[5], ArithmeticError)
    assert "eigenvalue 0 of the even block at g = 0.5" in str(tampered.errors[5])
    others = np.arange(grid.size) != 5
    assert tampered.ok.tolist() == others.tolist()
    np.testing.assert_array_equal(tampered.energies[others], clean.energies[others])
    np.testing.assert_array_equal(tampered.label_index[others], clean.label_index[others])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega0", [0.0, 1e-10, 1.0])
def test_certificate_passes_exact_degeneracies_without_warnings(omega0):
    # At g = 0 the blocks decouple into the bare ladder, and at omega0 = 0
    # the two blocks are one matrix: every level is exactly degenerate.
    values, _ = exact_spectra(1.0, omega0, [0.0, 0.4], 12)
    n = np.arange(13)
    ladder = np.sort(np.concatenate([n + 0.5 + 0.5 * omega0, n + 0.5 - 0.5 * omega0]))
    np.testing.assert_allclose(values[0], ladder, rtol=0, atol=1e-14)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sturm_count_replaces_a_zero_pivot():
    # [[0, 1], [1, 0]] has eigenvalues -1 and 1; at x = 0 the first pivot is
    # exactly zero, where a plain LDL^T recurrence divides by zero.
    diag = np.zeros(2)
    off2 = np.array([0.0, 1.0])
    x = np.array([-2.0, -1.0 + 1e-9, 0.0, 1.0 - 1e-9, 2.0])
    np.testing.assert_array_equal(spectrum._sturm_count(diag, off2, x), [0, 1, 1, 1, 2])
    # A huge off-diagonal against a zero pivot stays finite.
    off2 = np.array([0.0, 1e300])
    assert spectrum._sturm_count(diag, off2, np.zeros(1)).tolist() == [1]


# ---------------------------------------------------------------- sweeps


def _exact_sweep(g_min, g_max, g_steps, n_max, n_levels):
    """Exact rows of a sweep over linspace(g_min, g_max, g_steps)."""
    config = SweepConfig(
        g_min=g_min, g_max=g_max, g_steps=g_steps, n_max=n_max,
        n_levels=n_levels, methods=("exact",), output_path="",
    )
    table = run_sweep(config)
    assert not table.failures
    return table


def test_sweep_exact_single_point_matches_eigh():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.45)
    trunc = TruncationConfig(n_max=24)
    rows = table_rows(_exact_sweep(0.45, 0.45, 1, trunc.n_max, 8))
    assert len(rows) == 8
    direct = eigh_one(build_rabi(params, trunc))
    np.testing.assert_allclose([r.energy for r in rows], direct.values[:8], rtol=1e-12)
    assert [r.parity for r in rows] == _dense_parity_labels(params, trunc, 8)
    assert all(r.method == "exact" for r in rows)
    assert all(r.branch == "unassigned" for r in rows)
    assert [r.level for r in rows] == list(range(8))


def test_sweep_exact_rows_grouped_and_ascending():
    grid = [0.0, 0.2, 0.4]
    rows = table_rows(_exact_sweep(0.0, 0.4, 3, 20, 6))
    assert len(rows) == 18
    for i, g in enumerate(grid):
        chunk = rows[6 * i : 6 * (i + 1)]
        assert all(r.g == g for r in chunk)
        energies = [r.energy for r in chunk]
        assert energies == sorted(energies)


def test_small_coupling_displaces_low_levels_weakly():
    table = _exact_sweep(0.0, 0.1, 2, 40, 3)
    e0 = np.array([r.energy for r in table_rows(table) if r.g == 0.0])
    e1 = np.array([r.energy for r in table_rows(table) if r.g == 0.1])
    assert np.abs(e1 - e0).max() <= 0.12


def test_parity_class_continuity_across_sweep():
    # Within one parity class, sorted energies move smoothly: the largest
    # grid-adjacent change stays below 5x the median grid-adjacent change.
    grid = np.linspace(0.4, 0.9, 51)
    table = _exact_sweep(0.4, 0.9, 51, 40, 10)
    for parity in (PARITY_EVEN, PARITY_ODD):
        per_g = []
        for g in grid:
            e = sorted(r.energy for r in table_rows(table) if r.g == g and r.parity == parity)
            per_g.append(np.array(e))
        depth = min(len(e) for e in per_g)
        block = np.array([e[:depth] for e in per_g])
        steps = np.abs(np.diff(block, axis=0))
        assert steps.max() <= 5.0 * np.median(steps)


def test_same_parity_minimum_gap_sits_near_first_even_locus():
    # The lowest pair of odd levels reaches its minimum gap close to
    # g = sqrt(2), where the two-photon mixing is strongest.
    grid = np.linspace(1.2, 1.9, 71)
    table = _exact_sweep(1.2, 1.9, 71, 60, 10)
    gaps = []
    for g in grid:
        odd = sorted(r.energy for r in table_rows(table) if r.g == g and r.parity == PARITY_ODD)
        gaps.append(odd[2] - odd[1])
    gaps = np.array(gaps)
    k = int(np.argmin(gaps))
    assert 0 < k < len(grid) - 1  # interior minimum, not a window edge
    assert abs(grid[k] - np.sqrt(2.0)) < 0.15
    assert 0.85 < gaps[k] < 1.0


# ---------------------------------------------------------------- truncation


def test_validate_truncation_decoupled_certifies_all_but_boundary_pair():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.0)
    trunc = TruncationConfig(n_max=20)
    assert validate_truncation(params, trunc) == 2 * (trunc.n_max + 1) - 2


def test_validate_truncation_shrinks_with_coupling():
    trunc = TruncationConfig(n_max=60)
    l_g1 = validate_truncation(ModelParams(1.0, 1.0, 1.0), trunc)
    l_g3 = validate_truncation(ModelParams(1.0, 1.0, 3.0), trunc)
    assert l_g1 >= 40
    assert l_g3 < l_g1
    assert l_g3 > 0
