"""Closed-form ladders, Laguerre helpers, resonance loci."""

import math
from collections import namedtuple

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import genlaguerre

from resonancekit.closedform import (
    closed_form_table,
    laguerre_table,
    require_one_photon_resonance,
    resonance_loci,
    second_order_locus,
)
from resonancekit.methods import grid_sweep
from resonancekit.operators import ModelParams, TruncationConfig
from resonancekit.spectrum import eigh

import scalar_closed_forms
from dense_oracles import build_jaynes_cummings, exact_spectrum
from scalar_closed_forms import displacement_element, f_laguerre, laguerre


def _params(g, omega0=None):
    return ModelParams(omega=1.0, omega0=1.0 if omega0 is None else omega0, g=g)


_Slot = namedtuple("_Slot", "n branch energy parity spurious")


def _slots(method, params, n_levels):
    """Every slot of a closed form at the coupling of ``params``."""
    table = closed_form_table(method, params.omega, params.omega0, [params.g], n_levels)
    return [
        _Slot(*slot)
        for slot in zip(
            table.n.tolist(), table.branch, table.energies[0].tolist(),
            table.parity, table.spurious.tolist(),
        )
    ]


def _physical(levels):
    return sorted(lv.energy for lv in levels if not lv.spurious)


# ---------------------------------------------------------------- laguerre


def test_laguerre_small_cases():
    assert laguerre(0, 0, 3.7) == 1.0
    assert laguerre(1, 0, 0.25) == 0.75
    assert laguerre(2, 0, 2.0) == pytest.approx(-1.0, abs=1e-14)
    assert laguerre(1, 1, 0.5) == pytest.approx(1.5, abs=1e-14)


def test_laguerre_validates_arguments():
    with pytest.raises(ValueError, match="n must be >= 0"):
        laguerre(-1, 0, 1.0)
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        laguerre(2, -1, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=30),
    alpha=st.integers(min_value=0, max_value=5),
    x=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
def test_laguerre_matches_scipy(n, alpha, x):
    mine = laguerre(n, alpha, x)
    oracle = float(genlaguerre(n, alpha)(x))
    assert abs(mine - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_laguerre_table_rows_equal_scalar_recurrence_bitwise():
    g = np.concatenate([np.linspace(0.0, 3.0, 61), [1e-9, 0.43301, 7.5]])
    x = 4.0 * g * g
    table = laguerre_table(80, np.array([[0], [1]]), x)
    assert table.shape == (81, 2, x.size)
    for alpha in (0, 1):
        for k in range(81):
            assert table[k, alpha].tolist() == [laguerre(k, alpha, xi) for xi in x.tolist()]
    assert laguerre_table(0, 1, x).tolist() == [[1.0] * x.size]


def test_laguerre_table_validates_arguments():
    with pytest.raises(ValueError, match="n must be >= 0"):
        laguerre_table(-1, 0, [1.0])
    with pytest.raises(ValueError, match="alpha must be >= 0"):
        laguerre_table(2, [0, -1], [1.0])


def test_f_laguerre_vacuum_is_pure_damping():
    params = _params(0.3)
    assert f_laguerre(0, params) == pytest.approx(math.exp(-2 * 0.3**2), rel=1e-14)


def test_f_laguerre_first_zero_at_half_omega():
    # L_1(4g^2/w^2) vanishes identically at g = w/2.
    assert f_laguerre(1, _params(0.5)) == 0.0


# ---------------------------------------------------------------- displacement


def test_displacement_element_basics():
    params = _params(0.4)
    assert displacement_element(0, 0, params) == pytest.approx(
        f_laguerre(0, params), rel=1e-14
    )
    decoupled = _params(0.0)
    assert displacement_element(3, 3, decoupled) == 1.0
    assert displacement_element(3, 5, decoupled) == 0.0
    with pytest.raises(ValueError, match="m, n must be >= 0"):
        displacement_element(-1, 0, params)


def test_displacement_element_adjoint_symmetry():
    params = _params(0.7)
    for m, n in ((0, 3), (2, 5), (4, 1)):
        assert displacement_element(m, n, params, sign=+1) == pytest.approx(
            displacement_element(n, m, params, sign=-1), rel=1e-13
        )


@pytest.mark.parametrize("g", [0.5, 2.0])
def test_displacement_element_against_matrix_exponential(g):
    params = _params(g)
    fock = 121
    a = np.zeros((fock, fock))
    for n in range(fock - 1):
        a[n, n + 1] = math.sqrt(n + 1)
    gen = (2.0 * g / params.omega) * (a.T - a)
    big = scipy.linalg.expm(gen)
    for m in range(21):
        for n in range(21):
            assert displacement_element(m, n, params, sign=+1) == pytest.approx(
                big[m, n], abs=1e-10
            )


def test_require_one_photon_resonance():
    require_one_photon_resonance(1.0, 1.0)  # no raise at resonance
    with pytest.raises(ValueError, match="require omega0 = omega"):
        require_one_photon_resonance(1.0, 1.1)
    # A NaN splitting compares false with everything; it must not pass.
    with pytest.raises(ValueError, match="require omega0 = omega"):
        require_one_photon_resonance(1.0, math.nan)


# ---------------------------------------------------------------- ladders


def test_jc_spectrum_decoupled_ladder():
    levels = _slots("jc", _params(0.0), 4)
    assert _physical(levels) == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]
    spurious = [lv for lv in levels if lv.spurious]
    assert len(spurious) == 1
    assert (spurious[0].n, spurious[0].branch) == (0, "+")


def test_jc_spectrum_matches_exact_pair_diagonalization():
    params = _params(0.35)
    closed = _physical(_slots("jc", params, 12))[:10]
    exact = eigh(build_jaynes_cummings(params, TruncationConfig(n_max=40))[None])
    np.testing.assert_allclose(closed, exact.values[0, :10], atol=1e-12)


def test_jc_spectrum_branch_values():
    params = _params(0.2)
    by_key = {(lv.n, lv.branch): lv.energy for lv in _slots("jc", params, 5)}
    for n in range(1, 6):
        assert by_key[(n, "+")] == pytest.approx(n + 0.2 * math.sqrt(n), rel=1e-15)
        assert by_key[(n, "-")] == pytest.approx(n - 0.2 * math.sqrt(n), rel=1e-15)


def test_rt2_spectrum_decoupled_reduces_to_free_ladder():
    levels = _slots("rt2", _params(0.0), 6)
    pairs = [[n - 2.0, float(n)] for n in range(3, 7)]
    assert _physical(levels) == sorted([0.0, 1.0, 2.0] + sum(pairs, []))
    assert sum(lv.spurious for lv in levels) == 3


def test_rt2_spectrum_keeps_gap_open_at_first_active_locus():
    # At g_1 = 2w/(1 + sqrt(3)) the one-photon ladder has an exact crossing;
    # the two-photon treatment replaces it with a gap ~ g*sqrt(n+... ).
    g1 = 2.0 / (1.0 + math.sqrt(3.0))
    by_key = {(lv.n, lv.branch): lv.energy for lv in _slots("rt2", _params(g1), 6)}
    gap = by_key[(3, "+")] - by_key[(3, "-")]
    assert gap == pytest.approx(g1 * math.sqrt(2.0), rel=1e-10)


def test_strong_avg_spectrum_decoupled_ladder():
    levels = _slots("strong_avg", _params(0.0), 5)
    assert _physical(levels)[:8] == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0]


def test_strong_avg_branches_cross_where_f1_vanishes():
    by_key = {(lv.n, lv.branch): lv.energy for lv in _slots("strong_avg", _params(0.5), 3)}
    assert by_key[(1, "+")] == by_key[(1, "-")]


def test_strong_rt_spectrum_decoupled_is_exact():
    levels = _slots("strong_rt", _params(0.0), 4)
    assert _physical(levels) == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]


def test_strong_rt_ground_level_formula():
    params = _params(0.8)
    by_key = {(lv.n, lv.branch): lv for lv in _slots("strong_rt", params, 2)}
    expect = 0.5 - 0.8**2 - 0.5 * math.exp(-2 * 0.8**2)
    assert by_key[(0, "+")].energy == pytest.approx(expect, rel=1e-14)
    assert by_key[(0, "-")].spurious
    assert by_key[(0, "-")].energy == 0.0


def test_strong_rt_spurious_zero_at_any_coupling():
    for g in (0.0, 1.0, 2.5):
        levels = _slots("strong_rt", _params(g), 3)
        spurious = [lv for lv in levels if lv.spurious]
        assert len(spurious) == 1
        assert (spurious[0].n, spurious[0].branch, spurious[0].energy) == (0, "-", 0.0)


def test_strong_variants_coincide_at_large_coupling():
    diffs = []
    for g in (2.5, 3.0, 3.5, 4.0):
        avg = _physical(_slots("strong_avg", _params(g), 12))[:8]
        rt = _physical(_slots("strong_rt", _params(g), 12))[:8]
        diffs.append(max(abs(a - b) for a, b in zip(avg, rt)))
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-2


# ---------------------------------------------------------------- arrays

# The dense part holds arguments where libm's exp and hypot differ from numpy's
# by one ulp, so it tells the two libraries apart.
_GRID = sorted({0.0, 1e-9, 0.1, 0.43301, 0.5, 0.61, 1.0, 1.5, 2.2, 3.0}
               | set(np.linspace(0.0, 3.0, 151).tolist()))
# (method, omega, omega0).  At omega != 1, g/omega is inexact, so the cases
# tell apart transcriptions that order the same operations differently.
_CASES = [("jc", 1.0, 1.0), ("rt2", 1.0, 1.0)] + [
    (method, 1.0, w0) for method in ("strong_avg", "strong_rt") for w0 in (0.0, 0.37, 1.0, 2.5)
] + [
    (method, w, w) for w in (1.3, 0.37) for method in ("jc", "rt2", "strong_avg", "strong_rt")
] + [(method, 1.3, 1.17) for method in ("strong_avg", "strong_rt")]
# Ids "method-omega0" at omega = 1, "method-omega-omega0" elsewhere.
_IDS = [f"{m}-{w0}" if w == 1.0 else f"{m}-{w}-{w0}" for m, w, w0 in _CASES]


@pytest.mark.parametrize("method,omega,omega0", _CASES, ids=_IDS)
def test_closed_form_table_equals_scalar_formulas(method, omega, omega0):
    table = closed_form_table(method, omega, omega0, _GRID, 20)
    for i, g in enumerate(_GRID):
        slots = list(zip(
            table.n.tolist(), table.branch, table.energies[i].tolist(),
            table.parity, table.spurious.tolist(),
        ))
        assert slots == scalar_closed_forms.SPECTRA[method](omega, omega0, g, 20)


@pytest.mark.parametrize("method,omega,omega0", _CASES, ids=_IDS)
def test_closed_form_sweep_equals_per_point_path(method, omega, omega0):
    n_levels = 12
    trunc = TruncationConfig(n_max=20)
    swept = grid_sweep(method, omega, omega0, _GRID, trunc, n_levels)
    assert len(swept.errors) == len(_GRID)
    for i, g in enumerate(_GRID):
        levels = swept.point(i)
        assert levels == scalar_closed_forms.selected_levels(method, omega, omega0, g, n_levels)
        assert grid_sweep(method, omega, omega0, [g], trunc, n_levels).point(0) == levels


@pytest.mark.parametrize("method", ["strong_avg", "strong_rt"])
@pytest.mark.parametrize("omega", [1.0, 1.3])
def test_strong_forms_at_zero_splitting_are_the_displaced_oscillator(method, omega):
    # omega0 = 0: every level is doubly degenerate at omega (k + 1/2) - g^2/omega.
    n_levels = 12
    grid = np.array([0.0, 0.5, 1.7, 3.0])
    swept = grid_sweep(method, omega, 0.0, grid, TruncationConfig(n_max=20), n_levels)
    assert swept.ok.all()
    expect = omega * (np.arange(n_levels) // 2 + 0.5) - (grid * grid / omega)[:, None]
    np.testing.assert_allclose(swept.energies, expect, rtol=1e-12, atol=0)


def test_closed_form_table_rejects_unknown_form():
    with pytest.raises(ValueError, match="unknown closed form"):
        closed_form_table("exact", 1.0, 1.0, [0.1], 4)


# ---------------------------------------------------------------- loci


def test_resonance_loci_values_and_kinds():
    loci = resonance_loci(range(3), omega=1.0)
    by_key = {(lc.n, lc.kind): lc.g for lc in loci}
    assert by_key[(0, "active")] == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert by_key[(0, "mute")] == pytest.approx(1.0, rel=1e-15)
    assert by_key[(1, "active")] == pytest.approx(2.0 / (1.0 + math.sqrt(3.0)), rel=1e-15)
    assert by_key[(1, "mute")] == pytest.approx(1.0 / (1.0 + math.sqrt(2.0)), rel=1e-15)


def test_resonance_loci_decrease_with_n():
    loci = resonance_loci(range(8), omega=1.0)
    for kind in ("active", "mute"):
        gs = [lc.g for lc in loci if lc.kind == kind]
        assert all(b < a for a, b in zip(gs, gs[1:]))


def test_resonance_loci_scale_with_omega():
    one = resonance_loci([2], omega=1.0)
    two = resonance_loci([2], omega=2.0)
    assert two[0].g == pytest.approx(2.0 * one[0].g, rel=1e-15)


def test_resonance_loci_reject_negative_index():
    with pytest.raises(ValueError, match="locus index must be >= 0"):
        resonance_loci([-1], omega=1.0)


def _second_order_pair(n, g, omega=1.0):
    """(E(n,+), E(n,-)) of the ladder dressed by the counter-rotating term."""
    center = n * omega - g * g / (2.0 * omega)
    root = g * math.sqrt(n) * math.sqrt(1.0 + n * g * g / (4.0 * omega * omega))
    return center + root, center - root


@pytest.mark.parametrize("n", range(7))
def test_second_order_locus_solves_ladder_crossing(n):
    g = second_order_locus(n, 1.0)
    upper, _ = _second_order_pair(n, g)
    _, lower = _second_order_pair(n + 2, g)
    assert abs(upper - lower) <= 1e-12


def test_second_order_locus_below_first_order():
    first = {lc.n: lc.g for lc in resonance_loci(range(1, 9), omega=1.0)
             if lc.kind == "active"}
    for n, g_first in first.items():
        assert 0.0 < second_order_locus(n, 1.0) < g_first


def test_second_order_locus_scales_with_omega():
    for n in (1, 3):
        one = second_order_locus(n, 1.0)
        for omega in (0.37, 2.5):
            assert second_order_locus(n, omega) == pytest.approx(omega * one, rel=1e-15)


def test_second_order_locus_rejects_negative_index():
    with pytest.raises(ValueError, match="locus index must be >= 0"):
        second_order_locus(-1, 1.0)


def test_second_order_ladder_error_is_third_order():
    # Lowest 9 levels: the ground level plus the pairs n = 1..4.  Halving g
    # divides the second-order ladder's error by ~8 and the first-order
    # (Jaynes-Cummings) ladder's error by only ~4.
    def worst_errors(g):
        exact = exact_spectrum(_params(g), TruncationConfig(n_max=40))[0][:9]
        second = sorted(
            [_second_order_pair(0, g)[0]]
            + [e for n in range(1, 5) for e in _second_order_pair(n, g)]
        )
        first = _physical(_slots("jc", _params(g), 4))
        return (np.abs(np.asarray(second) - exact).max(),
                np.abs(np.asarray(first) - exact).max())

    (second_lo, first_lo), (second_hi, first_hi) = worst_errors(0.02), worst_errors(0.04)
    assert 6.0 < second_hi / second_lo < 10.0
    assert 3.0 < first_hi / first_lo < 5.0
    assert second_hi < first_hi
