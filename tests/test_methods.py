"""Uniform method facade: every estimator through one entry point."""

import gzip
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from resonancekit import kam, methods, operators, transforms
from resonancekit.kam import kam_iterate_full
from resonancekit.methods import (
    CLOSED_FORM_METHODS,
    METHOD_ORDER,
    grid_sweep,
    kam_truncation,
    rabi_rt1_chain,
    rt2_iterated_chain,
)
from resonancekit.closedform import closed_form_table
from resonancekit.operators import ModelParams, TruncationConfig, build_rabi
from resonancekit.sweep import SweepConfig, run_sweep, table_to_csv

from dense_oracles import build_parity, chain_residue, eigh_one, levels_from_chain, row_error

# Methods built on the one-photon-resonance chains; they require omega0 = omega.
WEAK_METHODS = frozenset({"jc", "rt1", "rt1_kam", "rt2", "rt_full_kam"})


def _params(g, omega0=None):
    return ModelParams(omega=1.0, omega0=1.0 if omega0 is None else omega0, g=g)


def _sweep(method, grid, n_levels, n_max=60):
    """``method``'s sweep over ``grid``; every coupling must succeed."""
    swept = grid_sweep(method, 1.0, 1.0, grid, TruncationConfig(n_max=n_max), n_levels)
    assert swept.ok.all(), swept.errors
    return swept


def _energies(method, grid, n_levels, n_max=60):
    """The (G, n_levels) energies of ``method`` over ``grid``."""
    return _sweep(method, grid, n_levels, n_max).energies


def _max_err(method, grid, n_levels, n_max=60, oracle_n_max=60):
    """The largest |E - E_exact| of ``method`` at each coupling of ``grid``."""
    got = _energies(method, grid, n_levels, n_max)
    ref = _energies("exact", grid, n_levels, oracle_n_max)
    return np.abs(got - ref).max(axis=1)


# ---------------------------------------------------------------- facade


def test_method_order_is_stable():
    assert METHOD_ORDER == (
        "exact",
        "jc",
        "rt1",
        "rt1_kam",
        "rt2",
        "rt_full_kam",
        "strong_avg",
        "strong_rt",
    )
    assert CLOSED_FORM_METHODS <= set(METHOD_ORDER)
    assert WEAK_METHODS == set(METHOD_ORDER) - {"exact", "strong_avg", "strong_rt"}


def test_unknown_method_is_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        grid_sweep("bogus", 1.0, 1.0, [0.1], TruncationConfig(n_max=10), 4)


def test_weak_methods_require_resonance():
    trunc = TruncationConfig(n_max=20)
    for method in sorted(WEAK_METHODS):
        with pytest.raises(ValueError, match="require omega0 = omega"):
            grid_sweep(method, 1.0, 0.8, [0.1], trunc, 4)
    # The strong-coupling and exact paths accept detuning.
    for method in ("exact", "strong_avg", "strong_rt"):
        assert len(grid_sweep(method, 1.0, 0.8, [0.1], trunc, 4).point(0)) == 4


def test_levels_are_ascending_physical_and_labeled():
    for method in METHOD_ORDER:
        levels = grid_sweep(method, 1.0, 1.0, [0.2], TruncationConfig(n_max=60), 8).point(0)
        assert len(levels) == 8
        energies = [energy for _, _, energy in levels]
        assert energies == sorted(energies)
        assert {parity for _, parity, _ in levels} <= {"even", "odd"}


def test_requesting_too_many_levels_fails_loudly():
    for method, g, n_max, n_levels, text in (
        ("rt1", 0.2, 12, 40, "requested 40 levels"),
        ("exact", 0.2, 2, 10, "requested 10 levels from dim 6"),
        # dim 42, but the guard band at g = 2 validates only the lowest 4.
        ("exact", 2.0, 20, 40, "guard band validates 4"),
    ):
        trunc = TruncationConfig(n_max=n_max)
        error = grid_sweep(method, 1.0, 1.0, [g], trunc, n_levels).errors[0]
        assert isinstance(error, ValueError) and text in str(error), (method, error)


def test_closed_form_sweep_blocks_give_the_same_levels(monkeypatch):
    grid = np.linspace(0.0, 3.0, 31)
    trunc = TruncationConfig(n_max=60)
    whole = grid_sweep("strong_rt", 1.0, 0.37, grid, trunc, 10)
    monkeypatch.setattr(methods, "_STACK_BYTES", 16000)  # three to six couplings per block
    blocked = grid_sweep("strong_rt", 1.0, 0.37, grid, trunc, 10)
    assert [blocked.point(i) for i in range(grid.size)] == [
        whole.point(i) for i in range(grid.size)
    ]


def test_closed_form_sweep_reports_short_photon_ranges_per_coupling(monkeypatch):
    # Couplings above 1 get a photon range too short for the request.
    monkeypatch.setattr(
        methods, "_closed_form_count", lambda g, omega, n_levels: 2 if g > 1.0 else n_levels
    )
    swept = grid_sweep("jc", 1.0, 1.0, [0.5, 1.5], TruncationConfig(n_max=12), 8)
    assert len(swept.point(0)) == 8
    assert isinstance(swept.point(1), ValueError)
    assert str(swept.point(1)) == "requested 8 levels but only 5 are available"
    alone = grid_sweep("jc", 1.0, 1.0, [1.5], TruncationConfig(n_max=12), 8).errors[0]
    assert type(alone) is ValueError and str(alone) == str(swept.point(1))


# Couplings a closed-form table cannot represent, both failing before any
# allocation: g = 1e150 asks for about 1e300 photon levels, and at omega =
# 1e-300 g / omega overflows.  (omega, grid, index of the failing coupling)
UNREPRESENTABLE = {
    "huge_g": (1.0, [0.0, 0.5, 1e150, 1.0], 2),
    "tiny_omega": (1e-300, [0.0, 0.5], 1),
}


@pytest.mark.parametrize("case", sorted(UNREPRESENTABLE))
@pytest.mark.parametrize("method", sorted(CLOSED_FORM_METHODS) + ["rt1"])
def test_a_coupling_the_closed_form_table_cannot_hold_fails_alone(method, case):
    omega, grid, bad = UNREPRESENTABLE[case]
    trunc = TruncationConfig(n_max=60)
    swept = grid_sweep(method, omega, omega, grid, trunc, 4)
    if method != "rt1" or case != "huge_g":  # rt1 caps its photon range at n_max - 1
        assert isinstance(swept.point(bad), (ValueError, OverflowError))
    others = [i for i in range(len(grid)) if i != bad]
    clean = grid_sweep(method, omega, omega, [grid[i] for i in others], trunc, 4)
    # strong_rt's g = 0 at omega = 1e-300 fails on its own, as the next test shows
    assert clean.ok.all() or (method, case) == ("strong_rt", "tiny_omega")
    assert [_point_text(swept.point(i)) for i in others] == [
        _point_text(clean.point(k)) for k in range(len(others))
    ]


def test_a_coupling_whose_guard_band_overflows_fails_alone_in_exact():
    # The guard band squares g / omega, which is out of float range at
    # g = 1e200: that coupling records the OverflowError, before any stack,
    # and the others are what they are without it, bit for bit.
    trunc = TruncationConfig(n_max=60)
    swept = grid_sweep("exact", 1.0, 1.0, [0.0, 0.5, 1e200], trunc, 4)
    clean = grid_sweep("exact", 1.0, 1.0, [0.0, 0.5], trunc, 4)
    assert clean.ok.all()
    assert [_point_text(swept.point(i)) for i in range(2)] == [
        _point_text(clean.point(i)) for i in range(2)
    ]
    assert type(swept.point(2)) is OverflowError
    # At omega = 1e-300 no coupling divides by an underflowed omega**2.
    tiny = grid_sweep("exact", 1e-300, 1e-300, [0.0, 0.5], trunc, 4)
    assert not any(isinstance(exc, ZeroDivisionError) for exc in tiny.errors)
    assert type(tiny.point(1)) is OverflowError


def test_a_huge_coupling_leaves_the_other_closed_form_blocks_as_they_are(monkeypatch):
    # g = 1e150 asks for about 1e300 photon levels; sizing every block by it
    # once made each block one coupling.
    blocks = []
    table = methods.closed_form_table

    def recorded(form, omega, omega0, grid, count):
        if len(grid):  # not the whole-grid check on an empty grid
            blocks.append((np.asarray(grid).tolist(), count))
        return table(form, omega, omega0, grid, count)

    monkeypatch.setattr(methods, "closed_form_table", recorded)
    finite = np.linspace(0.0, 1.5, 1001)
    runs = []
    for grid in (finite, np.append(finite, 1e150)):
        blocks.clear()
        swept = grid_sweep("jc", 1.0, 1.0, grid, TruncationConfig(n_max=60), 40)
        runs.append((list(blocks), [i for i, exc in enumerate(swept.errors) if exc is not None]))
    (clean, clean_failed), (huge, huge_failed) = runs
    assert huge[:-1] == clean and huge[-1][0] == [1e150]
    assert clean_failed == [] and huge_failed == [1001]
    for grid, count in huge:
        if len(grid) > 1:
            assert len(grid) * methods._CLOSED_FORM_PEAK * 8 * (2 * count + 2) <= methods._STACK_BYTES


@pytest.mark.parametrize("method", sorted(CLOSED_FORM_METHODS))
def test_a_closed_form_stack_peaks_within_the_stated_values_per_entry(monkeypatch, method):
    # One stack of the whole grid at 40 levels: each coupling adds less than
    # _CLOSED_FORM_PEAK float64 values per (coupling, slot) entry to the
    # traced peak (about 4.8, and 6.0 for strong_rt).
    monkeypatch.setattr(methods, "_STACK_BYTES", 1 << 40)
    trunc = TruncationConfig(n_max=60)
    peaks = []
    for size in (100, 400):
        grid = np.linspace(0.0, 0.3, size)
        grid_sweep(method, 1.0, 1.0, grid, trunc, 40)  # imports and caches first
        tracemalloc.start()
        try:
            grid_sweep(method, 1.0, 1.0, grid, trunc, 40)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    slots = 2 * methods._closed_form_count(0.3, 1.0, 40) + 2
    per_entry = (peaks[1] - peaks[0]) / 300 / (8 * slots)
    assert 0 < per_entry < methods._CLOSED_FORM_PEAK


def test_a_non_finite_closed_form_energy_fails_its_coupling():
    # At omega = omega0 = g = 1e300, strong_rt's g * g overflows, so its
    # energies are not finite.
    with pytest.warns(RuntimeWarning, match="overflow"):
        swept = grid_sweep("strong_rt", 1e300, 1e300, [1e300], TruncationConfig(n_max=60), 2)
    assert _point_text(swept.point(0)) == (
        "ArithmeticError: closed form gives a non-finite energy")
    for omega in (1.0, 1e-300):  # (2g / omega)^2 is 0 at g = 0 however small omega is
        assert grid_sweep("strong_rt", omega, omega, [0.0], TruncationConfig(n_max=60), 2).ok.all()


def test_off_resonance_still_fails_the_whole_closed_form_grid():
    for method in ("jc", "rt2", "rt1"):
        with pytest.raises(ValueError, match="require omega0 = omega"):
            grid_sweep(method, 1.0, 0.5, [0.0, 1e150], TruncationConfig(n_max=60), 4)


@pytest.mark.parametrize("method", METHOD_ORDER)
def test_n_levels_below_one_fails_the_same_way_for_every_method(method):
    for n_levels in (0, -1):
        with pytest.raises(ValueError, match=r"^n_levels must be >= 1$"):
            grid_sweep(method, 1.0, 1.0, [0.1, 0.2], TruncationConfig(n_max=10), n_levels)


def test_kam_truncation_adds_guard_rows():
    assert kam_truncation(10).n_max == 12
    assert kam_truncation(4).n_max == 6


# ---------------------------------------------------------------- agreement


def test_exact_method_matches_oracle_head():
    params = _params(0.2)
    trunc = TruncationConfig(n_max=40)
    levels = grid_sweep("exact", 1.0, 1.0, [params.g], trunc, 10).point(0)
    direct = eigh_one(build_rabi(params, trunc))
    np.testing.assert_allclose([e for _, _, e in levels], direct.values[:10], rtol=1e-12)
    p = build_parity(trunc)
    expect = np.real(np.einsum("ik,ij,jk->k", direct.vectors.conj(), p, direct.vectors))
    dense_labels = ["even" if e > 0.99 else "odd" if e < -0.99 else "?" for e in expect]
    assert [parity for _, parity, _ in levels] == dense_labels[:10]


def test_jc_method_equals_closed_form():
    got = _energies("jc", [0.3], 10)
    table = closed_form_table("jc", 1.0, 1.0, [0.3], 14)
    closed = np.sort(table.energies[0][~table.spurious])
    np.testing.assert_allclose(got[0], closed[:10], atol=1e-12)


def test_rt1_matrix_path_reproduces_dressed_ladder():
    chain = levels_from_chain(rabi_rt1_chain((_params(0.25),), TruncationConfig(n_max=60)), 10)
    np.testing.assert_allclose(
        [energy for _, _, energy in chain], _energies("jc", [0.25], 10)[0], atol=1e-9
    )


def _point_text(point):
    """A point's levels as (branch, parity, exact energy bits), or its error."""
    if isinstance(point, Exception):
        return f"{type(point).__name__}: {point}"
    return [(branch, parity, energy.hex()) for branch, parity, energy in point]


def _levels_or_error(compute):
    try:
        return compute()
    except ValueError as exc:
        return exc


@pytest.mark.parametrize(
    "n_max, g_max, g_steps, n_levels",
    [
        (4, 3.0, 61, 6),  # the photon cap n <= n_max - 1 binds at large g
        (4, 3.0, 61, 7),
        (12, 1.5, 16, 40),  # too few levels at every coupling
        (1, 3.0, 16, 1),
        (1, 3.0, 4, 2),
        (120, 0.3, 81, 12),  # the benchmark's chains_gate grid
    ],
)
def test_rt1_equals_its_one_photon_chain_bit_for_bit(n_max, g_max, g_steps, n_levels):
    # rt1 is read off the jc table; the matrix chain it stands for must give
    # the same energies, labels, order and error text at every coupling.
    trunc = TruncationConfig(n_max=n_max)
    grid = np.linspace(0.0, g_max, g_steps)
    swept = grid_sweep("rt1", 1.0, 1.0, grid, trunc, n_levels)
    for i, g in enumerate(grid.tolist()):
        chain = _levels_or_error(
            lambda: levels_from_chain(rabi_rt1_chain((_params(g),), trunc), n_levels)
        )
        point = grid_sweep("rt1", 1.0, 1.0, [g], trunc, n_levels).point(0)
        assert _point_text(point) == _point_text(chain), g
        assert _point_text(swept.point(i)) == _point_text(chain), g


def test_rt1_sweep_builds_no_matrix(monkeypatch):
    config = SweepConfig(g_max=3.0, g_steps=13, n_max=8, n_levels=10,
                         methods=("rt1",))
    expected = table_to_csv(run_sweep(config))

    def no_matrix(*args, **kwargs):
        raise AssertionError("rt1 built a matrix")

    for module, name in ((methods, "rabi_rt1_chain"), (methods, "build_rabi"),
                         (operators, "build_rabi"), (transforms, "rt_one_photon")):
        monkeypatch.setattr(module, name, no_matrix)
    table = run_sweep(config)
    assert table.failures == ()
    assert table.row_count == 13 * 10
    assert table_to_csv(table) == expected


def test_jc_parity_sequence_matches_exact():
    exact, jc = (_sweep(method, [0.1], 8).parities(0).tolist() for method in ("exact", "jc"))
    assert jc == exact


def test_one_step_correction_beats_pair_model_at_weak_coupling():
    assert _max_err("rt1_kam", [0.15], 10) < _max_err("jc", [0.15], 10)


def test_full_kam_refinement_is_accurate_at_moderate_coupling():
    assert _max_err("rt_full_kam", [0.2], 10) < 5e-3


def test_zero_field_treatment_beats_plain_average_at_small_g():
    grid = [0.1, 0.3]
    assert (_max_err("strong_rt", grid, 8) < _max_err("strong_avg", grid, 8)).all()


def test_strong_methods_hold_at_large_coupling():
    for method in ("strong_avg", "strong_rt"):
        assert _max_err(method, [2.0], 8, n_max=80, oracle_n_max=80) < 5e-2


def test_iterated_two_photon_chain_is_deterministic():
    a = _energies("rt_full_kam", [0.4], 8)
    b = _energies("rt_full_kam", [0.4], 8)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (1, 8)


# ---------------------------------------------------------------- golden

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "chains_gate.csv.gz"


def _golden_points():
    """{g: {method: [(parity, energy), ...]}} of the recorded chain levels
    (n_max = 120, 12 levels, omega = omega0 = 1)."""
    lines = gzip.decompress(GOLDEN.read_bytes()).decode("utf-8").splitlines()
    assert lines[0] == "g,method,level,branch,parity,energy,spurious"
    points: dict = {}
    for line in lines[1:]:
        g, method, level, _, parity, energy, _ = line.split(",")
        rows = points.setdefault(float(g), {}).setdefault(method, [])
        assert int(level) == len(rows)
        rows.append((parity, float(energy)))
    return points


@pytest.mark.parametrize("index", [0, 17, 35, 52, 70, 87])
def test_chain_methods_match_recorded_values(index):
    points = _golden_points()
    g = sorted(points)[index]
    for method in ("rt1", "rt1_kam", "rt_full_kam"):
        levels = grid_sweep(method, 1.0, 1.0, [g], TruncationConfig(n_max=120), 12).point(0)
        recorded = points[g][method]
        assert [parity for _, parity, _ in levels] == [p for p, _ in recorded], (g, method)
        got = np.array([energy for _, _, energy in levels])
        want = np.array([e for _, e in recorded])
        err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
        assert err.max() <= 1e-12, (g, method, err.max())


def test_chain_sweeps_match_the_whole_golden_lattice():
    # One sweep per chain method over every coupling the benchmark records.
    points = _golden_points()
    grid = np.array(sorted(points))
    for method in ("rt1", "rt1_kam", "rt_full_kam"):
        swept = grid_sweep(method, 1.0, 1.0, grid, TruncationConfig(n_max=120), 12)
        assert swept.ok.all(), method
        for i, g in enumerate(grid.tolist()):
            recorded = points[g][method]
            assert [p for _, p, _ in swept.point(i)] == [p for p, _ in recorded], (g, method)
            want = np.array([e for _, e in recorded])
            err = np.abs(swept.energies[i] - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() <= 1e-12, (g, method, err.max())


# ---------------------------------------------------------------- stacked chains

CHAIN_METHODS = ("rt1_kam", "rt_full_kam")


def _one_coupling_error(method, g, n_levels):
    """Run the chain of g alone, a stack of one, and the KAM step on each of
    its parity blocks; the exception row 0 raises is the coupling's own."""
    th = methods._CHAINS[method]((_params(g),), kam_truncation(n_levels))
    for sign in (1.0, -1.0):
        levels, v = chain_residue(th, np.flatnonzero(th.parity[0] == sign))
        kam_iterate_full(levels, v, max_steps=1, tol_deg=1e-3)


@pytest.mark.parametrize("method", CHAIN_METHODS)
def test_a_failed_coupling_leaves_the_others_bit_for_bit(fail_chain_at, method):
    grid = np.linspace(0.0, 0.3, 25)
    bad = grid[[3, 4, 17]].tolist()  # two in one stack, one in another
    trunc = TruncationConfig(n_max=20)
    clean = grid_sweep(method, 1.0, 1.0, grid, trunc, 8)
    assert clean.ok.all()
    fail_chain_at(method, bad)
    swept = grid_sweep(method, 1.0, 1.0, grid, trunc, 8)
    for i, g in enumerate(grid.tolist()):
        if g in bad:
            error = row_error(_one_coupling_error, method, g, 8)
            assert isinstance(error, (ValueError, ArithmeticError))
            assert _point_text(swept.point(i)) == _point_text(error), g
        else:
            assert _point_text(swept.point(i)) == _point_text(clean.point(i)), g
    assert (~swept.ok).sum() == len(bad)


# g = 0 and underflowing or tiny couplings, the first active locus g_1, and a
# coupling far beyond the chains' range.
EDGE_COUPLINGS = (0.0, 1e-300, 1e-8, 2.0 / (1.0 + np.sqrt(3.0)), 6.0)


@pytest.mark.parametrize("n_levels", [2, 12, 40])
@pytest.mark.parametrize("method", CHAIN_METHODS)
def test_chain_operators_split_exactly_into_parity_blocks(method, n_levels):
    # What the chains' read-out rests on: every entry between an even and an
    # odd slot is exactly 0; the sign-0 slots are the kernel slots, as many at
    # every coupling as the chain's steps have kernel slots; and every row and
    # column at a sign-0 slot is exactly 0, so e_k is an exact zero eigenvector.
    grid = np.concatenate([np.linspace(0.0, 3.0, 31), EDGE_COUPLINGS])
    th = methods._CHAINS[method](tuple(_params(g) for g in grid), kam_truncation(n_levels))
    operator, parity, records = th.operator, th.parity, th.records
    same = parity[:, :, None] * parity[:, None, :] == 1.0
    assert (operator[~same] == 0.0).all()
    kernel = parity == 0.0
    assert records
    assert (kernel.sum(axis=1) == sum(iso.kernel_slots.size for iso in records)).all()
    assert not operator[kernel].any() and not operator.swapaxes(-1, -2)[kernel].any()


def _misplaced_entry(monkeypatch, method, couplings, kind):
    """Put 0.1 into every chain operator of ``method`` at ``couplings``,
    between its first even and first odd slot ("cross") or on its first
    sign-0 slot ("kernel")."""
    chain = methods._CHAINS[method]

    def spoiled(params, trunc):
        th = chain(params, trunc)
        operator = th.operator.copy()
        for row, p in enumerate(params):
            if p.g in couplings:
                first = {sign: np.flatnonzero(th.parity[row] == sign)[0] for sign in (1, -1, 0)}
                i, j = (first[1], first[-1]) if kind == "cross" else (first[0], first[0])
                operator[row, i, j] = operator[row, j, i] = 0.1
        return replace(th, operator=operator)

    monkeypatch.setitem(methods._CHAINS, method, spoiled)


@pytest.mark.parametrize("kind", ["cross", "kernel"])
@pytest.mark.parametrize("method", CHAIN_METHODS)
def test_an_entry_off_the_parity_blocks_fails_only_its_coupling(monkeypatch, method, kind):
    grid = np.linspace(0.0, 0.3, 25)
    bad = grid[[3, 4, 17]].tolist()  # two in one stack, one in another
    trunc = TruncationConfig(n_max=20)
    clean = grid_sweep(method, 1.0, 1.0, grid, trunc, 8)
    _misplaced_entry(monkeypatch, method, bad, kind)
    swept = grid_sweep(method, 1.0, 1.0, grid, trunc, 8)
    for i, g in enumerate(grid.tolist()):
        if g in bad:
            assert _point_text(swept.point(i)) == (
                "ArithmeticError: chain operator couples parity blocks "
                "(largest dropped entry 1.000e-01)"
            ), g
        else:
            assert _point_text(swept.point(i)) == _point_text(clean.point(i)), g


def test_the_contact_step_runs_on_parity_blocks_only(monkeypatch):
    # Every operator handed to the KAM step is one parity block of the chain,
    # never the whole kam_truncation box.
    trunc = kam_truncation(12)
    th = rt2_iterated_chain((_params(0.1),), trunc)
    blocks = [int((th.parity[0] == sign).sum()) for sign in (1.0, -1.0)]
    sizes = []
    step = kam.kam_iterate_full

    def recorded(levels, V, *args, **kwargs):
        sizes.extend({np.shape(levels)[-1], np.shape(V)[-1]})
        return step(levels, V, *args, **kwargs)

    monkeypatch.setattr(kam, "kam_iterate_full", recorded)
    monkeypatch.setattr(methods, "_STACK_BYTES", 1 << 40)  # one stack: one call per block
    swept = grid_sweep("rt_full_kam", 1.0, 1.0, np.linspace(0.0, 1.5, 31), trunc, 12)
    assert swept.ok.all()
    assert sorted(sizes) == sorted(blocks) and max(blocks) < trunc.dim


@pytest.mark.parametrize("method", CHAIN_METHODS)
def test_an_exception_of_the_whole_stack_is_recorded_at_its_coupling(monkeypatch, method):
    # One coupling makes a stacked call raise for its whole stack, as a LAPACK
    # LinAlgError does: only that coupling records it, the others are clean.
    grid = np.linspace(0.0, 0.3, 25)
    trunc = TruncationConfig(n_max=20)
    clean = grid_sweep(method, 1.0, 1.0, grid, trunc, 8)
    one_photon = transforms.rt_one_photon

    def failing(H, params, trunc):
        if np.any(transforms._couplings(params)[1] == grid[5]):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return one_photon(H, params, trunc)

    monkeypatch.setattr(transforms, "rt_one_photon", failing)
    swept = grid_sweep(method, 1.0, 1.0, grid, trunc, 8)
    failed = swept.point(5)
    assert type(failed) is np.linalg.LinAlgError
    assert str(failed) == "Eigenvalues did not converge"
    for i in range(grid.size):
        if i != 5:
            assert _point_text(swept.point(i)) == _point_text(clean.point(i)), i


@pytest.mark.parametrize("method", METHOD_ORDER)
def test_every_method_admits_a_bad_coupling_and_an_off_resonance_grid_alike(method):
    # A negative or non-finite coupling records the error ModelParams raises
    # for it; the other couplings are what a clean sweep gives.
    trunc = TruncationConfig(n_max=20)
    grid = [0.1, -0.1, np.nan, np.inf, 0.2]
    clean = grid_sweep(method, 1.0, 1.0, [0.1, 0.2], trunc, 8)
    assert clean.ok.all()
    swept = grid_sweep(method, 1.0, 1.0, grid, trunc, 8)
    assert [_point_text(swept.point(i)) for i in range(len(grid))] == [
        _point_text(clean.point(0)),
        "ValueError: g must be >= 0, got -0.1",
        "ValueError: g must be finite, got nan",
        "ValueError: g must be finite, got inf",
        _point_text(clean.point(1)),
    ]
    # Off one-photon resonance every dressed-ladder method fails the whole
    # grid; the others run.
    if method in WEAK_METHODS:
        with pytest.raises(ValueError, match="require omega0 = omega"):
            grid_sweep(method, 1.0, 0.8, grid, trunc, 8)
    else:
        off = grid_sweep(method, 1.0, 0.8, grid, trunc, 8)
        assert off.ok.tolist() == [True, False, False, False, True]


@pytest.mark.parametrize("method", CHAIN_METHODS)
def test_a_coupling_does_not_depend_on_its_stack(monkeypatch, method):
    grid = np.linspace(0.0, 0.3, 81)
    trunc = TruncationConfig(n_max=120)
    blocked = grid_sweep(method, 1.0, 1.0, grid, trunc, 12)
    assert blocked.ok.all()
    monkeypatch.setattr(methods, "_STACK_BYTES", 1 << 40)  # the whole grid in one stack
    whole = grid_sweep(method, 1.0, 1.0, grid, trunc, 12)
    assert [_point_text(whole.point(i)) for i in range(grid.size)] == [
        _point_text(blocked.point(i)) for i in range(grid.size)
    ]
    for i in (0, 1, 40, 79, 80):
        alone = grid_sweep(method, 1.0, 1.0, grid[i:i + 1], trunc, 12)
        assert _point_text(alone.point(0)) == _point_text(whole.point(i)), i


def test_a_chain_stack_is_solved_per_stack_not_per_coupling(monkeypatch):
    # An rt_full_kam sweep of 80 couplings in one stack makes as many
    # eigensolver calls as one of 8: no step loops over the couplings.
    monkeypatch.setattr(methods, "_STACK_BYTES", 1 << 40)
    calls = []
    for name in ("eigh", "eigvalsh"):
        solve = getattr(np.linalg, name)

        def counted(*args, _solve=solve, **kwargs):
            calls.append(_solve)
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    counts = []
    for size in (8, 80):
        calls.clear()
        swept = grid_sweep(
            "rt_full_kam", 1.0, 1.0, np.linspace(0.0, 0.3, size), TruncationConfig(n_max=120), 12
        )
        assert swept.ok.all()
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _traced_peak(method, grid, n_levels):
    methods.chain_sweep(method, 1.0, 1.0, grid, n_levels)  # imports and caches first
    tracemalloc.start()
    try:
        methods.chain_sweep(method, 1.0, 1.0, grid, n_levels)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_levels, sizes", [(12, (27, 81)), (40, (4, 12))])
@pytest.mark.parametrize("method", CHAIN_METHODS)
def test_a_chain_stack_peaks_within_the_stated_matrices_per_coupling(
    monkeypatch, method, n_levels, sizes
):
    # One stack of the whole grid, g from 0 (dim 30 and dim 86): each coupling
    # adds less than _CHAIN_PEAK (dim, dim) float64 matrices to the traced peak.
    monkeypatch.setattr(methods, "_STACK_BYTES", 1 << 40)
    dim = kam_truncation(n_levels).dim
    small, large = (_traced_peak(method, np.linspace(0.0, 0.3, size), n_levels) for size in sizes)
    per_coupling = (large - small) / (sizes[1] - sizes[0]) / (8 * dim**2)
    assert 0 < per_coupling < methods._CHAIN_PEAK


@pytest.mark.parametrize("method", CHAIN_METHODS)
def test_the_byte_budget_runs_81_couplings_at_12_levels_in_3_stacks(monkeypatch, method):
    sizes = []
    chain = methods._CHAINS[method]

    def counted(params, trunc):
        sizes.append(len(params))
        return chain(params, trunc)

    monkeypatch.setitem(methods._CHAINS, method, counted)
    swept = grid_sweep(method, 1.0, 1.0, np.linspace(0.0, 0.3, 81), TruncationConfig(n_max=120), 12)
    assert swept.ok.all()
    assert len(sizes) <= 3 and sum(sizes) == 81


@pytest.mark.xfail(strict=True, reason=(
    "_kam_levels takes a level's photon number from its slot after generic_numeric_rt "
    "has sorted the slots by energy, so below g = 1 the zero-energy kernel slots push "
    "the second level out of the guard band"
))
def test_rt_full_kam_gives_2_levels_below_g_1():
    swept = grid_sweep("rt_full_kam", 1.0, 1.0, np.linspace(0.0, 3.0, 61), None, 2)
    assert swept.ok.all()
