"""Sweep results as arrays: the block CSV writer against the per-row
reference writer and its memory bound, a table's rows against per-point
method calls, and the comparison on array-backed and CSV-read tables."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonancekit import methods, sweep
from resonancekit.cli import main
from resonancekit.methods import BRANCH_UNASSIGNED, METHOD_ORDER, grid_sweep
from resonancekit.operators import TruncationConfig
from resonancekit.spectrum import (
    PARITY_EVEN,
    PARITY_ODD,
    MethodSweep,
    SpectrumTable,
)
from resonancekit.sweep import (
    CSV_HEADER,
    SweepConfig,
    compare_methods,
    errors_to_csv,
    run_sweep,
    table_to_csv,
)

from dense_oracles import PARITY_NA
from row_reference import SpectrumRow, csv_to_table, rows_compare, rows_to_csv, table_rows

# A parity label no method emits; the CSV round trip must still carry it.
PARITY_UNCLASSIFIED = "unclassified"
BRANCHES = ("+", "-", BRANCH_UNASSIGNED)
PARITIES = (PARITY_EVEN, PARITY_ODD, PARITY_NA, PARITY_UNCLASSIFIED)

_energy = st.floats(allow_nan=False, allow_infinity=False) | st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False
)
_g = st.sampled_from([0.0, -0.0]) | st.floats(
    min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False
)


@st.composite
def _sweeps(draw, method: str, size: int) -> MethodSweep:
    """A random sweep of one method over ``size`` couplings: every branch and
    parity label can occur, failed couplings interleave with good ones."""
    n_levels = draw(st.integers(0, 4))
    labels = draw(
        st.lists(st.tuples(st.sampled_from(BRANCHES), st.sampled_from(PARITIES)),
                 min_size=1, max_size=6, unique=True)
    )
    shape = (size, n_levels)
    energies = draw(st.lists(_energy, min_size=size * n_levels, max_size=size * n_levels))
    codes = draw(st.lists(st.integers(0, len(labels) - 1),
                          min_size=size * n_levels, max_size=size * n_levels))
    failed = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    errors = tuple(
        ValueError(f"point {i} failed") if bad else None for i, bad in enumerate(failed)
    )
    return MethodSweep(
        method, np.array(energies, dtype=float).reshape(shape), tuple(labels),
        np.array(codes, dtype=np.intp).reshape(shape), errors,
    )


@st.composite
def _tables(draw, increasing: bool = False, with_exact: bool = False) -> SpectrumTable:
    if increasing:  # a sweep configuration's grid: strictly increasing
        grid = sorted(draw(st.lists(_g, min_size=1, max_size=6, unique=True)))
    else:
        grid = draw(st.lists(_g, min_size=1, max_size=6))
    names = draw(st.lists(st.sampled_from(METHOD_ORDER), min_size=1, max_size=4, unique=True))
    ordered = [m for m in METHOD_ORDER if m in names or (with_exact and m == "exact")]
    return SpectrumTable(
        np.array(grid, dtype=float), tuple(draw(_sweeps(m, len(grid))) for m in ordered)
    )


@settings(max_examples=80, deadline=None)
@given(_tables(), st.integers(1, 12) | st.just(sweep._CSV_BLOCK_ROWS))
def test_array_writer_is_byte_identical_to_the_row_writer(table, block_rows):
    # Blocks of one coupling up to the whole grid, into a file and as text.
    out = io.BytesIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "_CSV_BLOCK_ROWS", block_rows)
        table_to_csv(table, out)
        text = table_to_csv(table)
    assert out.getvalue().decode() == text == rows_to_csv(table_rows(table))


def _write_csv(table, path):
    """The sweep CSV of ``table`` written to the file ``path``, as the CLI
    writes it."""
    with open(path, "wb") as fh:
        table_to_csv(table, fh)


@pytest.mark.parametrize("block_rows", [1, 54, 1 << 13])
@pytest.mark.parametrize("case", ["blocks", "zero_levels"])
def test_run_sweep_writes_the_csv_of_its_table_in_blocks(monkeypatch, tmp_path, case, block_rows):
    # "blocks": 18 rows a coupling (exact, strong_avg and strong_rt at 6
    # levels; jc fails everywhere off resonance and has 0 levels), so 54 rows
    # make blocks of 3 couplings, and the closed forms fail at couplings 2
    # and 3, either side of the first block edge, and at 12, alone in the
    # last block.  "zero_levels": the one method fails everywhere.
    methods_ = ("exact", "jc", "strong_avg", "strong_rt") if case == "blocks" else ("jc",)
    config = SweepConfig(omega0=0.5, g_max=1.2, g_steps=13, n_max=40, n_levels=6,
                         methods=methods_)
    grid = config.g_grid().tolist()
    short = [grid[2], grid[3], grid[12]]
    monkeypatch.setattr(
        methods, "_closed_form_count", lambda g, omega, n_levels: 1 if g in short else n_levels + 8
    )
    monkeypatch.setattr(sweep, "_CSV_BLOCK_ROWS", block_rows)
    table = run_sweep(config)
    _write_csv(table, tmp_path / "sweep.csv")
    text = (tmp_path / "sweep.csv").read_bytes().decode("utf-8")
    assert text == table_to_csv(table) == rows_to_csv(table_rows(table))
    jc = table.sweep("jc")
    assert jc.energies.shape == (13, 0) and not jc.ok.any()
    if case == "zero_levels":
        assert text == CSV_HEADER + "\n"
        return
    failed = {(g, m) for g, m, _ in table.failures if m != "jc"}
    assert failed == {(g, m) for g in short for m in ("strong_avg", "strong_rt")}
    assert table.row_count == 13 * 6 + 2 * 10 * 6


def test_sweep_csv_memory_does_not_grow_with_the_output(tmp_path):
    # tracemalloc peak of a 4-closed-form, 40-level sweep written to a file:
    # about 28 bytes a row at 501 couplings, 253 when the whole CSV was built
    # in memory before it was written.  The table's own arrays take 9.
    config = SweepConfig(g_max=1.5, g_steps=501, n_levels=40,
                         methods=("jc", "rt2", "strong_avg", "strong_rt"))
    tracemalloc.start()
    try:
        table = run_sweep(config)
        _write_csv(table, tmp_path / "sweep.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.row_count == 501 * 4 * 40
    assert peak / table.row_count < 100


def test_sweep_command_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch, capsys):
    # tracemalloc peak of a 4-closed-form, 40-level sweep command at 100 and
    # 400 couplings, with a budget of 45 couplings a block: 3 to 40 KB apart
    # (the full grid's own array, and what other tests leave allocated).  Holding every coupling's arrays until the
    # CSV is written, they were 0.8 MB apart.
    monkeypatch.setattr(methods, "_STACK_BYTES", 1 << 16)
    argv = ["sweep", "--g-max", "1.5", "--levels", "40", "--methods",
            "jc,rt2,strong_avg,strong_rt", "--out", str(tmp_path / "sweep.csv")]
    for steps in ("100", "400"):  # first-use tables and imports
        main([*argv, "--g-steps", steps])
    peaks = []
    for steps in ("100", "400"):
        tracemalloc.start()
        try:
            main([*argv, "--g-steps", steps])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert capsys.readouterr().out.splitlines()[-1].endswith(": 64000 rows, 0 failed points")
    assert abs(peaks[1] - peaks[0]) < 64 * 1024
    # A level's label code takes one byte in every method.
    for method in METHOD_ORDER:
        result = grid_sweep(method, 1.0, 1.0, [0.0, 0.1], TruncationConfig(n_max=20), 4)
        assert result.label_index.dtype == np.uint8, method


def test_one_byte_label_codes_refuse_a_257th_label():
    levels = [(str(k), PARITY_EVEN, float(k)) for k in range(257)]
    full = MethodSweep.from_points("jc", [levels[:256]], 256)
    assert full.label_index.dtype == np.uint8
    assert full.point(0) == levels[:256]
    with pytest.raises(ValueError, match="jc has 257 level labels"):
        MethodSweep.from_points("jc", [levels], 257)


def test_array_writer_covers_zero_couplings_and_every_label():
    labels = tuple((b, p) for b in BRANCHES for p in PARITIES)
    codes = np.arange(len(labels)).reshape(4, 3)
    energies = np.array([[1e-300, -2.5e-17, 0.0], [-0.0, 3.0, 1e300],
                         [7.0, 8.0, 9.0], [-1.25e5, 6.02e23, 5e-324]])
    failed = ValueError("requested 3 levels")
    table = SpectrumTable(
        np.array([0.0, -0.0, 0.5, 1e-9]),
        (
            MethodSweep("exact", energies, labels, codes, (None, None, failed, None)),
            MethodSweep("jc", energies[:, :2], labels, codes[:, :2], (failed, None, None, None)),
        ),
    )
    text = table_to_csv(table)
    assert text == rows_to_csv(table_rows(table))
    lines = text.splitlines()
    assert lines[1] == "0,exact,0,+,even,1e-300,False"
    assert lines[4] == "-0,exact,0,+,unclassified,-0,False"
    assert lines[-1] == "1.0000000000000001e-09,jc,1,unassigned,n/a,6.02e+23,False"
    assert len(lines) == 1 + 3 * 3 + 3 * 2
    assert {line.split(",")[3] for line in lines[1:]} == set(BRANCHES)
    assert {line.split(",")[4] for line in lines[1:]} == set(PARITIES)
    assert table.row_count == len(table_rows(table)) == 15
    assert table.failures == (
        (0.0, "jc", "ValueError: requested 3 levels"),
        (0.5, "exact", "ValueError: requested 3 levels"),
    )


@settings(max_examples=80, deadline=None)
@given(_tables(increasing=True))
def test_csv_round_trip_of_random_tables_is_exact(table):
    text = table_to_csv(table)
    back = csv_to_table(text)
    assert table_rows(back) == table_rows(table)
    assert table_to_csv(back) == text


# The energies span the whole float range, so |dE| can overflow to inf, in
# the array path and the row reference alike: the two must agree, inf
# included, and numpy's overflow warning is expected here.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(_tables(increasing=True, with_exact=True))
def test_rank_pair_masks_equal_the_per_row_pairing(table):
    config = SweepConfig(methods=tuple(s.method for s in table.sweeps))
    stats = compare_methods(table)
    assert repr(stats) == repr(rows_compare(table_rows(table), config.methods))


def test_mean_error_is_finite_where_finite_errors_sum_past_the_float_maximum():
    labels, codes = ((BRANCH_UNASSIGNED, PARITY_EVEN),), np.zeros((2, 1), dtype=np.intp)
    table = SpectrumTable(np.array([0.0, 0.1]), (
        MethodSweep("exact", np.zeros((2, 1)), labels, codes, (None, None)),
        MethodSweep("jc", np.full((2, 1), 1.5e308), labels, codes, (None, None)),
    ))
    config = SweepConfig(methods=("exact", "jc"))
    expected = {"exact": (0.0, 0.0, 2), "jc": (1.5e308, 1.5e308, 2)}
    assert compare_methods(table) == expected
    assert rows_compare(table_rows(table), config.methods) == expected


@pytest.mark.parametrize("method", ["exact", "jc", "rt1", "rt1_kam", "rt_full_kam"])
def test_rows_equal_a_per_point_grid_sweep_loop(monkeypatch, fail_chain_at, method):
    # Failed couplings interleave with good ones: the guard band for exact,
    # a short photon range for jc and for rt1, which reads the jc table, and
    # a failed check at chosen couplings for the contact-iteration chains.
    config = SweepConfig(g_max=3.0, g_steps=13, n_max=20, n_levels=10,
                         methods=(method,))
    grid = config.g_grid().tolist()
    monkeypatch.setattr(
        methods, "_closed_form_count",
        lambda g, omega, n_levels: 3 if g in grid[3::4] else n_levels + 20,
    )
    fail_chain_at(method, grid[3::4])
    table = run_sweep(config)
    trunc = TruncationConfig(n_max=config.n_max)
    rows, failures = [], []
    for g in grid:
        levels = grid_sweep(method, 1.0, 1.0, [g], trunc, config.n_levels).point(0)
        if isinstance(levels, Exception):
            failures.append((g, method, f"{type(levels).__name__}: {levels}"))
            continue
        rows.extend(SpectrumRow(g, method, k, *level, False) for k, level in enumerate(levels))
    assert rows and failures
    assert table_rows(table) == tuple(rows)
    assert [(r.energy, r.parity) for r in table_rows(table)] == [(r.energy, r.parity) for r in rows]
    assert table.failures == tuple(failures)
    assert table.row_count == len(rows)


@pytest.fixture(scope="module")
def mixed_table():
    """A sweep whose exact baseline fails above g = 0.8 and whose methods
    carry every label kind: ladder branches, unassigned, n/a."""
    config = SweepConfig(g_max=3.0, g_steps=31, n_max=20, n_levels=10,
                         methods=("exact", "jc", "rt1", "rt1_kam", "strong_avg"))
    return config, run_sweep(config)


def test_csv_round_trip_keeps_rows_and_marks_failed_points(mixed_table):
    _, table = mixed_table
    assert table.failures
    text = table_to_csv(table)
    back = csv_to_table(text)
    assert table_rows(back) == table_rows(table)
    assert table_to_csv(back) == text
    # a point without rows in the CSV is the one that failed
    assert [(g, m) for g, m, _ in back.failures] == [(g, m) for g, m, _ in table.failures]
    assert {message for _, _, message in back.failures} == {"LookupError: no rows in the CSV"}


def test_compare_and_report_agree_on_array_and_csv_tables(mixed_table):
    config, table = mixed_table
    back = csv_to_table(table_to_csv(table))
    stats = [compare_methods(t) for t in (table, back)]
    assert repr(stats[0]) == repr(stats[1]) == repr(rows_compare(table_rows(table), config.methods))
    assert errors_to_csv(stats[0]) == errors_to_csv(stats[1])
    assert stats[0]["exact"] == (0.0, 0.0, 9 * 10)


def test_csv_to_table_rejects_rows_it_cannot_hold():
    header = "g,method,level,branch,parity,energy,spurious"
    with pytest.raises(ValueError, match="unknown methods"):
        csv_to_table(f"{header}\n0,bogus,0,+,even,1,False\n")
    with pytest.raises(ValueError, match="not a sweep table"):
        csv_to_table(f"{header}\n0,jc,1,+,even,1,False\n")  # level 1 without level 0
    with pytest.raises(ValueError, match="not a sweep table"):
        csv_to_table(f"{header}\n0,jc,0,+,even,1,True\n")  # spurious rows are never written
    two, one = "0,jc,0,+,even,1,False\n0,jc,1,+,even,2,False\n", "0.5,jc,0,+,even,1,False\n"
    for text in (two + one, one + two):  # a level count that varies within a method
        with pytest.raises(ValueError):
            csv_to_table(header + "\n" + text)
    with pytest.raises(ValueError, match="not a sweep table"):
        csv_to_table(f"{header}\n0,jc,0,+,even,1,False\n0.5,jc,0,+,even,1,False\n"
                     "0,jc,1,+,even,2,False\n")  # a coupling's rows split
