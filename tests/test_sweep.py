"""Sweep configuration, CSV round trips, error tables, resonance reports."""

import threading

import numpy as np
import pytest

from resonancekit import methods
from resonancekit.methods import METHOD_ORDER, compute_levels
from resonancekit.operators import ModelParams, TruncationConfig
from resonancekit.spectrum import PARITY_EVEN, PARITY_ODD
from resonancekit.sweep import (
    CSV_HEADER,
    DEFAULT_METHODS,
    ERROR_CSV_HEADER,
    LOCUS_CSV_HEADER,
    SweepConfig,
    compare_methods,
    parse_config,
    resonance_report,
    run_sweep,
    table_to_csv,
    worker_count,
)

from row_reference import SpectrumRow, csv_to_table, table_rows


@pytest.fixture(scope="module")
def small_table():
    """One in-memory sweep shared by the structural tests."""
    config = SweepConfig(
        g_min=0.0, g_max=0.3, g_steps=4, n_max=24, n_levels=6,
        methods=("jc", "exact"), output_path="",
    )
    return config, run_sweep(config, out_path="")


def test_config_defaults_and_grid():
    config = SweepConfig()
    assert config.omega == 1.0
    assert config.omega0 == 1.0
    assert config.methods == DEFAULT_METHODS
    assert config.output_path == "sweep.csv"
    grid = config.g_grid()
    assert grid.shape == (config.g_steps,)
    assert grid[0] == config.g_min
    assert grid[-1] == config.g_max
    steps = np.diff(grid)
    assert np.allclose(steps, steps[0])


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        ({"omega": 0.0}, "omega must be positive"),
        ({"omega0": -1.0}, "omega0 must be non-negative"),
        ({"g_min": -0.1}, "g_min must be non-negative"),
        ({"g_max": -1.0}, "g_min must not exceed g_max"),
        ({"g_steps": 0}, "g_steps must be >= 1"),
        ({"n_max": 0}, "n_max must be >= 1"),
        ({"n_levels": 0}, "n_levels must be >= 1"),
        ({"omega": -2.0}, "omega must be positive"),
        ({"g_min": 1.0, "g_max": 0.5}, "g_min must not exceed g_max"),
        ({"methods": ()}, "methods must be a non-empty set"),
        ({"methods": ("exact", "nope")}, "unknown entries ['nope']"),
        ({"omega": float("inf")}, "omega must be finite"),
        ({"omega0": float("nan")}, "omega0 must be finite"),
        ({"g_min": float("nan")}, "g_min must be finite"),
        ({"g_max": float("inf")}, "g_max must be finite"),
    ],
)
def test_config_validation_messages(kwargs, fragment):
    with pytest.raises(ValueError, match=None) as err:
        SweepConfig(**kwargs)
    assert fragment in str(err.value)


def test_config_canonicalizes_method_order():
    config = SweepConfig(methods=("strong_rt", "exact", "jc"))
    assert config.methods == ("exact", "jc", "strong_rt")
    # duplicates collapse, order still follows the registry
    config = SweepConfig(methods=("jc", "jc", "exact"))
    assert config.methods == ("exact", "jc")
    everything = SweepConfig(methods=tuple(reversed(METHOD_ORDER)))
    assert everything.methods == METHOD_ORDER


def test_parse_config_defaults():
    assert parse_config() == SweepConfig()
    assert parse_config(None, None) == SweepConfig()


def test_parse_config_reads_flat_file(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(
        "# comment lines and blanks are ignored\n"
        "\n"
        "  g_max = 0.6  \n"
        "n_max=24\n"
        "methods = jc, exact\n"
        "output_path = run.csv\n"
    )
    config = parse_config(str(path))
    assert config.g_max == 0.6
    assert config.n_max == 24
    assert config.methods == ("exact", "jc")
    assert config.output_path == "run.csv"
    # untouched keys keep their defaults
    assert config.omega == SweepConfig().omega


def test_parse_config_file_errors(tmp_path):
    bad_shape = tmp_path / "a.cfg"
    bad_shape.write_text("omega=1.0\n\njust words\n")
    with pytest.raises(ValueError) as err:
        parse_config(str(bad_shape))
    assert f"{bad_shape}:3: expected key=value" in str(err.value)

    unknown = tmp_path / "b.cfg"
    unknown.write_text("bogus=1\n")
    with pytest.raises(ValueError, match="unknown key 'bogus'"):
        parse_config(str(unknown))

    unparsable = tmp_path / "c.cfg"
    unparsable.write_text("g_steps=abc\n")
    with pytest.raises(ValueError, match="unparsable value for g_steps"):
        parse_config(str(unparsable))


def test_parse_config_overrides_win(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text("g_max=0.6\nn_levels=4\n")
    config = parse_config(
        str(path),
        overrides={"g_max": 2.5, "methods": "strong_rt,exact", "n_max": None},
    )
    assert config.g_max == 2.5  # override beats the file
    assert config.n_levels == 4  # file beats the default
    assert config.methods == ("exact", "strong_rt")
    assert config.n_max == SweepConfig().n_max  # None overrides are ignored


def test_parse_config_rejects_unknown_override():
    with pytest.raises(ValueError, match="unknown key 'bogus'"):
        parse_config(overrides={"bogus": 1})


def test_run_sweep_row_grid(small_table):
    config, table = small_table
    grid = config.g_grid()
    assert not table.failures
    rows = table_rows(table)
    assert len(rows) == len(grid) * len(config.methods) * config.n_levels
    # row order is (g ascending, registry method order, level ascending)
    expected_keys = [
        (g, method, level)
        for g in grid
        for method in config.methods
        for level in range(config.n_levels)
    ]
    assert [(r.g, r.method, r.level) for r in rows] == expected_keys
    assert all(r.parity in (PARITY_EVEN, PARITY_ODD) for r in rows)
    assert not any(r.spurious for r in rows)


def test_run_sweep_matches_direct_method_calls(small_table):
    config, table = small_table
    g = config.g_grid()[2]
    params = ModelParams(omega=config.omega, omega0=config.omega0, g=float(g))
    trunc = TruncationConfig(n_max=config.n_max)
    for method in config.methods:
        direct = compute_levels(method, params, trunc, config.n_levels)
        swept = [r for r in table_rows(table) if r.method == method and r.g == g]
        assert [r.energy for r in swept] == [lv.energy for lv in direct]
        assert [r.branch for r in swept] == [lv.branch for lv in direct]


def test_run_sweep_interleaves_closed_forms_with_matrix_points():
    config = SweepConfig(g_max=0.6, g_steps=7, n_max=30, n_levels=6,
                         methods=("exact", "jc", "rt1", "strong_rt"), output_path="")
    table = run_sweep(config, out_path="")
    trunc = TruncationConfig(n_max=config.n_max)
    expected = [
        SpectrumRow(g, method, lv.level, lv.branch, lv.parity, lv.energy, False)
        for g in config.g_grid().tolist()
        for method in config.methods
        for lv in compute_levels(
            method, ModelParams(config.omega, config.omega0, g), trunc, config.n_levels
        )
    ]
    assert list(table_rows(table)) == expected


@pytest.mark.parametrize(
    "methods",
    [("jc", "strong_rt"), ("exact",), DEFAULT_METHODS, ("rt1", "rt1_kam", "rt_full_kam")],
    ids=["closed_forms", "exact", "default", "chains"],
)
def test_no_sweep_starts_a_thread(monkeypatch, methods):
    def no_thread(self):
        raise AssertionError("a sweep must run on the calling thread")

    monkeypatch.setenv("RESONANCEKIT_THREADS", "4")
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    config = SweepConfig(g_max=1.0, g_steps=5, n_max=20, n_levels=4,
                         methods=methods, output_path="")
    table = run_sweep(config, out_path="")
    assert not table.failures
    assert len(table_rows(table)) == 5 * len(methods) * 4
    assert worker_count() == 1


@pytest.mark.parametrize("omega0", [0.0, 0.37, 1.0])
@pytest.mark.parametrize(
    "n_max, n_levels, g_max, g_steps, block",
    [
        (20, 10, 1.0, 41, 3 * 2 * 21 * 21),  # three couplings per stack
        (60, 12, 3.0, 81, 1 << 18),  # stacks of 50 and 14 couplings
    ],
)
def test_exact_sweep_matches_per_point_levels_and_failures(
    monkeypatch, omega0, n_max, n_levels, g_max, g_steps, block
):
    # Both grids cross the coupling beyond which the guard band validates
    # fewer than n_levels levels, and span several stacks; ``block`` counts
    # the entries of both parity blocks' leading boxes a stack may hold.
    monkeypatch.setattr(methods, "_STACK_BYTES", block * 8 * methods._EXACT_PEAK)
    config = SweepConfig(omega0=omega0, g_max=g_max, g_steps=g_steps, n_max=n_max,
                         n_levels=n_levels, methods=("exact",), output_path="")
    table = run_sweep(config, out_path="")
    trunc = TruncationConfig(n_max=n_max)
    rows, failures = [], []
    for g in config.g_grid().tolist():
        try:
            levels = compute_levels("exact", ModelParams(1.0, omega0, g), trunc, n_levels)
        except ValueError as exc:
            failures.append((g, "exact", f"ValueError: {exc}"))
            continue
        rows.extend(
            SpectrumRow(g, "exact", lv.level, lv.branch, lv.parity, lv.energy, False)
            for lv in levels
        )
    assert rows and failures
    assert list(table_rows(table)) == rows
    assert list(table.failures) == failures


def test_spectrum_rows_have_slots():
    row = SpectrumRow(0.1, "jc", 0, "+", PARITY_EVEN, 1.0, False)
    assert not hasattr(row, "__dict__")


def test_run_sweep_writes_csv(tmp_path):
    config = SweepConfig(g_max=0.2, g_steps=3, n_max=12, n_levels=4,
                         methods=("exact",), output_path="")
    out = tmp_path / "out.csv"
    table = run_sweep(config, out_path=str(out))
    text = out.read_text(encoding="utf-8")
    assert text == table_to_csv(table)
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 1 + len(table_rows(table))


def test_run_sweep_output_path_selection(tmp_path):
    target = tmp_path / "from_config.csv"
    config = SweepConfig(g_max=0.1, g_steps=2, n_max=10, n_levels=3,
                         methods=("exact",), output_path=str(target))
    run_sweep(config)  # out_path=None falls back to config.output_path
    assert target.exists()

    target.unlink()
    run_sweep(config, out_path="")  # empty path suppresses the write
    assert not target.exists()
    assert not list(tmp_path.glob("*.csv"))


def test_run_sweep_records_failures_and_continues():
    config = SweepConfig(omega0=0.5, g_max=0.2, g_steps=3, n_max=16,
                         n_levels=4, methods=("exact", "jc"), output_path="")
    table = run_sweep(config, out_path="")
    # jc needs the resonant atom; exact does not, so its rows survive
    assert sorted({r.method for r in table_rows(table)}) == ["exact"]
    assert len(table_rows(table)) == 3 * config.n_levels
    assert len(table.failures) == 3
    for g, method, message in table.failures:
        assert method == "jc"
        assert message.startswith("ValueError: one-photon-resonance")
    assert [f[0] for f in table.failures] == list(config.g_grid())

    # The matrix chains fail point by point through the same sweep path.
    methods = ("exact", "rt1", "rt1_kam", "rt_full_kam")
    for overrides, failing in (
        ({"omega0": 0.5, "n_max": 16, "n_levels": 4}, {"rt1", "rt1_kam", "rt_full_kam"}),
        # the contact-iteration refinements rebuild their chain in their own box
        ({"n_max": 4, "n_levels": 40}, {"exact", "rt1"}),
    ):
        config = SweepConfig(g_max=0.2, g_steps=3, methods=methods, output_path="",
                             **overrides)
        table = run_sweep(config, out_path="")
        trunc = TruncationConfig(n_max=config.n_max)
        rows, failures = [], []
        for g in config.g_grid().tolist():
            params = ModelParams(config.omega, config.omega0, g)
            for method in methods:
                try:
                    levels = compute_levels(method, params, trunc, config.n_levels)
                except ValueError as exc:
                    failures.append((g, method, f"ValueError: {exc}"))
                    continue
                rows.extend(
                    SpectrumRow(g, method, lv.level, lv.branch, lv.parity, lv.energy, False)
                    for lv in levels
                )
        assert list(table_rows(table)) == rows
        assert list(table.failures) == failures
        assert {(g, m) for g, m, _ in failures} == {
            (g, m) for g in config.g_grid().tolist() for m in failing
        }


def test_csv_round_trip_is_exact(small_table):
    _, table = small_table
    text = table_to_csv(table)
    back = csv_to_table(text)
    assert table_rows(back) == table_rows(table)
    assert back.failures == ()
    # a second conversion is byte-identical
    assert table_to_csv(back) == text


def test_csv_to_table_rejects_malformed_input():
    with pytest.raises(ValueError, match="bad CSV header"):
        csv_to_table("g,method\n0.0,exact\n")
    with pytest.raises(ValueError, match="bad CSV header"):
        csv_to_table("")
    with pytest.raises(ValueError, match="line 2: expected 7 fields, got 3"):
        csv_to_table(CSV_HEADER + "\n0.0,exact,0\n")


def test_sweep_output_is_deterministic():
    config = SweepConfig(g_max=0.25, g_steps=6, n_max=24, n_levels=6,
                         methods=("exact", "jc"), output_path="")
    first = table_to_csv(run_sweep(config, out_path=""))
    second = table_to_csv(run_sweep(config, out_path=""))
    assert first == second


def test_compare_methods_baseline_and_errors():
    config = SweepConfig(g_max=0.25, g_steps=6, n_max=24, n_levels=6,
                         methods=("exact", "jc"), output_path="")
    table = run_sweep(config, out_path="")
    result = compare_methods(config, table=table, out_path="")
    assert set(result) == {"exact", "jc"}
    pairs = config.g_steps * config.n_levels
    # the baseline pairs with itself: exact zeros double as a pairing check
    assert result["exact"] == (0.0, 0.0, pairs)
    jc_max, jc_mean, jc_pairs = result["jc"]
    assert jc_pairs == pairs
    assert 0.0 < jc_mean <= jc_max < 0.1


def test_compare_methods_requires_exact_baseline():
    config = SweepConfig(methods=("jc", "strong_rt"), output_path="")
    with pytest.raises(ValueError, match="needs the exact baseline"):
        compare_methods(config)


def test_compare_methods_writes_error_csv(tmp_path):
    config = SweepConfig(g_max=0.2, g_steps=3, n_max=16, n_levels=4,
                         methods=("exact", "jc"),
                         output_path=str(tmp_path / "run.csv"))
    table = run_sweep(config, out_path="")
    result = compare_methods(config, table=table)
    derived = tmp_path / "run_errors.csv"
    lines = derived.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ERROR_CSV_HEADER
    assert len(lines) == 1 + len(result)
    for line in lines[1:]:
        method, max_err, mean_err, count = line.split(",")
        assert result[method] == (float(max_err), float(mean_err), int(count))


def test_resonance_report_measures_active_loci():
    config = SweepConfig(n_max=40, n_levels=14, output_path="")
    csv_text, reports = resonance_report(config)
    lines = csv_text.splitlines()
    assert lines[0] == LOCUS_CSV_HEADER
    assert len(lines) == 1 + len(reports)
    # CSV rows are sorted by descending locus coupling
    loci = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(a >= b for a, b in zip(loci, loci[1:]))

    by_key = {(r.kind, r.n): r for r in reports}
    step = float(np.diff(config.g_grid())[0])
    for n in (1, 2, 3):
        rep = by_key[("active", n)]
        assert abs(rep.nearest_grid_g - rep.g_locus) <= 0.5 * step + 1e-12
        # the avoided-crossing minimum sits just below the analytic locus
        assert rep.min_gap is not None and rep.min_gap > 0
        assert abs(rep.min_gap_g - rep.g_locus) <= 0.1 * config.omega
        assert rep.min_gap_g < rep.g_locus
    mute0 = by_key[("mute", 0)]
    assert mute0.g_locus == pytest.approx(1.0 / (0.0 + 1.0))
    assert mute0.nearest_grid_g == pytest.approx(1.0)
    assert mute0.min_gap is None
    assert mute0.note == "mute (vanishing coupling)"


def test_resonance_report_notes_unmeasurable_loci():
    config = SweepConfig(g_max=0.4, g_steps=21, n_max=20, n_levels=6,
                         output_path="")
    _, reports = resonance_report(config)
    notes = {(r.kind, r.n): r.note for r in reports}
    # loci beyond the grid stay in the report with an explanation
    assert notes[("active", 1)] == "outside g-grid, skipped"
    assert notes[("mute", 0)] == "outside g-grid, skipped"
    assert notes[("mute", 1)] == "outside g-grid, skipped"
    assert notes[("mute", 2)] == "mute (vanishing coupling)"
    # crossings far above the retained window are dropped entirely
    assert ("active", 6) not in notes
    assert all(r.min_gap is None for r in reports)


def test_resonance_report_reuses_supplied_table():
    config = SweepConfig(g_max=0.4, g_steps=21, n_max=20, n_levels=6,
                         output_path="")
    table = run_sweep(config, out_path="")
    csv_a, _ = resonance_report(config, table=table)
    csv_b, _ = resonance_report(config)
    assert csv_a == csv_b


def test_resonance_report_flags_minimum_at_window_edge():
    config = SweepConfig(output_path="")
    csv_text, reports = resonance_report(config)
    assert csv_text.splitlines()[0] == LOCUS_CSV_HEADER
    by_key = {(r.kind, r.n): r for r in reports}
    # The n = 0 pair's window [g_0 - 0.1, g_0 + 0.1] runs past g_max = 1.5:
    # its smallest gap is the last grid point, not an avoided crossing.
    edge = by_key[("active", 0)]
    assert edge.min_gap_g == config.g_max
    assert edge.note == "minimum at search-window edge"
    # Interior minima keep an empty note.
    for n in (1, 2, 3, 4):
        rep = by_key[("active", n)]
        assert rep.min_gap is not None
        assert rep.note == ""
        assert abs(rep.min_gap_g - rep.g_locus) < 0.1 * config.omega
