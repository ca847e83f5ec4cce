"""The sweep CSV's number text: ``sweep._float_chars`` against Python's
``format(x, ".17g")`` on the edges of its own exact conversion (decade
boundaries, round-half-even ties, the ends of its range) and on random
floats, and the sweep CSV at the shape of a large closed-form sweep against
the per-row reference writer."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resonancekit import sweep
from resonancekit.spectrum import MethodSweep, SpectrumTable
from resonancekit.sweep import (
    _FAST_MAX,
    _FAST_MIN,
    SweepConfig,
    _float_chars,
    run_sweep,
    table_to_csv,
)

from row_reference import rows_to_csv, table_rows


def _texts(values) -> list[str]:
    rows = _float_chars(np.array(values, dtype=float))
    assert rows.shape == (len(values), sweep._TEXT_WIDTH)
    return [bytes(row).replace(b"\0", b"").decode() for row in rows]


def _assert_formats(values):
    values = [float(v) for v in values]
    wrong = [
        (v, got, format(v, ".17g"))
        for v, got in zip(values, _texts(values))
        if got != format(v, ".17g")
    ]
    assert len(wrong) == 0, f"{len(wrong)} of {len(values)} differ, e.g. {wrong[:5]}"


def _ulps_around(x: float, count: int) -> np.ndarray:
    bits = np.float64(x).view(np.int64) + np.arange(-count, count + 1)
    return bits.view(np.float64)


def test_every_ulp_near_each_power_of_ten():
    # Where the exponent estimate is off by one and where 17-digit rounding
    # carries into a new decade: 2,000 ulps either side of 1e-5, ..., 1e16, both signs.
    values = np.concatenate([_ulps_around(float(f"1e{k}"), 2000) for k in range(-5, 17)])
    _assert_formats(np.concatenate([values, -values]))


def _dyadic_ties(count_per_exponent: int, rng: random.Random) -> list[float]:
    """Floats whose exact decimal expansion has 18 significant digits ending
    in 5, so rounding to 17 is a tie: c·5**q / 10**q = c / 2**q for odd c."""
    ties = []
    for q in range(2, 40):
        lo, hi = -(-10**17 // 5**q), min(10**18 // 5**q, 2**53)
        if lo >= hi:
            continue
        for _ in range(count_per_exponent):
            c = rng.randrange(lo, hi) | 1
            x = math.ldexp(c, -q)
            digits = format(c * 5**q, "d")
            if len(digits) == 18:
                ties.append(x)
    return ties


def test_round_half_even_on_exact_ties():
    ties = _dyadic_ties(200, random.Random(31))
    assert len(ties) > 4000
    # Exact ties: 18 significant digits, the last one a 5.
    assert all(format(x, ".18g").replace(".", "").lstrip("0").endswith("5") for x in ties[:200])
    _assert_formats(ties + [-x for x in ties])


def test_the_ends_of_the_fast_path_and_values_outside_it():
    edges = [_FAST_MIN, _FAST_MAX]
    values = [v for x in edges for v in _ulps_around(x, 50)]
    tiny = [0.0, 5e-324, 1e-320, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e-100]
    huge = [1.7976931348623157e308, 1e300, 9.999999999999999e21, 1e22]
    special = [math.inf, math.nan]
    values += tiny + huge + special
    _assert_formats(values + [-v for v in values])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_matches_format_on_any_float(values):
    _assert_formats(values)


_fast = st.floats(min_value=_FAST_MIN, max_value=_FAST_MAX, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_fast, st.booleans()), min_size=1, max_size=40))
def test_matches_format_on_the_fast_path(signed):
    _assert_formats([-x if negative else x for x, negative in signed])


def test_non_finite_energies_of_ok_rows_are_written():
    energies = np.array([[math.nan, -math.inf, math.inf, 1.5]])
    table = SpectrumTable(
        np.array([0.25]),
        (MethodSweep("jc", energies, (("+", "even"),), np.zeros((1, 4), np.intp), (None,)),),
    )
    text = table_to_csv(table)
    assert text == rows_to_csv(table_rows(table))
    assert [line.split(",")[5] for line in text.splitlines()[1:]] == ["nan", "-inf", "inf", "1.5"]


@pytest.fixture(scope="module")
def closed_forms_table():
    """Four closed forms at 40 levels over 1,001 couplings, and their CSV
    from the per-row writer."""
    config = SweepConfig(g_max=1.5, g_steps=1001, n_levels=40,
                         methods=("jc", "rt2", "strong_avg", "strong_rt"))
    table = run_sweep(config)
    assert table.row_count == 1001 * 4 * 40
    return table, rows_to_csv(table_rows(table))


@pytest.mark.parametrize("block_rows", [1, 54, sweep._CSV_BLOCK_ROWS])
def test_closed_form_sweep_csv_is_byte_identical_to_the_row_writer(
    monkeypatch, closed_forms_table, block_rows
):
    table, expected = closed_forms_table
    monkeypatch.setattr(sweep, "_CSV_BLOCK_ROWS", block_rows)
    lines, expected_lines = table_to_csv(table).split("\n"), expected.split("\n")
    # The first differing line, not a diff of two 10 MB strings.
    wrong = next((i for i, (got, want) in enumerate(zip(lines, expected_lines)) if got != want),
                 None)
    assert wrong is None, (wrong, lines[wrong], expected_lines[wrong])
    assert len(lines) == len(expected_lines)
