"""Per-row references for the array sweep code: a table's levels as
``SpectrumRow`` records, the sweep-CSV writer and the parity-resolved error
pairing written one record at a time, and the CSV reader that inverts the
writer.

``resonancekit.sweep`` computes the CSV and the pairing from a table's
arrays; these loops fix the bytes and the summation order the array code
must reproduce.
"""

from dataclasses import dataclass

import numpy as np

from resonancekit.methods import METHOD_ORDER
from resonancekit.spectrum import PARITY_EVEN, PARITY_ODD, MethodSweep, SpectrumTable
from resonancekit.sweep import CSV_HEADER


@dataclass(frozen=True, slots=True)
class SpectrumRow:
    """One record of a coupling sweep: one line of its CSV."""

    g: float
    method: str
    level: int
    branch: str  # "+", "-" or "unassigned"
    parity: str  # "even", "odd", "n/a" or "unclassified"
    energy: float
    spurious: bool = False


def table_rows(table: SpectrumTable) -> tuple[SpectrumRow, ...]:
    """Every level of ``table`` in (g, method, level) order, methods in
    ``table.sweeps`` order; a failed point has no records."""
    return tuple(
        SpectrumRow(g, s.method, level, branch, parity, energy, False)
        for i, g in enumerate(table.grid.tolist())
        for s in table.sweeps
        if s.errors[i] is None
        for level, (branch, parity, energy) in enumerate(s.point(i))
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def rows_to_csv(rows) -> str:
    lines = [CSV_HEADER]
    g, g_text = None, ""
    for row in rows:
        if row.g is not g:  # a sweep's rows at one coupling share one float
            g, g_text = row.g, _fmt(row.g)
        lines.append(
            f"{g_text},{row.method},{row.level},{row.branch},"
            f"{row.parity},{_fmt(row.energy)},{row.spurious}"
        )
    return "\n".join(lines) + "\n"


def _rank_pairs(exact_rows, method_rows):
    """Within each parity class, levels pair up in ascending-energy order;
    levels without a usable parity label pool into a final rank-matched
    remainder."""
    pairs = []
    used_e: set[int] = set()
    used_m: set[int] = set()
    for label in (PARITY_EVEN, PARITY_ODD):
        e_idx = [i for i, r in enumerate(exact_rows) if r.parity == label]
        m_idx = [i for i, r in enumerate(method_rows) if r.parity == label]
        for i, j in zip(e_idx, m_idx):
            pairs.append((exact_rows[i], method_rows[j]))
            used_e.add(i)
            used_m.add(j)
    rest_e = [r for i, r in enumerate(exact_rows) if i not in used_e]
    rest_m = [r for j, r in enumerate(method_rows) if j not in used_m]
    pairs.extend(zip(rest_e, rest_m))
    return pairs


def rows_compare(rows, methods) -> dict[str, tuple[float, float, int]]:
    """{method: (max, mean, count)} of |E_method - E_exact| over the rank
    pairs of every coupling, couplings ascending."""
    by_point: dict = {}
    for row in rows:
        if not row.spurious:
            by_point.setdefault((row.g, row.method), []).append(row)
    result = {}
    for method in methods:
        errors = []
        for g in sorted({key[0] for key in by_point}):
            exact_rows, method_rows = by_point.get((g, "exact")), by_point.get((g, method))
            if exact_rows and method_rows:
                errors.extend(abs(m.energy - e.energy) for e, m in _rank_pairs(exact_rows, method_rows))
        if not errors:
            result[method] = (float("nan"), float("nan"), 0)
            continue
        top = float(max(errors))
        with np.errstate(over="ignore"):
            mean = float(np.mean(errors))
        if mean == float("inf") and top < float("inf"):  # rescaled, as the array path does
            mean = float(np.mean([e / top for e in errors]) * top)
        result[method] = (top, mean, len(errors))
    return result


def csv_to_table(text: str) -> SpectrumTable:
    """Inverse of ``sweep.table_to_csv``; the round trip is exact.

    The grid is every coupling the CSV has rows for.  A (g, method) point
    without rows, one that failed, records a LookupError.  Raises ValueError
    on rows that the writer does not write: out of (g, method, level)
    order, a level count that varies within a method, spurious rows.
    """
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header: {lines[0] if lines else '<empty>'!r}")
    rows = []
    points: dict[str, dict[str, list]] = {}  # g text -> method -> (branch, parity, energy)
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        g, method, level, branch, parity, energy, spurious = parts
        energy = float(energy)
        spurious = spurious == "True"
        rows.append(SpectrumRow(float(g), method, int(level), branch, parity, energy, spurious))
        points.setdefault(g, {}).setdefault(method, []).append((branch, parity, energy))
    named = {method for by_method in points.values() for method in by_method}
    if not named <= set(METHOD_ORDER):
        raise ValueError(f"unknown methods {sorted(named - set(METHOD_ORDER))}")
    sweeps = []
    for method in (m for m in METHOD_ORDER if m in named):
        levels = [by.get(method, LookupError("no rows in the CSV")) for by in points.values()]
        width = len(next(lv for lv in levels if isinstance(lv, list)))
        sweeps.append(MethodSweep.from_points(method, levels, width))
    table = SpectrumTable(np.array([float(g) for g in points]), tuple(sweeps))
    if table_rows(table) != tuple(rows):
        raise ValueError("the rows are not a sweep table in (g, method, level) order")
    return table
