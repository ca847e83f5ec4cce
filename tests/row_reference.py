"""Per-row references for the array sweep code: the sweep-CSV writer and
the parity-resolved error pairing, written one ``SpectrumRow`` at a time.

``resonancekit.sweep`` computes both from a table's arrays; these loops fix
the bytes and the summation order the array code must reproduce.
"""

import numpy as np

from resonancekit.spectrum import PARITY_EVEN, PARITY_ODD
from resonancekit.sweep import CSV_HEADER


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
        result[method] = (
            (float(max(errors)), float(np.mean(errors)), len(errors)) if errors
            else (float("nan"), float("nan"), 0)
        )
    return result
