"""Coupling sweeps over the method registry, CSV emission, error tables.

CSV schema: header ``g,method,level,branch,parity,energy,spurious``; UTF-8,
LF line endings, ``.`` decimal separator, 17 significant digits (floats
round-trip exactly).  Row order is (g, method, level) with methods in
registry order, so identical configurations produce byte-identical files.
Spurious kernel zeros are filtered before emission; the column is kept so
the schema states the invariant explicitly.

The exact oracle and the closed forms are evaluated once per sweep, as
arrays over the whole g-grid.  The matrix chains run point by point,
concurrently (``RESONANCEKIT_THREADS`` caps the worker count); rows are
assembled in deterministic order after all points finish.  A failing point
is logged and skipped, the run continues.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .closedform import resonance_loci
from .methods import GRID_METHODS, METHOD_ORDER, compute_levels, grid_sweep
from .operators import ModelParams, TruncationConfig
from .spectrum import PARITY_EVEN, PARITY_ODD, SpectrumRow, SpectrumTable

__all__ = [
    "SweepConfig",
    "DEFAULT_METHODS",
    "parse_config",
    "worker_count",
    "run_sweep",
    "table_to_csv",
    "csv_to_table",
    "compare_methods",
    "LocusReport",
    "resonance_report",
]

CSV_HEADER = "g,method,level,branch,parity,energy,spurious"
ERROR_CSV_HEADER = "method,max_abs_error,mean_abs_error,pairs"
LOCUS_CSV_HEADER = "kind,n,g_locus,nearest_grid_g,min_gap_g,min_gap,note"

DEFAULT_METHODS = ("exact", "jc", "strong_rt")

_FLOAT_KEYS = ("omega", "omega0", "g_min", "g_max")
_INT_KEYS = ("g_steps", "n_max", "n_levels")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep parameters."""

    omega: float = 1.0
    omega0: float = 1.0
    g_min: float = 0.0
    g_max: float = 1.5
    g_steps: int = 151
    n_max: int = 60
    n_levels: int = 12
    methods: tuple[str, ...] = DEFAULT_METHODS
    output_path: str = "sweep.csv"

    def __post_init__(self):
        for key in _FLOAT_KEYS:
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be non-negative, got {self.omega0}")
        if self.g_min < 0:
            raise ValueError(f"g_min must be non-negative, got {self.g_min}")
        if self.g_min > self.g_max:
            raise ValueError(f"g_min must not exceed g_max, got {self.g_min} > {self.g_max}")
        if self.g_steps < 1:
            raise ValueError(f"g_steps must be >= 1, got {self.g_steps}")
        if (np.diff(self.g_grid()) <= 0).any():
            raise ValueError(
                f"the g grid must be strictly increasing: {self.g_steps} steps "
                f"from g_min {self.g_min} to g_max {self.g_max}"
            )
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.n_levels < 1:
            raise ValueError(f"n_levels must be >= 1, got {self.n_levels}")
        if not self.methods:
            raise ValueError("methods must be a non-empty set")
        unknown = [m for m in self.methods if m not in METHOD_ORDER]
        if unknown:
            raise ValueError(
                f"methods contains unknown entries {unknown}; "
                f"known: {', '.join(METHOD_ORDER)}"
            )
        ordered = tuple(m for m in METHOD_ORDER if m in set(self.methods))
        object.__setattr__(self, "methods", ordered)

    def g_grid(self) -> np.ndarray:
        return np.linspace(self.g_min, self.g_max, self.g_steps)


def _parse_value(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key == "methods":
            return tuple(part.strip() for part in raw.split(",") if part.strip())
        if key == "output_path":
            return raw
    except ValueError:
        raise ValueError(f"unparsable value for {key}: {raw!r}") from None
    raise ValueError(f"unknown key {key!r}")


def _read_config_file(path: str) -> dict:
    """The parsed key=value pairs of a flat config file, in file order."""
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            values[key] = _parse_value(key, raw)
    return values


def parse_config(path: str | None = None, overrides: dict | None = None) -> SweepConfig:
    """Build a SweepConfig from an optional flat key=value file plus overrides.

    Overrides (typically CLI flags) win over file values, which win over
    defaults.  Unknown keys, unparsable values, and violated invariants all
    raise ValueError naming the offending key.
    """
    values = _read_config_file(path) if path is not None else {}
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key == "methods" and isinstance(value, str):
                value = _parse_value(key, value)
            values[key] = value
    try:
        return SweepConfig(**values)
    except TypeError:
        unknown = [k for k in values if k not in SweepConfig.__dataclass_fields__]
        raise ValueError(f"unknown key {unknown[0]!r}") from None


def worker_count() -> int:
    """Thread count: RESONANCEKIT_THREADS if set, else a small default."""
    raw = os.environ.get("RESONANCEKIT_THREADS")
    if raw is None:
        return max(1, min(8, os.cpu_count() or 1))
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"RESONANCEKIT_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise ValueError(f"RESONANCEKIT_THREADS must be >= 1, got {n}")
    return n


def _point_levels(config: SweepConfig, methods, g: float) -> list:
    """Per matrix chain at one coupling: its levels as (branch, parity,
    energy), or the exception it raised."""
    params = ModelParams(omega=config.omega, omega0=config.omega0, g=g)
    trunc = TruncationConfig(n_max=config.n_max)
    out = []
    for method in methods:
        try:
            levels = compute_levels(method, params, trunc, config.n_levels)
        except Exception as exc:  # log and continue with the other points
            out.append(exc)
            continue
        out.append([(lv.branch, lv.parity, lv.energy) for lv in levels])
    return out


def _sweep_table(config: SweepConfig) -> SpectrumTable:
    """Rows and failures of every configured method over the g-grid: the
    exact oracle and the closed forms in one evaluation each, the matrix
    chains point by point."""
    grid = config.g_grid()
    g_values = grid.tolist()
    trunc = TruncationConfig(n_max=config.n_max)
    per_grid = [m for m in config.methods if m in GRID_METHODS]
    chains = [m for m in config.methods if m not in GRID_METHODS]
    per_method = {}
    for method in per_grid:
        try:
            per_method[method] = grid_sweep(
                method, config.omega, config.omega0, grid, trunc, config.n_levels
            )
        except Exception as exc:  # e.g. off resonance: every point fails alike
            per_method[method] = [exc] * len(g_values)
    if chains:
        workers = min(worker_count(), len(g_values))
        if workers <= 1:
            points = [_point_levels(config, chains, g) for g in g_values]
        else:
            with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
                points = list(pool.map(lambda g: _point_levels(config, chains, g), g_values))
        for k, method in enumerate(chains):
            per_method[method] = [point[k] for point in points]

    rows: list[SpectrumRow] = []
    failures: list[tuple[float, str, str]] = []
    for i, g in enumerate(g_values):
        for method in config.methods:
            levels = per_method[method][i]
            if isinstance(levels, Exception):
                failures.append((g, method, f"{type(levels).__name__}: {levels}"))
                continue
            rows.extend(
                SpectrumRow(g, method, level, branch, parity, energy, False)
                for level, (branch, parity, energy) in enumerate(levels)
            )
    return SpectrumTable(rows=tuple(rows), failures=tuple(failures))


def run_sweep(config: SweepConfig, out_path: str | None = None) -> SpectrumTable:
    """Evaluate every configured method over the g-grid and write the CSV.

    Returns the in-memory table; per-point failures are recorded on it
    rather than aborting the run.
    """
    table = _sweep_table(config)
    path = config.output_path if out_path is None else out_path
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(table_to_csv(table))
    return table


def table_to_csv(table: SpectrumTable) -> str:
    lines = [CSV_HEADER]
    g, g_text = None, ""
    for row in table.rows:
        if row.g is not g:  # a sweep's rows at one coupling share one float
            g, g_text = row.g, _fmt(row.g)
        lines.append(
            f"{g_text},{row.method},{row.level},{row.branch},"
            f"{row.parity},{_fmt(row.energy)},{row.spurious}"
        )
    return "\n".join(lines) + "\n"


def csv_to_table(text: str) -> SpectrumTable:
    """Inverse of table_to_csv; the round trip is exact."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header: {lines[0] if lines else '<empty>'!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"line {lineno}: expected 7 fields, got {len(parts)}")
        g, method, level, branch, parity, energy, spurious = parts
        rows.append(
            SpectrumRow(
                g=float(g),
                method=method,
                level=int(level),
                branch=branch,
                parity=parity,
                energy=float(energy),
                spurious=spurious == "True",
            )
        )
    return SpectrumTable(rows=tuple(rows), failures=())


def _rank_pairs(exact_rows, method_rows):
    """Parity-resolved rank matching: within each parity class, levels pair
    up in ascending-energy order; levels without a usable parity label pool
    into a final rank-matched remainder."""
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


def compare_methods(
    config: SweepConfig,
    table: SpectrumTable | None = None,
    out_path: str | None = None,
) -> dict[str, tuple[float, float, int]]:
    """Per-method max/mean absolute deviation from the exact baseline.

    Runs the sweep if no table is supplied.  Returns
    {method: (max_abs_error, mean_abs_error, pairs)} and writes the error CSV
    next to the sweep output (suffix ``_errors.csv``) unless out_path says
    otherwise.  The baseline itself appears in the output with all-zero
    errors, which doubles as a self-check of the pairing.
    """
    if "exact" not in config.methods:
        raise ValueError("compare_methods needs the exact baseline in methods")
    if table is None:
        table = run_sweep(config)
    result: dict[str, tuple[float, float, int]] = {}
    by_point: dict[tuple[float, str], list[SpectrumRow]] = {}
    for row in table.rows:
        if not row.spurious:
            by_point.setdefault((row.g, row.method), []).append(row)
    for rows in by_point.values():
        rows.sort(key=lambda r: r.level)
    for method in config.methods:
        errors: list[float] = []
        for g in sorted({key[0] for key in by_point}):
            exact_rows = by_point.get((g, "exact"))
            method_rows = by_point.get((g, method))
            if not exact_rows or not method_rows:
                continue
            for e_row, m_row in _rank_pairs(exact_rows, method_rows):
                errors.append(abs(m_row.energy - e_row.energy))
        if errors:
            result[method] = (float(max(errors)), float(np.mean(errors)), len(errors))
        else:
            result[method] = (float("nan"), float("nan"), 0)
    if out_path is None:
        base = config.output_path or "sweep.csv"
        root, dot, _ = base.rpartition(".")
        out_path = (root if dot else base) + "_errors.csv"
    if out_path:
        lines = [ERROR_CSV_HEADER]
        for method, (mx, mean, count) in result.items():
            lines.append(f"{method},{_fmt(mx)},{_fmt(mean)},{count}")
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    return result


@dataclass(frozen=True)
class LocusReport:
    """One resonance locus with its measured signature in the exact sweep."""

    kind: str
    n: int
    g_locus: float
    nearest_grid_g: float | None = None
    min_gap_g: float | None = None
    min_gap: float | None = None
    note: str = ""


def _crossing_gap(rows, parity_label: str, e_up: float, e_down: float) -> float | None:
    """Gap between the two same-parity exact levels tracking a dressed pair.

    The dressed ladder puts the crossing pair near energies ``e_up`` and
    ``e_down``; the corresponding exact levels are the same-parity levels
    nearest those estimates (distinct ones), and their distance is the
    avoided-crossing gap."""
    energies = sorted(r.energy for r in rows if r.parity == parity_label)
    if len(energies) < 2:
        return None
    arr = np.asarray(energies)
    first = int(np.argmin(np.abs(arr - e_up)))
    rest = np.delete(arr, first)
    second = float(rest[int(np.argmin(np.abs(rest - e_down)))])
    return abs(float(arr[first]) - second)


def resonance_report(
    config: SweepConfig, table: SpectrumTable | None = None
) -> tuple[str, list[LocusReport]]:
    """Analytic resonance loci with the measured avoided-crossing minima.

    Active loci couple same-parity dressed levels, so the exact spectrum
    shows an avoided crossing whose minimal gap sits near the locus; the
    report measures that minimum on the sweep grid.  Mute loci involve a
    vanishing coupling and are listed without a gap measurement.  Loci
    outside the g-grid are kept as rows with an explanatory note.
    """
    grid = config.g_grid()
    if table is None or not any(r.method == "exact" for r in table.rows):
        exact_config = replace(config, methods=("exact",), output_path="")
        table = run_sweep(exact_config, out_path="")
    exact_by_g: dict[float, list[SpectrumRow]] = {}
    for row in table.rows:
        if row.method == "exact" and not row.spurious:
            exact_by_g.setdefault(row.g, []).append(row)

    top_energy = max((r.energy for rows in exact_by_g.values() for r in rows), default=0.0)
    loci = resonance_loci(range(0, config.n_max), config.omega)
    reports: list[LocusReport] = []
    for locus in loci:
        crossing_energy = config.omega * locus.n + locus.g * np.sqrt(locus.n)
        if crossing_energy > top_energy + config.omega and locus.kind == "active":
            continue  # far above every level the sweep retains
        if locus.g < config.g_min or locus.g > config.g_max:
            if config.omega * locus.n <= top_energy:
                reports.append(
                    LocusReport(kind=locus.kind, n=locus.n, g_locus=locus.g,
                                note="outside g-grid, skipped")
                )
            continue
        nearest = float(grid[int(np.argmin(np.abs(grid - locus.g)))])
        if locus.kind != "active":
            reports.append(
                LocusReport(kind=locus.kind, n=locus.n, g_locus=locus.g,
                            nearest_grid_g=nearest, note="mute (vanishing coupling)")
            )
            continue
        step = float(np.min(np.diff(grid))) if grid.size > 1 else 0.0
        half_width = max(2.0 * step, 0.1 * config.omega)
        parity_label = PARITY_EVEN if locus.n % 2 == 1 else PARITY_ODD
        best_g: float | None = None
        best_gap: float | None = None
        searched: list[float] = []
        for g in sorted(exact_by_g):
            if abs(g - locus.g) > half_width:
                continue
            rows = exact_by_g[g]
            e_up = config.omega * locus.n + g * np.sqrt(locus.n)
            e_down = config.omega * (locus.n + 2) - g * np.sqrt(locus.n + 2)
            if max(e_up, e_down) > max(r.energy for r in rows) - 0.5 * config.omega:
                continue  # crossing pair not resolved by the retained levels
            gap = _crossing_gap(rows, parity_label, e_up, e_down)
            if gap is None:
                continue
            searched.append(g)
            if best_gap is None or gap < best_gap:
                best_gap, best_g = gap, g
        if best_gap is None:
            note = "crossing levels above n_levels window"
        elif best_g in (searched[0], searched[-1]):
            # the gap may keep falling beyond the window or the grid
            note = "minimum at search-window edge"
        else:
            note = ""
        reports.append(
            LocusReport(
                kind="active",
                n=locus.n,
                g_locus=locus.g,
                nearest_grid_g=nearest,
                min_gap_g=best_g,
                min_gap=best_gap,
                note=note,
            )
        )

    lines = [LOCUS_CSV_HEADER]
    for rep in sorted(reports, key=lambda r: (-r.g_locus, r.kind)):
        lines.append(
            ",".join(
                [
                    rep.kind,
                    str(rep.n),
                    _fmt(rep.g_locus),
                    "" if rep.nearest_grid_g is None else _fmt(rep.nearest_grid_g),
                    "" if rep.min_gap_g is None else _fmt(rep.min_gap_g),
                    "" if rep.min_gap is None else _fmt(rep.min_gap),
                    rep.note,
                ]
            )
        )
    return "\n".join(lines) + "\n", reports
