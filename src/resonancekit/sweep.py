"""Coupling sweeps over the method registry, CSV formatting, error tables.

CSV schema: header ``g,method,level,branch,parity,energy,spurious``; UTF-8,
LF line endings, ``.`` decimal separator, 17 significant digits (floats
round-trip exactly).  Row order is (g, method, level) with methods in
registry order, so identical configurations produce byte-identical files.
Spurious kernel zeros (a chain's sign-0 parity slots, a closed form's
spurious slots) are never emitted; the column is kept so the schema states
the invariant explicitly.

Every method is evaluated over the whole g-grid on one thread, by one
:func:`methods.grid_sweep` call that returns its levels as arrays (a
:class:`spectrum.MethodSweep`): the exact oracle, the closed forms and rt1
fill them from array programs, the contact-iteration chains from stacks of
chain operators.  A failing point is recorded in its slot and skipped, the
run continues.  The CSV, the error table and the resonance report are
computed from those arrays; no per-level record is built on the way, and
no file is written here (:mod:`cli` writes them).  The CSV is formatted one
block of couplings at a time, so beyond the arrays (16 bytes a row) a
sweep's memory does not grow with its output.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, replace
from typing import TextIO

import numpy as np

from .closedform import resonance_loci
from .methods import METHOD_ORDER, grid_sweep
from .operators import TruncationConfig
from .spectrum import PARITY_EVEN, PARITY_ODD, MethodSweep, SpectrumTable

__all__ = [
    "SweepConfig",
    "DEFAULT_METHODS",
    "parse_config",
    "run_sweep",
    "table_to_csv",
    "compare_methods",
    "errors_to_csv",
    "LocusReport",
    "resonance_report",
]

CSV_HEADER = "g,method,level,branch,parity,energy,spurious"
ERROR_CSV_HEADER = "method,max_abs_error,mean_abs_error,pairs"
LOCUS_CSV_HEADER = "kind,n,g_locus,nearest_grid_g,min_gap_g,min_gap,note"

DEFAULT_METHODS = ("exact", "jc", "strong_rt")

# Rows per block of the CSV writer.  A block's text and temporaries take
# about 250 bytes a row (tracemalloc), so about 2 MB at 8,192 rows.
_CSV_BLOCK_ROWS = 1 << 13

_FLOAT_KEYS = ("omega", "omega0", "g_min", "g_max")
_INT_KEYS = ("g_steps", "n_max", "n_levels")
# The type of each SweepConfig key's value (methods: of str entries).
_KEY_TYPES = {
    **dict.fromkeys(_FLOAT_KEYS, numbers.Real),
    **dict.fromkeys(_INT_KEYS, numbers.Integral),
    "methods": (tuple, list),
    "output_path": str,
}


def _fmt(x: float | None) -> str:
    return "" if x is None else format(float(x), ".17g")


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
    defaults.  Unknown keys, unparsable or wrongly typed values, and violated
    invariants all raise ValueError naming the offending key.
    """
    values = _read_config_file(path) if path is not None else {}
    if overrides:
        for key, value in overrides.items():
            if value is None:
                continue
            if key == "methods" and isinstance(value, str):
                value = _parse_value(key, value)
            values[key] = value
    for key, value in values.items():
        if key not in _KEY_TYPES:
            raise ValueError(f"unknown key {key!r}")
        if isinstance(value, bool) or not isinstance(value, _KEY_TYPES[key]) or (
            key == "methods" and not all(isinstance(m, str) for m in value)
        ):
            raise ValueError(f"unparsable value for {key}: {value!r}")
    return SweepConfig(**values)


# Kept only for perfbench/run.py, which records it with the environment.
def worker_count() -> int:
    """Sweeps run on one thread."""
    return 1


def run_sweep(config: SweepConfig) -> SpectrumTable:
    """Every configured method over the g-grid, from one :func:`grid_sweep`
    per method; a failed point is recorded on the table, the run goes on."""
    grid = config.g_grid()
    trunc = TruncationConfig(n_max=config.n_max)
    sweeps = []
    for method in config.methods:
        try:
            sweeps.append(
                grid_sweep(method, config.omega, config.omega0, grid, trunc, config.n_levels)
            )
        except Exception as exc:  # e.g. off resonance: every point fails alike
            sweeps.append(MethodSweep.from_points(method, [exc] * grid.size, 0))
    return SpectrumTable(grid, tuple(sweeps))


def table_to_csv(table: SpectrumTable, out: TextIO | None = None) -> str | None:
    """The sweep CSV of ``table``: written to the text file ``out``, or
    returned as a string without one.

    The rows are formatted from the table's arrays one block of couplings
    (``_CSV_BLOCK_ROWS`` rows or fewer) at a time, so the writer's memory
    does not grow with the grid.  Each row's text up to the energy is
    precomputed per (g, method) and per (level, label), and every energy
    goes through one "%.17g" format."""
    fh = io.StringIO() if out is None else out
    fh.write(f"{CSV_HEADER}\n")
    columns = []  # per method: the sweep, its successful couplings, its row tails
    for sweep in table.sweeps:
        n_levels = sweep.energies.shape[1]
        level_tails = np.array(
            [[f"{level},{b},{p}," for b, p in sweep.labels] for level in range(n_levels)], object
        ).reshape(n_levels, len(sweep.labels))
        columns.append((sweep, sweep.ok, level_tails))
    width = max(1, sum(level_tails.shape[0] for _, _, level_tails in columns))
    step = max(1, _CSV_BLOCK_ROWS // width)
    for lo in range(0, table.grid.size, step):
        g_text = ["%.17g" % g for g in table.grid[lo:lo + step].tolist()]
        parts = [([], [], [], [])]  # per method: coupling, head, tail and energy of each row
        for sweep, ok, level_tails in columns:
            rows = np.flatnonzero(ok[lo:lo + step])
            n_levels = level_tails.shape[0]
            heads = np.array([f"{g_text[i]},{sweep.method}," for i in rows.tolist()], object)
            parts.append((
                np.repeat(rows, n_levels),
                np.repeat(heads, n_levels),
                level_tails[np.arange(n_levels), sweep.label_index[rows + lo]].ravel(),
                sweep.energies[rows + lo].ravel(),
            ))
        index, heads, tails, energies = (np.concatenate(column) for column in zip(*parts))
        order = np.argsort(index, kind="stable")  # (g, method, level) order
        items = np.empty((order.size, 3), dtype=object)
        items[:, 0], items[:, 1], items[:, 2] = heads[order], tails[order], energies[order]
        fh.write(("%s%s%.17g,False\n" * order.size) % tuple(items.ravel().tolist()))
    return fh.getvalue() if out is None else None


def _pair_errors(exact: MethodSweep, other: MethodSweep) -> np.ndarray:
    """|E_other - E_exact| over parity-resolved rank pairs, at every coupling
    where both succeed, in (g, class, rank) order.

    Within each parity class, and then among the levels left unpaired (no
    usable parity label, or beyond the other side's count in their class),
    levels pair up in ascending-energy order: one rank mask per class.
    """
    ok = exact.ok & other.ok
    e_energy, m_energy = exact.energies[ok], other.energies[ok]
    e_parity, m_parity = exact.parities(ok), other.parities(ok)
    e_free, m_free = np.ones(e_energy.shape, bool), np.ones(m_energy.shape, bool)
    errors, rows = [], []
    for label in (PARITY_EVEN, PARITY_ODD, None):
        e_want = e_free if label is None else e_parity == label
        m_want = m_free if label is None else m_parity == label
        count = np.minimum(e_want.sum(axis=1), m_want.sum(axis=1))[:, None]
        e_take = e_want & (np.cumsum(e_want, axis=1) <= count)
        m_take = m_want & (np.cumsum(m_want, axis=1) <= count)
        e_free &= ~e_take
        m_free &= ~m_take
        errors.append(np.abs(m_energy[m_take] - e_energy[e_take]))
        rows.append(np.nonzero(e_take)[0])
    return np.concatenate(errors)[np.argsort(np.concatenate(rows), kind="stable")]


def compare_methods(table: SpectrumTable) -> dict[str, tuple[float, float, int]]:
    """Per-method max/mean absolute deviation from the exact baseline.

    Returns {method: (max_abs_error, mean_abs_error, pairs)} in
    ``table.sweeps`` order; a method with no pair reads (nan, nan, 0).  The
    baseline itself appears with all-zero errors, which doubles as a
    self-check of the pairing.
    """
    exact = table.sweep("exact")
    if exact is None:
        raise ValueError("compare_methods needs the exact baseline in the table")
    result: dict[str, tuple[float, float, int]] = {}
    for other in table.sweeps:
        errors = _pair_errors(exact, other)
        if len(errors):
            with np.errstate(over="ignore"):
                top, mean = float(np.max(errors)), float(np.mean(errors))
            if math.isinf(mean) and math.isfinite(top):  # finite errors summed past the maximum
                mean = float(np.mean(errors / top) * top)
            result[other.method] = (top, mean, len(errors))
        else:
            result[other.method] = (float("nan"), float("nan"), 0)
    return result


def errors_to_csv(stats: dict[str, tuple[float, float, int]]) -> str:
    """The error table of :func:`compare_methods`' ``stats``, one row per
    method."""
    lines = [ERROR_CSV_HEADER]
    for method, (mx, mean, count) in stats.items():
        lines.append(f"{method},{_fmt(mx)},{_fmt(mean)},{count}")
    return "\n".join(lines) + "\n"


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


def _crossing_gap(energies: np.ndarray, e_up: float, e_down: float) -> float | None:
    """Gap between the two same-parity exact levels tracking a dressed pair.

    The dressed ladder puts the crossing pair near energies ``e_up`` and
    ``e_down``; the corresponding exact levels are the levels of
    ``energies`` (one coupling, one parity class) nearest those estimates
    (distinct ones), and their distance is the avoided-crossing gap."""
    if energies.size < 2:
        return None
    arr = np.sort(energies)
    first = int(np.argmin(np.abs(arr - e_up)))
    rest = np.delete(arr, first)
    second = float(rest[int(np.argmin(np.abs(rest - e_down)))])
    return abs(float(arr[first]) - second)


def resonance_report(config: SweepConfig) -> tuple[str, list[LocusReport]]:
    """Analytic resonance loci with the measured avoided-crossing minima.

    Active loci couple same-parity dressed levels, so the exact spectrum
    shows an avoided crossing whose minimal gap sits near the locus; the
    report measures that minimum on the sweep grid.  Mute loci involve a
    vanishing coupling and are listed without a gap measurement.  Loci
    outside the g-grid are kept as rows with an explanatory note.  The
    levels come from an exact-only sweep of ``config``'s grid.
    """
    grid = config.g_grid()
    exact = run_sweep(replace(config, methods=("exact",))).sweep("exact")
    ok = exact.ok
    exact_g, energies, parities = grid[ok].tolist(), exact.energies[ok], exact.parities(ok)
    top_energy = float(energies.max()) if energies.size else 0.0
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
        for i, g in enumerate(exact_g):
            if abs(g - locus.g) > half_width:
                continue
            e_up = config.omega * locus.n + g * np.sqrt(locus.n)
            e_down = config.omega * (locus.n + 2) - g * np.sqrt(locus.n + 2)
            if max(e_up, e_down) > energies[i].max() - 0.5 * config.omega:
                continue  # crossing pair not resolved by the retained levels
            gap = _crossing_gap(energies[i][parities[i] == parity_label], e_up, e_down)
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
        reports.append(LocusReport("active", locus.n, locus.g, nearest, best_g, best_gap, note))

    lines = [LOCUS_CSV_HEADER]
    for rep in sorted(reports, key=lambda r: (-r.g_locus, r.kind)):
        values = (rep.g_locus, rep.nearest_grid_g, rep.min_gap_g, rep.min_gap)
        lines.append(",".join([rep.kind, str(rep.n), *map(_fmt, values), rep.note]))
    return "\n".join(lines) + "\n", reports
