"""Coupling sweeps over the method registry, CSV formatting, error tables.

CSV schema: header ``g,method,level,branch,parity,energy,spurious``; UTF-8,
LF line endings, ``.`` decimal separator, 17 significant digits (floats
round-trip exactly).  Row order is (g, method, level) with methods in
registry order, so identical configurations produce byte-identical files.
Spurious kernel zeros (a chain's sign-0 parity slots, a closed form's
spurious slots) are never emitted; the column is kept so the schema states
the invariant explicitly.

Every method is evaluated over a run of consecutive couplings of the g-grid
on one thread, by one :func:`methods.grid_sweep` call that returns its
levels as arrays (a :class:`spectrum.MethodSweep`, 9 bytes a level): the
exact oracle, the closed forms and rt1 fill them from array programs, the
contact-iteration chains from stacks of chain operators.  A failing point
is recorded in its slot and skipped, the run continues.  The CSV, the error
table and the resonance report are computed from those arrays; no
per-level record is built on the way, and no file is written here
(:mod:`cli` writes them).

The sweep command computes, writes and drops one block of couplings at a
time (:func:`sweep_blocks`), and a block is one runner stack: the couplings
that fit the stack budget ``methods._STACK_BYTES`` at the largest cost of
the configured methods, so every method solves a block at once and the
command's memory does not grow with its grid.  :func:`compare_methods`
pairs levels by rank over every coupling and :func:`resonance_report`
searches windows of couplings around each locus, so they read one whole
table (:func:`run_sweep`).  The CSV writer formats a table a few thousand
rows at a time, each an array program that writes bytes: the numbers'
"%.17g" text is computed exactly with array arithmetic
(:func:`_float_chars`), and only zeros and values outside [1e-4, 1e14) go
through Python's own formatting, one at a time.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import numbers
from dataclasses import dataclass, replace
from typing import BinaryIO, Iterator

import numpy as np

from . import methods
from .closedform import resonance_loci
from .methods import METHOD_ORDER, grid_sweep
from .operators import TruncationConfig
from .spectrum import PARITY_EVEN, PARITY_ODD, MethodSweep, SpectrumTable

__all__ = [
    "SweepConfig",
    "DEFAULT_METHODS",
    "parse_config",
    "run_sweep",
    "sweep_blocks",
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
# about 300 bytes a row (tracemalloc), so about 0.6 MB at 2,048 rows.
_CSV_BLOCK_ROWS = 1 << 11

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
        for key, kind in _KEY_TYPES.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, kind) or (
                key == "methods" and not all(isinstance(m, str) for m in value)
            ):
                raise ValueError(f"unparsable value for {key}: {value!r}")
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
    for key in values:
        if key not in _KEY_TYPES:
            raise ValueError(f"unknown key {key!r}")
    return SweepConfig(**values)


# Kept only for perfbench/run.py, which records it with the environment.
def worker_count() -> int:
    """Sweeps run on one thread."""
    return 1


def run_sweep(config: SweepConfig, grid: np.ndarray | None = None) -> SpectrumTable:
    """Every configured method over ``grid``, consecutive couplings of
    ``config.g_grid()`` (default: all of them), as one table held whole,
    from one :func:`grid_sweep` per method; a failed point is recorded on
    the table, the run goes on.  No coupling's values depend on the other
    couplings of ``grid``."""
    grid = config.g_grid() if grid is None else grid
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


def sweep_blocks(config: SweepConfig) -> Iterator[SpectrumTable]:
    """:func:`run_sweep` of ``config`` as the tables of consecutive blocks of
    its g-grid, in grid order: their CSV rows, failures and row counts,
    joined, are the whole table's.

    A block is one runner stack (:func:`methods.cut_stacks`) at each
    coupling's largest cost over the configured methods
    (:func:`methods.stack_cost`), so every method solves a block in one
    stack, and a consumer that drops each block before the next holds memory
    that does not grow with the grid.  A method that fails a coupling adds
    no cost there, and a coupling no method admits costs what the admitted
    coupling before it does, so one unrepresentable coupling shrinks only
    its own block.  The blocks are cut as the grid is read, one coupling at
    a time."""
    # glibc's malloc raises its mmap and trim thresholds to the size of a freed
    # mmapped block: one block of the stack budget, freed untouched, keeps the
    # stacks' temporaries in the heap instead of returning them to the system
    # and faulting them in again every block (about 58,000 minor faults become
    # 5,000 in a sweep of 10,001 closed-form couplings).  Other allocators
    # just free it.
    np.empty(methods._STACK_BYTES, np.uint8)
    grid = config.g_grid()
    params = (config.omega, config.omega0, TruncationConfig(n_max=config.n_max), config.n_levels)
    costs = set()  # methods that admit alike share one function: every closed form
    for method in config.methods:
        with contextlib.suppress(ValueError):  # else the whole grid fails this method
            costs.add(methods.stack_cost(method, *params))

    def admitted():
        size = 0
        for i, g in enumerate(map(float, grid)):
            top = 0
            for cost in costs:
                try:
                    top = max(top, cost(g))
                except (ValueError, OverflowError):
                    pass
            size = top or size
            yield i, size

    for stack in methods.cut_stacks(admitted()):
        yield run_sweep(config, grid[stack[0]:stack[-1] + 1])


# The longest "%.17g" text of a float64, "-2.2250738585072014e-308".
_TEXT_WIDTH = 24
# Where _float_chars computes the text itself.  Every value there has its
# decimal exponent k in [-4, 13], so "%.17g" writes it positionally,
# 10**(16 - k) is exact in float64 (up to 10**22 the powers are), and the
# product of the two neither overflows nor underflows.
_FAST_MIN, _FAST_MAX = 1e-4, 1e14
_POW10 = np.array([float(f"1e{j}") for j in range(-4, 23)])  # _POW10[j + 4] == 10**j


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo exactly, each with at most 26 significant bits (Veltkamp)."""
    t = x * 134217729.0  # 2**27 + 1
    hi = t - (t - x)
    return hi, x - hi


@functools.cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of :func:`_float_chars`, built on first use.

    ``digits[v]`` is the four ASCII digits of v < 10,000 as one uint32 and
    ``zeros[v]`` the count of their trailing zeros.  Row ``17 * (k + 4) + t``
    of ``left``, ``right`` and ``point`` serves decimal exponent k and t
    trailing zeros of N: the byte masks of the digits left of the point and
    right of it, and the point, each a 24-byte text row as three words."""
    chars = np.empty((10, 10, 10, 10, 4), np.uint8)
    for place in range(4):
        shape = [10 if axis == place else 1 for axis in range(4)]
        chars[..., place] = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8).reshape(shape)
    zeros = np.zeros(10_000, np.uint8)
    for stride in (10, 100, 1000, 10_000):
        zeros[::stride] += 1
    cols = np.arange(_TEXT_WIDTH)
    k = np.arange(-4, 14)[:, None, None]
    dropped = np.minimum(np.arange(17)[None, :, None], 16 - k)  # of the fraction's 16 - k
    end = _TEXT_WIDTH - dropped - (dropped == 16 - k)  # no point without a fraction
    kept = (cols >= np.minimum(6, k + 6)) & (cols < end)
    masks = (kept & (cols <= k + 6), kept & (cols >= k + 8), kept & (cols == k + 7))
    left, right, point = (
        (mask * np.uint8(fill)).reshape(-1, _TEXT_WIDTH).view("<u8")
        for mask, fill in zip(masks, (0xFF, 0xFF, ord(".")))
    )
    return chars.view(np.uint32).ravel(), zeros, left, right, point


def _nul_padded(texts: list[bytes]) -> np.ndarray:
    """``texts`` as the rows of a uint8 matrix, NUL-padded on the right."""
    width = max(1, max(map(len, texts), default=0))
    return np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(len(texts), width)


def _significand(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a·10**(16 - k) rounded half to even, exactly, as int64.

    Dekker's two-product gives the float product and its exact error; where
    the product reaches 2**53 it is an even integer, so adding the error
    rounded half to even rounds the exact value half to even."""
    c = _POW10[20 - k]
    product = a * c
    a_hi, a_lo = _split(a)
    c_hi, c_lo = _split(c)
    error = ((a_hi * c_hi - product) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo
    return product.astype(np.int64) + np.rint(error).astype(np.int64)


def _float_chars(values: np.ndarray) -> np.ndarray:
    """The ``"%.17g"`` text of every value, as the rows of an
    ``(n, _TEXT_WIDTH)`` uint8 matrix whose bytes read as the text once its
    NULs are dropped.

    Values with _FAST_MIN <= |x| < _FAST_MAX are converted exactly: the
    17-digit significand N is |x|·10**(16 - k) rounded half to even, with
    the decimal exponent k = floor(log10 |x|) found from the binary one.  A
    row holds four zeros and N's digits from a four-digit table; the digits
    left of the point move one column left to make room for it, and masks
    keep "0." and the zeros ahead of N when k < 0 and drop the fraction's
    trailing zeros.  Every other value (0, -0.0, tiny, huge, non-finite)
    goes through Python's "%.17g"."""
    digits, zeros, left, right, point = _text_tables()
    values = np.asarray(values, dtype=float)
    a = np.abs(values)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 1.0  # a placeholder; these rows are overwritten below
    # k = floor(log10 a): a lies in [2**(e - 1), 2**e), so (e - 1)·log10(2),
    # with 78913 / 2**18 for log10(2), is k or k - 1, and comparing a with
    # 10**(k + 1) settles it (1e-3, 1e-2 and 1e-1 are floats just above the
    # powers, the others are exact).  Then N lies in [10**16, 10**17): every
    # float below 10**(k + 1) is more than 8e-17 of it below, so rounding to
    # 17 digits never carries into the next decade.
    k = (np.frexp(a)[1].astype(np.int64) - 1) * 78913 // 2**18
    k += a >= _POW10[k + 5]
    n = _significand(a, k)
    # N = lead·10**16 + g0·10**12 + g1·10**8 + g2·10**4 + g3
    upper, g3 = np.divmod(n, 10**8)
    lead, upper = np.divmod(upper, 10**8)
    g0, g1 = np.divmod(upper, 10**4)
    g2, g3 = np.divmod(g3, 10**4)
    trailing = zeros[g3] + (g3 == 0) * (
        zeros[g2] + (g2 == 0) * (zeros[g1] + (g1 == 0) * zeros[g0])
    )
    # Columns 3..23: four zeros, then N's 17 digits.
    row = np.empty((values.size, _TEXT_WIDTH // 4), np.uint32)
    row[:, 0] = digits[0]
    for col, group in enumerate((lead, g0, g1, g2, g3), start=1):
        row[:, col] = digits[group]
    words = row.view("<u8")
    # Every byte one column left; a row's last column takes the next row's
    # first, which no mask keeps.
    shifted = words >> np.uint64(8)
    shifted.ravel()[:-1] |= words.ravel()[1:] << np.uint64(56)
    mask = 17 * (k + 4) + trailing
    text = shifted & left.take(mask, axis=0)
    text |= words & right.take(mask, axis=0)
    text |= point.take(mask, axis=0)
    text[:, 0] |= (values < 0).astype(np.uint64) * np.uint64(ord("-"))
    out = text.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = 0
        padded = _nul_padded([b"%.17g" % v for v in values[slow].tolist()])
        out[slow, :padded.shape[1]] = padded
    return out


@functools.lru_cache(maxsize=1)
def _tail_items(layout: tuple) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The ``,method,level,branch,parity,`` text of every (method, level,
    label) of a table whose sweeps have the (method, level count, labels) of
    ``layout``, NUL-padded to one width and held as one void item each; and
    per method the number of its first (level, label) text: label j at level
    l is that number + l·labels + j.  Cached, so the blocks of a sweep build
    them once."""
    tails, firsts = [], []
    for method, n_levels, labels in layout:
        firsts.append(len(tails) + len(labels) * np.arange(n_levels))
        tails.extend(f",{method},{level},{b},{p},".encode()
                     for level in range(n_levels) for b, p in labels)
    chars = _nul_padded(tails)
    chars = chars.view(f"V{chars.shape[1]}")[:, 0]
    for shared in (chars, *firsts):  # one object for every caller: read-only
        shared.flags.writeable = False
    return chars, tuple(firsts)


def table_to_csv(
    table: SpectrumTable, out: BinaryIO | None = None, header: bool = True
) -> str | None:
    """The sweep CSV of ``table``: its UTF-8 bytes written to the binary file
    ``out``, or returned as a string without one; without ``header`` its
    rows alone (a block of :func:`sweep_blocks` after the first).

    The rows are built from the table's arrays one block of couplings
    (``_CSV_BLOCK_ROWS`` rows or fewer) at a time, so the writer's memory
    does not grow with the grid.  A block is one array program: its rows are
    the ok cells of the (couplings, methods' levels) layout in row-major
    order, and a row is a record of four fixed-width fields, each copied as
    one item: its coupling's text, its (method, level, label) text
    (:func:`_tail_items`), its energy's text (both numbers from
    :func:`_float_chars`) and ``,False``, each NUL-padded; one pass drops the
    NULs of the whole block, and its bytes are written as they are."""
    fh = io.BytesIO() if out is None else out
    if header:
        fh.write(f"{CSV_HEADER}\n".encode())
    layout = tuple((s.method, s.energies.shape[1], s.labels) for s in table.sweeps)
    tails, firsts = _tail_items(layout)
    oks = [np.repeat(s.ok[:, None], s.energies.shape[1], axis=1) for s in table.sweeps]
    text = np.dtype(f"V{_TEXT_WIDTH}")
    g_items = _float_chars(table.grid).view(text)[:, 0]
    record = np.dtype([("g", text), ("tail", tails.dtype), ("energy", text), ("end", "V7")])
    width = sum(s.energies.shape[1] for s in table.sweeps)  # rows per coupling at most
    step = max(1, _CSV_BLOCK_ROWS // max(1, width))
    for lo in range(0, table.grid.size if oks else 0, step):
        block = slice(lo, lo + step)
        keep = np.concatenate([ok[block] for ok in oks], axis=1)
        codes = np.concatenate(
            [s.label_index[block] + first for s, first in zip(table.sweeps, firsts)], axis=1
        )[keep]
        energies = np.concatenate([s.energies[block] for s in table.sweeps], axis=1)[keep]
        rows = np.empty(energies.size, record)
        rows["g"] = np.repeat(g_items[block], keep.sum(axis=1))
        rows["tail"] = tails[codes]
        rows["energy"] = _float_chars(energies).view(text)[:, 0]
        rows["end"] = np.void(b",False\n")
        fh.write(rows.tobytes().translate(None, b"\0"))
    return fh.getvalue().decode() if out is None else None


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
    self-check of the pairing.  The pairs span every coupling, so the compare
    command holds its whole table (:func:`run_sweep`), not blocks of it.
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


def resonance_report(
    config: SweepConfig,
) -> tuple[str, list[LocusReport], tuple[tuple[float, str, str], ...]]:
    """Analytic resonance loci with the measured avoided-crossing minima.

    Active loci couple same-parity dressed levels, so the exact spectrum
    shows an avoided crossing whose minimal gap sits near the locus; the
    report measures that minimum on the sweep grid.  Mute loci involve a
    vanishing coupling and are listed without a gap measurement.  Loci
    outside the g-grid are kept as rows with an explanatory note.  The
    levels come from an exact-only sweep of ``config``'s whole grid, held as
    one table because a locus's search window may span any of its couplings;
    its failed points are returned as ``SpectrumTable.failures`` lists them.
    The measurements use only the couplings that succeeded, and a locus
    whose window holds none says so.
    """
    grid = config.g_grid()
    table = run_sweep(replace(config, methods=("exact",)))
    exact = table.sweep("exact")
    ok = exact.ok
    exact_g, energies, parities = grid[ok].tolist(), exact.energies[ok], exact.parities(ok)
    top_energy = float(energies.max()) if energies.size else 0.0
    loci = resonance_loci(range(0, config.n_max), config.omega)
    reports: list[LocusReport] = []
    for locus in loci:
        crossing_energy = config.omega * locus.n + locus.g * np.sqrt(locus.n)
        if crossing_energy > top_energy + config.omega and locus.kind == "active":
            continue  # far above every level the sweep retains
        if locus.g < grid[0] or locus.g > grid[-1]:
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
        if best_gap is None and not ok[np.abs(grid - locus.g) <= half_width].any():
            note = "no successful exact coupling in search window"
        elif best_gap is None:
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
    return "\n".join(lines) + "\n", reports, table.failures
