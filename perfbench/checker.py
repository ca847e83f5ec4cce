"""Output checks for the benchmark's CLI runs.

Every (g, method) point of a run is checked against a reference that does
not come from the program under test:

* ``exact`` rows against an independent solve of the two real parity blocks
  of H (each a tridiagonal chain), within ``EXACT_RTOL``; each row's parity
  label must name the block its energy came from, and inside a degenerate
  group (the program's 1e-8 * scale rule) even levels come before odd ones;
* closed-form rows (``jc``, ``rt2``, ``strong_avg``, ``strong_rt``) against a
  frozen transcription of the closed forms as they stand at the commit that
  introduced this benchmark, within ``RECORDED_RTOL``;
* matrix-chain rows (``rt1``, ``rt1_kam``, ``rt_full_kam``) against values
  recorded from that commit (``golden/chains_gate.csv.gz``), within
  ``RECORDED_RTOL``.

Closed-form and chain rows must also carry identical branch and parity
labels in identical order; levels whose reference energies agree within the
tolerance count as one group, inside which only the multiset of labels is
compared.  Relative tolerances are taken against max(|E|, omega).
"""

from __future__ import annotations

import gzip
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

CSV_HEADER = "g,method,level,branch,parity,energy,spurious"
ERRORS_HEADER = "method,max_abs_error,mean_abs_error,pairs"
EXACT_RTOL = 1e-10
RECORDED_RTOL = 1e-12
# classify_parity's degeneracy width, as a fraction of max(1, max |E|).
PARITY_TIE_FRACTION = 1e-8

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CLOSED_FORMS = ("jc", "rt2", "strong_avg", "strong_rt")
CHAIN_METHODS = ("rt1", "rt1_kam", "rt_full_kam")


class Row(NamedTuple):
    g: float
    method: str
    level: int
    branch: str
    parity: str
    energy: float
    spurious: str


@dataclass
class CheckResult:
    """Points (grid index, method) whose output is wrong, with reasons."""

    bad: set = field(default_factory=set)
    reasons: list = field(default_factory=list)

    def fail(self, point, reason: str) -> None:
        self.bad.add(point)
        if len(self.reasons) < 20:
            self.reasons.append(f"g#{point[0]} {point[1]}: {reason}")


def parse_csv(text: str) -> list[Row]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"bad CSV header: {lines[0] if lines else '<empty>'!r}")
    rows = []
    for line in lines[1:]:
        g, method, level, branch, parity, energy, spurious = line.split(",")
        rows.append(Row(float(g), method, int(level), branch, parity, float(energy), spurious))
    return rows


def _close(got: float, ref: float, rtol: float, omega: float) -> bool:
    return abs(got - ref) <= rtol * max(abs(ref), omega)


def _all_close(got, ref, rtol: float, omega: float) -> bool:
    ref = np.asarray(ref[: len(got)])
    return bool(np.all(np.abs(np.asarray(got) - ref) <= rtol * np.maximum(np.abs(ref), omega)))


def _groups(energies, tol_of) -> list[tuple[int, int]]:
    """[start, stop) runs of consecutive energies closer than tol_of(energy)."""
    runs = []
    start = 0
    for i in range(1, len(energies) + 1):
        if i == len(energies) or energies[i] - energies[i - 1] > tol_of(energies[i]):
            runs.append((start, i))
            start = i
    return runs


def _labels_match(got_labels, ref_labels, runs, n: int) -> bool:
    """Per group of tied reference levels, the emitted labels are the group's
    labels (a sub-multiset where the group straddles the n-level cut)."""
    for start, stop in runs:
        if start >= n:
            break
        got = Counter(got_labels[start:min(stop, n)])
        ref = Counter(ref_labels[start:stop])
        if got - ref:
            return False
    return True


# -- exact oracle ---------------------------------------------------------


def parity_block_levels(omega: float, omega0: float, g: float, n_max: int):
    """All eigenvalues of H = omega(N+1/2) + (omega0/2) sigma_z + g(a+a^H) sigma_x
    on n <= n_max, ascending, each labelled with its parity block.

    P = (-1)^N sigma_z splits H into two real tridiagonal chains: the even
    block holds |n,+> for even n and |n,-> for odd n, the odd block the rest.
    """
    n = np.arange(n_max + 1)
    atom = np.where(n % 2 == 0, 1.0, -1.0)  # sigma_z of the even block's states
    off = g * np.sqrt(n[1:])
    values, labels = [], []
    for label, sz in (("even", atom), ("odd", -atom)):
        diag = omega * (n + 0.5) + 0.5 * omega0 * sz
        block = eigvalsh_tridiagonal(diag, off)
        values.extend(block.tolist())
        labels.extend([label] * block.size)
    order = sorted(range(len(values)), key=lambda i: values[i])
    return [values[i] for i in order], [labels[i] for i in order]


def exact_reference(omega: float, omega0: float, g: float, n_max: int):
    """(energies, expected labels): labels of each degenerate group sorted
    even before odd, as classify_parity orders ties."""
    values, labels = parity_block_levels(omega, omega0, g, n_max)
    tol = PARITY_TIE_FRACTION * max(1.0, max(abs(v) for v in values))
    runs = _groups(values, lambda _: tol)
    expected = list(labels)
    for start, stop in runs:
        expected[start:stop] = sorted(labels[start:stop])
    return values, expected


# -- closed forms, frozen ---------------------------------------------------


def _laguerre_table(n_top: int, alpha: int, x: np.ndarray) -> np.ndarray:
    """L_n^alpha(x) for n = 0..n_top (rows), by the program's recurrence."""
    out = np.empty((n_top + 1, x.size))
    out[0] = 1.0
    if n_top >= 1:
        out[1] = 1.0 + alpha - x
    for k in range(1, n_top):
        out[k + 1] = ((2 * k + alpha + 1 - x) * out[k] - (k + alpha) * out[k - 1]) / (k + 1)
    return out


def _ladder_parity(n: int) -> str:
    return "even" if n % 2 == 1 else "odd"


def closed_form_slots(method: str, omega: float, omega0: float, g: np.ndarray, count: int):
    """Slots (n, branch, parity, spurious) and energies[g, slot] of one closed
    form built with ``count`` photon levels, in the program's list order."""
    w, w0 = omega, omega0
    slots, cols = [], []

    def add(n, branch, parity, energy, spurious=False):
        slots.append((n, branch, parity, spurious))
        cols.append(np.broadcast_to(energy, g.shape))

    if method == "jc":
        add(0, "+", _ladder_parity(0), 0.0, True)
        add(0, "-", _ladder_parity(0), 0.0)
        for n in range(1, count + 1):
            root = g * math.sqrt(n)
            add(n, "+", _ladder_parity(n), w * n + root)
            add(n, "-", _ladder_parity(n), w * n - root)
    elif method == "rt2":
        half_split = 0.5 * np.sqrt((2.0 * w - g * math.sqrt(2.0)) ** 2 + 2.0 * g * g)
        center = w - g / math.sqrt(2.0)
        for n in range(3):
            add(n, "+", _ladder_parity(n), 0.0, True)
        add(0, "-", "odd", center - half_split)
        add(2, "-", "odd", center + half_split)
        add(1, "-", _ladder_parity(1), w - g)
        for n in range(3, count + 1):
            mid = w * (n - 1) + 0.5 * g * (math.sqrt(n - 2) - math.sqrt(n))
            half = 0.5 * np.sqrt(
                (-2.0 * w + g * (math.sqrt(n - 2) + math.sqrt(n))) ** 2 + g * g * (n - 1)
            )
            add(n, "+", _ladder_parity(n), mid + half)
            add(n, "-", _ladder_parity(n), mid - half)
    elif method == "strong_avg":
        r = 2.0 * g / w
        lag = _laguerre_table(count, 0, r * r)
        damp = np.exp(-0.5 * r * r)
        for n in range(count + 1):
            base = w * (n + 0.5) - g * g / w
            split = 0.5 * w0 * (damp * lag[n])
            add(n, "+", _ladder_parity(n), base - split)
            add(n, "-", "even" if n % 2 == 0 else "odd", base + split)
    elif method == "strong_rt":
        x = 4.0 * g * g / (w * w)
        damp = np.exp(-0.5 * x)
        lag0 = _laguerre_table(count, 0, x)
        lag1 = _laguerre_table(max(count - 1, 0), 1, x)
        add(0, "-", _ladder_parity(0), 0.0, True)
        add(0, "+", _ladder_parity(0), 0.5 * w - g * g / w - 0.5 * w0 * damp)
        for n in range(1, count + 1):
            l_n, l_nm1, l1_nm1 = lag0[n], lag0[n - 1], lag1[n - 1]
            mid = n * w - g * g / w - 0.25 * w0 * damp * (l_n - l_nm1)
            h = w - 0.5 * w0 * damp * (l_n + l_nm1)
            c = (w0 / w) * (2.0 * g / math.sqrt(n)) * damp * l1_nm1
            half = 0.5 * np.hypot(h, c)
            add(n, "+", _ladder_parity(n), mid + half)
            add(n, "-", _ladder_parity(n), mid - half)
    else:
        raise ValueError(f"no frozen closed form for {method!r}")
    return slots, np.stack(cols, axis=1)


def closed_form_reference(method: str, omega: float, omega0: float, g: np.ndarray, n_levels: int):
    """Per g: the physical levels sorted by (energy, n) as the program sorts
    them, as lists (energies, labels) where a label is (branch, parity).

    Each g uses the program's photon count n_levels + ceil(r^2 + 4r) + 8,
    r = g/omega; slots above it are masked out."""
    ratio = g / omega
    counts = np.array([n_levels + math.ceil(r * r + 4.0 * r) + 8 for r in ratio])
    slots, energies = closed_form_slots(method, omega, omega0, g, int(counts.max()))
    n_of = np.array([s[0] for s in slots])
    masked = energies.copy()
    masked[:, [i for i, s in enumerate(slots) if s[3]]] = np.inf
    masked[n_of[None, :] > counts[:, None]] = np.inf
    order = np.lexsort((np.broadcast_to(n_of, masked.shape), masked), axis=-1)
    # The tail past n_levels only matters for ties straddling the cut.
    order = order[:, : n_levels + 8].tolist()
    out = []
    for row, idx in zip(masked.tolist(), order):
        idx = [i for i in idx if math.isfinite(row[i])]
        out.append(([row[i] for i in idx], [slots[i][1:3] for i in idx]))
    return out


# -- recorded chains ----------------------------------------------------------


def load_golden(name: str):
    """{(g index, method): (energies, labels)} of a recorded sweep CSV."""
    with gzip.open(GOLDEN_DIR / f"{name}.csv.gz", "rt", encoding="utf-8") as fh:
        rows = parse_csv(fh.read())
    g_index: dict[float, int] = {}
    out: dict = {}
    for r in rows:
        i = g_index.setdefault(r.g, len(g_index))
        energies, labels = out.setdefault((i, r.method), ([], []))
        energies.append(r.energy)
        labels.append((r.branch, r.parity))
    return sorted(g_index, key=g_index.get), out


# -- the check ----------------------------------------------------------------


class Reference:
    """Reference levels of every point of one grid, computed once."""

    def __init__(self, spec):
        grid = np.asarray(spec.grid, dtype=float)
        self.closed = {
            m: closed_form_reference(m, spec.omega, spec.omega0, grid, spec.n_levels)
            for m in spec.methods
            if m in CLOSED_FORMS
        }
        self.exact = None
        if "exact" in spec.methods:
            self.exact = [exact_reference(spec.omega, spec.omega0, float(g), spec.n_max) for g in grid]
        self.golden_grid = self.golden = None
        if any(m in CHAIN_METHODS for m in spec.methods):
            self.golden_grid, self.golden = load_golden(spec.golden)


def check_sweep(spec, text: str, failed_points=(), reference: Reference | None = None) -> CheckResult:
    """Check a sweep CSV against the grid, methods and levels of ``spec``.

    ``spec`` provides ``grid`` (the g values), ``methods`` (registry order),
    ``n_levels``, ``n_max``, ``omega``, ``omega0`` and, for recorded chains,
    ``golden`` (name) and ``golden_offset`` (index of grid[0] in it).  Points
    the program reported as failed are expected to be absent.
    """
    result = CheckResult()
    grid = np.asarray(spec.grid, dtype=float)
    methods = tuple(spec.methods)
    failed = set(failed_points)
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        for i in range(grid.size):
            for m in methods:
                result.fail((i, m), "missing or bad CSV header")
        return result

    # Split into contiguous (g, method) blocks of raw fields and place each
    # on the grid.
    step = (grid[-1] - grid[0]) / (grid.size - 1) if grid.size > 1 else 1.0
    blocks: dict = {}
    order: list = []
    head = current = None
    for number, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != 7:
            result.fail((-1, f"line {number}"), f"malformed row {line!r}")
            continue
        if (fields[0], fields[1]) != head:
            head = (fields[0], fields[1])
            try:
                g = float(fields[0])
            except ValueError:
                g = math.nan
            i = min(max(round((g - grid[0]) / step), 0), grid.size - 1) if math.isfinite(g) else 0
            key = (i, fields[1])
            current = None
            if key in blocks or key[1] not in methods or not _close(g, grid[i], RECORDED_RTOL, 1.0):
                result.fail(key, f"misplaced row {line!r}")
                continue
            order.append(key)
            current = blocks[key] = []
        if current is not None:
            current.append(fields)
    rank = {m: k for k, m in enumerate(methods)}
    last = -1
    for key in order:
        position = key[0] * len(methods) + rank[key[1]]
        if position <= last:
            result.fail(key, "out of order")
        last = max(last, position)

    if reference is None:
        reference = Reference(spec)

    level_names = [str(k) for k in range(spec.n_levels)]
    for i, g in enumerate(grid):
        for m in methods:
            point = (i, m)
            block = blocks.get(point)
            if point in failed:
                if block is not None:
                    result.fail(point, "rows emitted for a failed point")
                continue
            if block is None:
                result.fail(point, "missing")
                continue
            if point in result.bad:
                continue
            if [f[2] for f in block] != level_names:
                result.fail(point, "levels not 0..n_levels-1")
                continue
            if any(f[6] != "False" for f in block):
                result.fail(point, "spurious row emitted")
                continue
            try:
                energies = [float(f[5]) for f in block]
            except ValueError:
                result.fail(point, "unreadable energy")
                continue
            if m == "exact":
                ref_e, ref_labels = reference.exact[i]
                if any(f[3] != "unassigned" for f in block):
                    result.fail(point, "exact row with a branch")
                elif not _all_close(energies, ref_e, EXACT_RTOL, spec.omega):
                    result.fail(point, "energy differs from the parity-block solve")
                elif [f[4] for f in block] != ref_labels[: spec.n_levels]:
                    result.fail(point, "parity label differs from its block")
                continue
            if m in reference.closed:
                ref_e, ref_labels = reference.closed[m][i]
            elif m in CHAIN_METHODS:
                j = i + spec.golden_offset
                if not _close(reference.golden_grid[j], float(g), RECORDED_RTOL, 1.0):
                    raise ValueError(f"golden grid does not hold g={g!r}")
                ref_e, ref_labels = reference.golden[(j, m)]
            else:
                raise ValueError(f"no reference for method {m!r}")
            if len(ref_e) < spec.n_levels:
                raise ValueError(f"reference for {m!r} holds too few levels")
            if not _all_close(energies, ref_e, RECORDED_RTOL, spec.omega):
                result.fail(point, "energy differs from the recorded value")
                continue
            got_labels = [(f[3], f[4]) for f in block]
            if got_labels == ref_labels[: spec.n_levels]:
                continue
            runs = _groups(ref_e, lambda e: RECORDED_RTOL * max(abs(e), spec.omega))
            if not _labels_match(got_labels, ref_labels, runs, spec.n_levels):
                result.fail(point, "branch/parity labels or their order differ")
    return result


def _rank_pairs(exact_rows, method_rows):
    """compare_methods' pairing: by rank within each parity class, then the
    unlabelled remainders by rank."""
    pairs, used_e, used_m = [], set(), set()
    for label in ("even", "odd"):
        e_idx = [k for k, r in enumerate(exact_rows) if r.parity == label]
        m_idx = [k for k, r in enumerate(method_rows) if r.parity == label]
        for a, b in zip(e_idx, m_idx):
            pairs.append((exact_rows[a], method_rows[b]))
            used_e.add(a)
            used_m.add(b)
    rest_e = [r for k, r in enumerate(exact_rows) if k not in used_e]
    rest_m = [r for k, r in enumerate(method_rows) if k not in used_m]
    pairs.extend(zip(rest_e, rest_m))
    return pairs


def check_errors(spec, sweep_text: str, errors_text: str, result: CheckResult) -> None:
    """Check compare's error table against the errors recomputed from the
    sweep CSV; a wrong or missing line marks every point of its method."""
    try:
        rows = parse_csv(sweep_text)
    except ValueError:
        return  # check_sweep has failed the malformed rows already
    by_point: dict = {}
    for r in rows:
        by_point.setdefault((r.g, r.method), []).append(r)
    lines = errors_text.splitlines()
    table = {}
    if lines and lines[0] == ERRORS_HEADER:
        for line in lines[1:]:
            try:
                method, mx, mean, pairs = line.split(",")
                table[method] = (float(mx), float(mean), int(pairs))
            except ValueError:
                continue  # its method then counts as missing
    for m in spec.methods:
        errors = []
        for g in sorted({g for g, _ in by_point}):
            e_rows, m_rows = by_point.get((g, "exact")), by_point.get((g, m))
            if e_rows and m_rows:
                errors.extend(abs(b.energy - a.energy) for a, b in _rank_pairs(e_rows, m_rows))
        got = table.get(m)
        ok = (
            got is not None
            and got[2] == len(errors)
            and bool(errors)
            and _close(got[0], max(errors), RECORDED_RTOL, 1.0)
            and _close(got[1], float(np.mean(errors)), RECORDED_RTOL, 1.0)
        )
        if not ok:
            for i in range(len(spec.grid)):
                result.fail((i, m), "error table line wrong")
