"""Registry of spectrum-computation methods used by sweeps and comparisons.

Every method maps (params, trunc, n_levels) to the same shape of output: the
lowest physical levels in ascending energy order, spurious kernel zeros
already filtered, each level carrying a branch tag (closed forms only), a
parity label, and its energy.  The exact oracle's labels hold by
construction, matrix chains read theirs off the parity sign vector each
chain carries (slot k of a chain is one level; the contact-iteration
refinements weight the signs by their eigenvectors), closed forms carry
analytic labels.  No matrix path emits guard-band levels.

Truncation policy: matrix chains run at the caller's truncation, except the
contact-iteration refinements (rt1_kam, rt_full_kam), which rebuild their
chain at a small truncation tied to the requested level count — the
small-denominator correction is only contractive while every retained pair
of reference levels keeps a gap well above its coupling, and the dense top
of a large Fock box violates that long before the levels of interest do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .averaging import build_effective, cluster_levels
from .closedform import closed_form_table, require_one_photon_resonance
from .kam import kam_iterate_full
from .operators import (
    ModelParams,
    TruncationConfig,
    build_rabi,
    validated_level_count,
)
from .spectrum import (
    PARITY_NA,
    PARITY_UNCLASSIFIED,
    PARITY_EVEN,
    PARITY_ODD,
    eigh,
    exact_spectra,
)
from .transforms import (
    TransformedHamiltonian,
    generic_numeric_rt,
    rt_one_photon,
    rt_two_photon,
    rt_zero_field,
    spurious_filter,
    strong_chain,
)

__all__ = [
    "METHOD_ORDER",
    "WEAK_METHODS",
    "CLOSED_FORM_METHODS",
    "BRANCH_UNASSIGNED",
    "MethodLevel",
    "GRID_METHODS",
    "closed_form_sweep",
    "exact_sweep",
    "grid_sweep",
    "compute_levels",
    "kam_truncation",
    "rabi_rt1_chain",
    "rabi_rt2_chain",
    "rt2_iterated_chain",
    "strong_avg_decomposition",
    "strong_rt_chain",
    "levels_from_chain",
]

METHOD_ORDER = (
    "exact",
    "jc",
    "rt1",
    "rt1_kam",
    "rt2",
    "rt_full_kam",
    "strong_avg",
    "strong_rt",
)

# Methods built on the one-photon-resonance chains; they require omega0 = omega.
WEAK_METHODS = frozenset({"jc", "rt1", "rt1_kam", "rt2", "rt_full_kam"})

CLOSED_FORM_METHODS = frozenset({"jc", "rt2", "strong_avg", "strong_rt"})

# Methods evaluated once per sweep, as array programs over the whole g grid.
GRID_METHODS = CLOSED_FORM_METHODS | {"exact"}

BRANCH_UNASSIGNED = "unassigned"

# Cluster tolerance for physically near-degenerate reference levels, as a
# fraction of omega (avoided crossings swept through by the coupling grid).
PHYSICAL_CLUSTER_FRACTION = 1e-3

# Numeric transformations after the two-photon reduction in rt_full_kam.
NUMERIC_RT_STEPS = 3

_OVERLAP_MIN = 0.99

# (coupling, slot) entries per closed-form evaluation block; bounds memory
# on grids whose largest coupling needs a long photon range.
_CLOSED_FORM_BLOCK = 1 << 20


@dataclass(frozen=True)
class MethodLevel:
    """One physical level of one method at one coupling value."""

    level: int
    branch: str
    parity: str
    energy: float
    spurious: bool = False


def kam_truncation(n_levels: int) -> TruncationConfig:
    """Small Fock box for contact-iteration refinements: the requested level
    count plus a two-photon margin."""
    return TruncationConfig(n_max=n_levels + 2)


def _closed_form_count(g: float, omega: float, n_levels: int) -> int:
    """Photon range that provably contains the lowest ``n_levels`` closed-form
    energies: beyond g^2/(4 omega^2) every branch is increasing in n."""
    ratio = g / omega
    return n_levels + math.ceil(ratio * ratio + 4.0 * ratio) + 8


def _select_closed_form(method, omega, omega0, grid, counts, n_levels) -> list:
    """Lowest ``n_levels`` physical slots at each coupling of one block, in
    (energy, n) order with ties kept in slot order."""
    table = closed_form_table(method, omega, omega0, grid, max(counts))
    usable = ~table.spurious & (table.n <= np.array(counts)[:, None])
    energies = np.where(usable, table.energies, np.inf)
    order = np.lexsort((np.broadcast_to(table.n, energies.shape), energies), axis=-1)
    order = order[:, :n_levels]
    energies = np.take_along_axis(energies, order, axis=1)
    labels = tuple(zip(table.branch, table.parity))
    out = []
    for available, slots, row in zip(
        usable.sum(axis=1).tolist(), order.tolist(), energies.tolist()
    ):
        if available < n_levels:
            out.append(
                ValueError(f"requested {n_levels} levels but only {available} are available")
            )
        else:
            out.append([(*labels[s], e) for s, e in zip(slots, row)])
    return out


def closed_form_sweep(
    method: str, omega: float, omega0: float, grid, n_levels: int
) -> list:
    """The lowest ``n_levels`` physical levels of a closed form at every
    coupling of ``grid``, from one array evaluation per block of couplings.

    Entry i is a list of (branch, parity, energy) in ascending energy order,
    or the ValueError that coupling i raises on its own.  An error that holds
    for the whole grid (off one-photon resonance) is raised.
    """
    if method not in CLOSED_FORM_METHODS:
        raise ValueError(f"{method!r} is not a closed form")
    grid = np.asarray(grid, dtype=float)
    counts = [_closed_form_count(g, omega, n_levels) for g in grid.tolist()]
    # at most 2 * (count + 1) slots per coupling
    rows = max(1, _CLOSED_FORM_BLOCK // (2 * max(counts, default=0) + 2))
    out = []
    for lo in range(0, len(counts), rows):
        out.extend(
            _select_closed_form(
                method, omega, omega0, grid[lo:lo + rows], counts[lo:lo + rows], n_levels
            )
        )
    return out


def _extract_levels(
    values: np.ndarray,
    photon: np.ndarray,
    parity: np.ndarray | None,
    spurious,
    loss_band: int,
    n_max: int,
    n_levels: int,
) -> list[MethodLevel]:
    """Shared tail of every matrix path, on per-level data: energies, photon
    numbers, parity expectations (None: no parity bookkeeping) and kernel
    vectors in the basis of the levels.  Drops kernel zeros by overlap, drops
    levels living in the corrupted top photon band, sorts, ranks."""
    values = np.asarray(values, dtype=float)
    _, kept, _ = spurious_filter(values, tuple(spurious))
    usable = np.asarray(kept, dtype=int)
    usable = usable[photon[usable] <= n_max - loss_band]
    usable = usable[np.argsort(values[usable], kind="stable")]
    if len(usable) < n_levels:
        raise ValueError(
            f"requested {n_levels} levels but only {len(usable)} survive the "
            f"guard band (loss_band={loss_band}, n_max={n_max})"
        )
    labels = np.full(values.size, PARITY_NA if parity is None else PARITY_UNCLASSIFIED, object)
    if parity is not None:
        labels[parity >= _OVERLAP_MIN] = PARITY_EVEN
        labels[parity <= -_OVERLAP_MIN] = PARITY_ODD
    return [
        MethodLevel(level=rank, branch=BRANCH_UNASSIGNED, parity=labels[k], energy=float(values[k]))
        for rank, k in enumerate(usable[:n_levels])
    ]


def levels_from_chain(th: TransformedHamiltonian, n_levels: int) -> list[MethodLevel]:
    """Read levels off a chain: slot k is a level with energy ``levels[k]``,
    photon number k // 2 and parity ``parity[k]``; a kernel vector's
    component k is its overlap with slot k."""
    n_max = th.trunc.n_max if th.trunc is not None else th.dim // 2 - 1
    return _extract_levels(
        th.levels, np.arange(th.dim) // 2, th.parity, th.spurious, th.loss_band, n_max, n_levels
    )


def rabi_rt1_chain(params: ModelParams, trunc: TruncationConfig) -> TransformedHamiltonian:
    return rt_one_photon(build_rabi(params, trunc), params, trunc)


def rabi_rt2_chain(params: ModelParams, trunc: TruncationConfig) -> TransformedHamiltonian:
    return rt_two_photon(rabi_rt1_chain(params, trunc))


def rt2_iterated_chain(params: ModelParams, trunc: TruncationConfig) -> TransformedHamiltonian:
    """One-photon + two-photon reductions followed by NUMERIC_RT_STEPS
    numeric transformations of the residual near-degeneracies."""
    th = rabi_rt2_chain(params, trunc)
    tol = PHYSICAL_CLUSTER_FRACTION * params.omega
    for _ in range(NUMERIC_RT_STEPS):
        th = generic_numeric_rt(th, tol_deg=tol)
    return th


def strong_avg_decomposition(params: ModelParams, trunc: TruncationConfig):
    """Matrix path behind strong_avg: displaced chain, averaging over the
    doubly degenerate displaced ladder, diagonalization of the effective
    operator.  Returns (decomposition, chain)."""
    th = strong_chain(build_rabi(params, trunc), params, trunc)
    reference = np.diag(th.levels)
    decomp = eigh(reference)
    clusters = cluster_levels(decomp.values, 1e-8 * params.omega)
    heff = build_effective(reference, th.operator - reference, decomp, clusters)
    return eigh(heff), th


def strong_rt_chain(params: ModelParams, trunc: TruncationConfig) -> TransformedHamiltonian:
    """Matrix path behind strong_rt: displaced chain, zero-field photon-shift
    reduction, numeric diagonalization of the doublet blocks of the averaged
    operator."""
    th = strong_chain(build_rabi(params, trunc), params, trunc)
    th = rt_zero_field(th)
    return generic_numeric_rt(th, tol_deg=1e-8 * params.omega)


def exact_sweep(
    omega: float, omega0: float, grid, trunc: TruncationConfig, n_levels: int
) -> list:
    """The lowest ``n_levels`` exact levels at every coupling of ``grid``,
    from one stacked solve of the parity blocks (:func:`spectrum.exact_spectra`).

    Entry i is a list of (branch, parity, energy) in ascending energy order,
    or the ValueError coupling i raises on its own: asking for more levels
    than the guard band validates there.
    """
    grid = np.asarray(grid, dtype=float)
    out: list = []
    for g in grid.tolist():
        valid = validated_level_count(ModelParams(omega, omega0, g), trunc)
        out.append(
            None if n_levels <= valid else ValueError(
                f"requested {n_levels} levels from dim {trunc.dim}, of which the "
                f"guard band validates {valid}"
            )
        )
    solved = [i for i, levels in enumerate(out) if levels is None]
    values, odd = exact_spectra(omega, omega0, grid[solved], trunc.n_max)
    for i, energies, labels in zip(
        solved, values[:, :n_levels].tolist(), odd[:, :n_levels].tolist()
    ):
        out[i] = [
            (BRANCH_UNASSIGNED, PARITY_ODD if o else PARITY_EVEN, e)
            for e, o in zip(energies, labels)
        ]
    return out


def grid_sweep(
    method: str, omega: float, omega0: float, grid, trunc: TruncationConfig, n_levels: int
) -> list:
    """:func:`exact_sweep` or :func:`closed_form_sweep` of a method in
    GRID_METHODS: per coupling of ``grid``, its levels as (branch, parity,
    energy) or the ValueError that coupling raises on its own."""
    if method == "exact":
        return exact_sweep(omega, omega0, grid, trunc, n_levels)
    return closed_form_sweep(method, omega, omega0, grid, n_levels)


def _kam_levels(
    th: TransformedHamiltonian, params: ModelParams, n_levels: int
) -> list[MethodLevel]:
    reference = np.diag(th.levels)
    chain = kam_iterate_full(
        reference,
        th.operator - reference,
        max_steps=1,
        tol_deg=PHYSICAL_CLUSTER_FRACTION * params.omega,
    )
    n_max = th.trunc.n_max if th.trunc is not None else th.dim // 2 - 1
    # Each eigenvector v of the refined reference maps to the data of one
    # level: photon number of its largest slot, |v|^2-weighted parity, and
    # the kernel vectors' overlaps v^H w.
    v = chain.vectors
    parity = None if th.parity is None else (np.abs(v) ** 2).T @ th.parity
    spurious = tuple(replace(sp, vector=v.conj().T @ sp.vector) for sp in th.spurious)
    return _extract_levels(
        chain.estimate, np.argmax(np.abs(v), axis=0) // 2, parity, spurious,
        th.loss_band, n_max, n_levels,
    )


def compute_levels(
    method: str,
    params: ModelParams,
    trunc: TruncationConfig,
    n_levels: int,
) -> list[MethodLevel]:
    """Compute the lowest ``n_levels`` physical levels by the named method."""
    if method not in METHOD_ORDER:
        raise ValueError(f"unknown method {method!r}; known: {', '.join(METHOD_ORDER)}")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    if method in WEAK_METHODS:
        require_one_photon_resonance(params)

    if method in GRID_METHODS:
        (levels,) = grid_sweep(
            method, params.omega, params.omega0, [params.g], trunc, n_levels
        )
        if isinstance(levels, Exception):
            raise levels
        return [
            MethodLevel(level=i, branch=branch, parity=parity, energy=energy)
            for i, (branch, parity, energy) in enumerate(levels)
        ]
    if method == "rt1":
        return levels_from_chain(rabi_rt1_chain(params, trunc), n_levels)
    if method == "rt1_kam":
        small = kam_truncation(n_levels)
        return _kam_levels(rabi_rt1_chain(params, small), params, n_levels)
    if method == "rt_full_kam":
        small = kam_truncation(n_levels)
        return _kam_levels(rt2_iterated_chain(params, small), params, n_levels)
    raise AssertionError(f"unhandled method {method!r}")
