"""Registry of spectrum-computation methods used by sweeps and comparisons.

Every method maps (omega, omega0, grid, trunc, n_levels) to a
:class:`MethodSweep`: at each coupling, the lowest ``n_levels`` physical
levels in ascending energy order (``.energies[i]``, or ``.point(i)`` as
(branch, parity, energy)), without the spurious kernel zeros (a chain's
sign-0 parity slots, a closed form's spurious slots).  The exact oracle and
the contact-iteration chains label a level by the parity block it was solved
in, and leave its branch unassigned; closed forms carry analytic labels.  No
method emits guard-band levels.

Every method answers its whole grid as one array program
(:func:`grid_sweep`): the closed forms and rt1 from table evaluations, the
exact oracle from boxes of its parity blocks, and the contact-iteration
chains from stacks of chain operators, every stack sized by a byte budget.
One runner admits each coupling and holds the arrays of every method.  A
coupling that fails records its own exception; the others go on.

Truncation policy: no matrix chain runs at the caller's truncation.  The
caller's ``n_max`` bounds the exact oracle's box and rt1's photon range:
rt1 is the one-photon chain's renormalized reference, jc's dressed ladder
slot for slot, read off the jc table up to ``n_max - 1`` photons (the
chain's loss band of 1).  The contact-iteration refinements (rt1_kam,
rt_full_kam) build their chain at a small truncation tied to the requested
level count — the small-denominator correction is only contractive while
every retained pair of reference levels keeps a gap well above its
coupling, and the dense top of a large Fock box violates that long before
the levels of interest do.

The chain layer (``transforms``, ``kam``, ``averaging``) is imported where
a chain is built, so a run of the oracle and the closed forms never loads
it; its functions are read off their modules at call time.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from .closedform import closed_form_table, require_one_photon_resonance
from .operators import (
    ModelParams,
    TruncationConfig,
    build_rabi,
    validated_level_count,
)
from .spectrum import (
    PARITY_EVEN,
    PARITY_ODD,
    CouplingErrors,
    MethodSweep,
    _leading_box,
    check_rows,
    exact_spectra,
)

if TYPE_CHECKING:
    from .transforms import TransformedHamiltonian

__all__ = [
    "METHOD_ORDER",
    "CLOSED_FORM_METHODS",
    "BRANCH_UNASSIGNED",
    "chain_sweep",
    "exact_sweep",
    "grid_sweep",
    "kam_truncation",
    "rabi_rt1_chain",
    "rabi_rt2_chain",
    "rt2_iterated_chain",
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

CLOSED_FORM_METHODS = frozenset({"jc", "rt2", "strong_avg", "strong_rt"})

# Methods built on the dressed ladder, which assumes omega0 = omega.
_ONE_PHOTON_METHODS = frozenset({"jc", "rt1", "rt1_kam", "rt2", "rt_full_kam"})

BRANCH_UNASSIGNED = "unassigned"

# Label codes of the exact oracle and the chains: 1 marks the odd block.
_EXACT_LABELS = ((BRANCH_UNASSIGNED, PARITY_EVEN), (BRANCH_UNASSIGNED, PARITY_ODD))

# Cluster tolerance for physically near-degenerate reference levels, as a
# fraction of omega (avoided crossings swept through by the coupling grid).
PHYSICAL_CLUSTER_FRACTION = 1e-3

# Traced peak of a closed-form block per (coupling, slot) entry, in float64
# values (tracemalloc of one-stack sweeps at 2 to 40 levels: 3.7 to 5.1, and
# 5.4 to 6.1 for strong_rt).
_CLOSED_FORM_PEAK = 7

# Traced peak of a stack of chain operators per coupling, in (dim, dim)
# float64 matrices (tracemalloc: at most 3.5 at 12 and 40 levels, in the
# chain build's pair rotation and the KAM step on a parity block).
_CHAIN_PEAK = 4

# Traced peak of the exact oracle per coupling, in its blocks' leading boxes (1.0 to 1.5).
_EXACT_PEAK = 2

# Bytes a stack of couplings may reach at its peak, so that a sweep's memory
# does not grow with its grid: 36 chain couplings at 12 levels (dim 30),
# keeping a CLI run's peak RSS where stacks of 6 had it, 4 at 40 levels
# (dim 86), and 167 to 183 closed-form couplings at 40 levels and g <= 1.5.
_STACK_BYTES = 1 << 20


def kam_truncation(n_levels: int) -> TruncationConfig:
    """Small Fock box for contact-iteration refinements: the requested level
    count plus a two-photon margin."""
    return TruncationConfig(n_max=n_levels + 2)


def _closed_form_count(g: float, omega: float, n_levels: int) -> int:
    """Photon range that provably contains the lowest ``n_levels`` closed-form
    energies: beyond g^2/(4 omega^2) every branch is increasing in n."""
    ratio = g / omega
    return n_levels + math.ceil(ratio * ratio + 4.0 * ratio) + 8


def _run_stacks(method, omega, omega0, grid, n_levels, admit, solve, labels=_EXACT_LABELS):
    """``method``'s :class:`MethodSweep` over ``grid``, from ``solve`` on
    stacks of its admitted couplings, in grid order.

    A negative or non-finite g records its ModelParams error, any other g
    the ValueError or OverflowError of ``admit(g)``, which else returns the
    coupling's peak bytes; a stack holds as many couplings as fit
    ``_STACK_BYTES`` at its own largest cost.  ``solve(couplings)`` returns
    its rows' energies, codes into ``labels`` (which it may fill) and errors
    by row, or raises :class:`CouplingErrors`: those rows leave the stack,
    and the rest of it runs again.  Any other exception of a stack (a table
    too large to allocate, one LAPACK call that fails for all of it) sends
    each of its couplings through ``solve`` alone.
    """
    grid = np.asarray(grid, dtype=float)
    energies = np.full((grid.size, n_levels), np.nan)
    codes = np.zeros((grid.size, n_levels), dtype=np.intp)
    errors: list = [None] * grid.size
    cost = {}
    valid = (np.isfinite(grid) & (grid >= 0)).tolist()  # a ModelParams only where g fails
    for i, (g, ok) in enumerate(zip(grid.tolist(), valid)):
        try:
            if not ok:
                ModelParams(omega, omega0, g)
            cost[i] = admit(g)
        except (ValueError, OverflowError) as exc:
            errors[i] = exc
    stacks, peak = [], 0
    for i, size in cost.items():
        peak = max(peak, size)
        if not stacks or (len(stacks[-1]) + 1) * peak > _STACK_BYTES:
            stacks.append([])
            peak = size
        stacks[-1].append(i)
    pending = stacks[::-1]
    while pending:
        stack = pending.pop()
        try:
            values, rows, failed = solve(grid[stack])
            # a table may hold fewer than n_levels slots; its rows then fail
            energies[stack, :values.shape[1]], codes[stack, :rows.shape[1]] = values, rows
        except CouplingErrors as exc:
            failed = exc.errors
            if len(failed) < len(stack):
                pending.append([i for row, i in enumerate(stack) if row not in failed])
        except Exception as exc:
            if len(stack) > 1:
                pending.extend([i] for i in reversed(stack))
                continue
            failed = {0: exc}
        for row, exc in failed.items():
            errors[stack[row]] = exc
    return MethodSweep(method, energies, tuple(labels), codes, tuple(errors))


def _lowest(values, usable, n_levels: int, why: str, key=None):
    """Each row's lowest ``n_levels`` usable ``values`` in (energy, ``key``)
    order, ties in column order: their values and columns, and the
    ValueError of each row (by row) where fewer are usable."""
    values = np.where(usable, values, np.inf)
    keys = (values,) if key is None else (np.broadcast_to(key, values.shape), values)
    order = np.lexsort(keys, axis=-1)[:, :n_levels]
    available = usable.sum(axis=-1)
    short = {
        row: ValueError(f"requested {n_levels} levels but only {available[row]} {why}")
        for row in np.flatnonzero(available < n_levels).tolist()
    }
    return np.take_along_axis(values, order, -1), order, short


def _table_sweep(
    method: str, form: str, omega: float, omega0: float, grid, n_levels: int,
    n_max: int | None = None,
) -> MethodSweep:
    """``method``'s levels read off the closed form ``form``, from one table
    evaluation per stack of couplings.  With ``n_max`` (rt1 on the jc
    ladder) only photon numbers up to ``n_max - 1`` count and every branch
    is unassigned.  A coupling whose photon range holds too few levels, that
    the table cannot represent (g / omega out of range), or whose levels are
    not all finite records its error.
    """
    top = math.inf if n_max is None else n_max - 1
    counts, labels = {}, {}  # photon range by coupling; code by (branch, parity)
    too_few = "are available" if n_max is None else (
        f"survive the guard band (loss_band=1, n_max={n_max})"
    )

    def admit(g):
        counts[g] = count = min(_closed_form_count(g, omega, n_levels), top)
        return _CLOSED_FORM_PEAK * 8 * (2 * count + 2)  # at most 2 * (count + 1) slots

    def solve(couplings):
        count = [counts[g] for g in couplings.tolist()]
        table = closed_form_table(form, omega, omega0, couplings, max(count))
        usable = ~table.spurious & (table.n <= np.array(count)[:, None])
        branches = table.branch if n_max is None else (BRANCH_UNASSIGNED,) * len(table.branch)
        pairs = zip(branches, table.parity)
        slot_codes = np.array([labels.setdefault(pair, len(labels)) for pair in pairs])
        values, order, short = _lowest(table.energies, usable, n_levels, too_few, table.n)
        # not finite where omega * omega underflows to 0
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1)).tolist()
        failed = {row: ArithmeticError("closed form gives a non-finite energy") for row in bad}
        return values, slot_codes[order], failed | short

    return _run_stacks(method, omega, omega0, grid, n_levels, admit, solve, labels)


def rabi_rt1_chain(params, trunc: TruncationConfig) -> TransformedHamiltonian:
    """The stack of one-photon chains of a sequence of ModelParams sharing
    omega and omega0 (one coupling is a sequence of one).  H(g) = H(0) +
    g*(H(1) - H(0)) equals :func:`build_rabi` bit for bit: g enters H only
    as g*sqrt(n)."""
    from . import transforms  # the chain layer, loaded by the first chain

    first, g = transforms._couplings(params)
    free = build_rabi(replace(first, g=0.0), trunc)
    coupling = build_rabi(replace(first, g=1.0), trunc) - free
    h = np.multiply.outer(g, coupling)
    h += free  # built in place: the same bits as free + g*coupling
    return transforms.rt_one_photon(h, params, trunc)


def rabi_rt2_chain(params, trunc: TruncationConfig) -> TransformedHamiltonian:
    from . import transforms

    return transforms.rt_two_photon(rabi_rt1_chain(params, trunc))


def rt2_iterated_chain(params, trunc: TruncationConfig) -> TransformedHamiltonian:
    """One-photon + two-photon reductions followed by one numeric
    transformation of the residual near-degeneracies."""
    from . import transforms

    tol = PHYSICAL_CLUSTER_FRACTION * transforms._couplings(params)[0].omega
    return transforms.generic_numeric_rt(rabi_rt2_chain(params, trunc), tol_deg=tol)


def exact_sweep(
    omega: float, omega0: float, grid, trunc: TruncationConfig, n_levels: int
) -> MethodSweep:
    """The lowest ``n_levels`` exact levels at every coupling of ``grid``:
    :func:`spectrum.exact_spectra` on each stack of :func:`_run_stacks`.

    A coupling records a ValueError where more levels are asked for than
    the guard band validates there, the OverflowError of a guard band beyond
    float range, or its certificate's ArithmeticError.
    """

    def admit(g):
        params = ModelParams(omega, omega0, g)
        valid = validated_level_count(params, trunc)
        if n_levels > valid:
            raise ValueError(
                f"requested {n_levels} levels from dim {trunc.dim}, of which the "
                f"guard band validates {valid}"
            )
        return _EXACT_PEAK * 16 * _leading_box(params, trunc.n_max, n_levels) ** 2

    def solve(couplings):
        return *exact_spectra(omega, omega0, couplings, trunc.n_max, n_levels), {}

    return _run_stacks("exact", omega, omega0, grid, n_levels, admit, solve)


def grid_sweep(
    method: str, omega: float, omega0: float, grid, trunc: TruncationConfig, n_levels: int
) -> MethodSweep:
    """Any registered method over the whole ``grid``, as one array program,
    with the exception each coupling raises on its own recorded in its slot.

    Per stack of couplings that fits the byte budget, the exact oracle is
    one call of :func:`spectrum.exact_spectra` (:func:`exact_sweep`), the
    closed forms and rt1 (from the jc table) one table evaluation, and the
    contact-iteration chains one stack of chain operators (:func:`chain_sweep`).
    An error that holds for the whole grid is raised, for every method: an
    unknown method, ``n_levels < 1``, an invalid omega or omega0, or a
    dressed-ladder method off one-photon resonance.
    """
    if method not in METHOD_ORDER:
        raise ValueError(f"unknown method {method!r}; known: {', '.join(METHOD_ORDER)}")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
    ModelParams(omega, omega0, 0.0)  # raises what fails omega or omega0
    if method in _ONE_PHOTON_METHODS:
        require_one_photon_resonance(omega, omega0)
    if method == "exact":
        return exact_sweep(omega, omega0, grid, trunc, n_levels)
    if method in CLOSED_FORM_METHODS:
        return _table_sweep(method, method, omega, omega0, grid, n_levels)
    if method == "rt1":
        return _table_sweep("rt1", "jc", omega, omega0, grid, n_levels, trunc.n_max)
    return chain_sweep(method, omega, omega0, grid, n_levels)


_CHAINS = {"rt1_kam": rabi_rt1_chain, "rt_full_kam": rt2_iterated_chain}


def chain_sweep(method: str, omega: float, omega0: float, grid, n_levels: int) -> MethodSweep:
    """The lowest ``n_levels`` levels of a contact-iteration chain (rt1_kam
    or rt_full_kam) at every coupling of ``grid``.

    Each stack of couplings (:func:`_run_stacks`, at ``_CHAIN_PEAK``
    matrices per coupling) is one stack of chain operators, reduced and
    refined by one array program; no coupling's values depend on its stack.
    """
    from . import kam, transforms  # noqa: F401  (the chain layer, before any stack)

    trunc = kam_truncation(n_levels)
    peak = _CHAIN_PEAK * 8 * trunc.dim**2
    build = _CHAINS[method]

    def solve(couplings):
        params = tuple(ModelParams(omega, omega0, g) for g in couplings.tolist())
        # no reference to the chain is kept here, so _kam_levels frees its operator
        return _kam_levels(build(params, trunc), omega, n_levels)

    return _run_stacks(method, omega, omega0, grid, n_levels, lambda g: peak, solve)


def _kam_levels(
    th: TransformedHamiltonian, omega: float, n_levels: int
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """The levels of a stack of chains after one contact-iteration step.

    A chain operator is parity block-diagonal: its slots of sign +1 and of
    sign -1 (``th.parity``) are two blocks, and its sign-0 slots are its
    kernel slots.  Each block is refined on its own, and its levels carry its
    label.  A level whose largest eigenvector slot lies in the top
    ``loss_band`` photon rows is dropped.  A coupling whose operator has a
    nonzero entry outside the two blocks raises ArithmeticError.

    Returns the lowest ``n_levels`` energies and their label codes into
    ``_EXACT_LABELS`` per coupling (even before odd on exact ties), and the
    ValueError of each coupling (by stack row) where fewer levels survive.
    """
    from . import kam

    same = th.parity[:, :, None] * th.parity[:, None, :] == 1.0
    dropped = np.abs(np.where(same, 0.0, th.operator)).max(axis=(-2, -1))
    check_rows(dropped != 0.0, lambda r: ArithmeticError(
        f"chain operator couples parity blocks (largest dropped entry {dropped[r]:.3e})"))
    each = np.arange(th.operator.shape[0])[:, None]
    slots = [np.nonzero(th.parity == sign)[1].reshape(each.size, -1) for sign in (1.0, -1.0)]
    blocks = [th.operator[each[:, :, None], s[:, :, None], s[:, None, :]] for s in slots]
    levels, loss_band, n_max = th.levels, th.loss_band, th.trunc.n_max
    del th, same  # the blocks are all that is kept of the chain operator
    values, usable = [], []
    for s in slots:
        block = blocks.pop(0)  # freed once refined; the perturbation, in place
        span = np.arange(s.shape[1])
        block[:, span, span] -= levels[each, s]
        chain = kam.kam_iterate_full(levels[each, s], block, max_steps=1,
                                     tol_deg=PHYSICAL_CLUSTER_FRACTION * omega)
        photon = s[each, np.argmax(np.abs(chain.vectors), axis=1)] // 2
        values.append(chain.estimate)
        usable.append(photon <= n_max - loss_band)
        del chain
    odd = values[0].shape[1]  # the first odd slot of [even | odd]
    values, order, short = _lowest(
        np.concatenate(values, 1), np.concatenate(usable, 1), n_levels,
        f"survive the guard band (loss_band={loss_band}, n_max={n_max})",
    )
    return values, (order >= odd).astype(np.intp), short
