"""Registry of spectrum-computation methods used by sweeps and comparisons.

Every method maps (params, trunc, n_levels) to the same shape of output: the
lowest physical levels in ascending energy order, without the spurious kernel
zeros (a chain's sign-0 parity slots, a closed form's spurious slots), each
level carrying a branch tag (closed forms only), a parity label, and its
energy.  The exact oracle and the contact-iteration chains label a level by
the parity block it was solved in; closed forms carry analytic labels.  No
method emits guard-band levels.

Every method answers a whole coupling grid as one array program
(:func:`grid_sweep`): the closed forms and rt1 from table evaluations, the
exact oracle from boxes of its parity blocks, and the contact-iteration
chains from stacks of chain operators, every stack sized by a byte budget.
A coupling that fails records its own exception; the others go on.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closedform import closed_form_table
from .kam import kam_iterate_full
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
    _boxes,
    check_rows,
    exact_spectra,
)
from .transforms import (
    TransformedHamiltonian,
    _couplings,
    generic_numeric_rt,
    rt_one_photon,
    rt_two_photon,
)

__all__ = [
    "METHOD_ORDER",
    "CLOSED_FORM_METHODS",
    "BRANCH_UNASSIGNED",
    "MethodLevel",
    "chain_sweep",
    "exact_sweep",
    "grid_sweep",
    "compute_levels",
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

BRANCH_UNASSIGNED = "unassigned"

# Label codes of the exact oracle and the chains: 1 marks the odd block.
_EXACT_LABELS = ((BRANCH_UNASSIGNED, PARITY_EVEN), (BRANCH_UNASSIGNED, PARITY_ODD))

# Cluster tolerance for physically near-degenerate reference levels, as a
# fraction of omega (avoided crossings swept through by the coupling grid).
PHYSICAL_CLUSTER_FRACTION = 1e-3

# Traced peak of a closed-form block per (coupling, slot) entry, in float64
# values (tracemalloc at 40 levels: 4.3 to 5.6, and 9.2 for strong_rt).
_CLOSED_FORM_PEAK = 10

# Traced peak of a stack of chain operators per coupling, in (dim, dim)
# float64 matrices (tracemalloc: at most 3.5 at 12 and 40 levels, in the
# chain build's pair rotation and the KAM step on a parity block).
_CHAIN_PEAK = 4

# Traced peak of the exact oracle per coupling, in its blocks' leading boxes (1.0 to 1.5).
_EXACT_PEAK = 2

# Bytes a stack of couplings may reach at its peak, so that a sweep's memory
# does not grow with its grid: 36 chain couplings at 12 levels (dim 30),
# keeping a CLI run's peak RSS where stacks of 6 had it, 4 at 40 levels
# (dim 86), and 112 to 131 closed-form couplings at 40 levels and g <= 1.5.
_STACK_BYTES = 1 << 20


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


def _run_stacks(cost: dict, solve, errors: list) -> None:
    """Run ``solve`` on stacks of the couplings of ``cost``, in grid order,
    recording each coupling's exception in ``errors``.

    ``cost[i]`` is coupling i's peak bytes; a stack holds as many couplings
    as fit ``_STACK_BYTES`` at its own largest cost.  ``solve(stack)``
    returns the errors of its rows, or raises :class:`CouplingErrors`:
    those rows leave the stack, and the rest of it runs again.  Any other
    exception of a stack (a table too large to allocate, an invalid
    coupling, one LAPACK call that fails for all of it) sends each of its
    couplings through ``solve`` alone, so it is recorded only where raised.
    """
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
            failed = solve(stack)
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


def _table_sweep(
    method: str, form: str, omega: float, omega0: float, grid, n_levels: int,
    n_max: int | None = None,
) -> MethodSweep:
    """``method``'s levels read off the closed form ``form``, from one table
    evaluation per stack of couplings.  With ``n_max`` (rt1 on the jc
    ladder) only photon numbers up to ``n_max - 1`` count and every branch
    is unassigned.  A coupling whose photon range holds too few levels, that
    the table cannot represent (g / omega out of range), or whose levels are
    not all finite records its error; an error of the whole grid (off
    one-photon resonance) is raised.
    """
    grid = np.asarray(grid, dtype=float)
    closed_form_table(form, omega, omega0, grid[:0], 0)  # raises what fails the whole grid
    top = math.inf if n_max is None else n_max - 1
    errors: list = [None] * grid.size
    counts = {}
    for i, g in enumerate(grid.tolist()):
        try:
            counts[i] = min(_closed_form_count(g, omega, n_levels), top)
        except (OverflowError, ValueError) as exc:  # g / omega beyond float range, or NaN
            errors[i] = exc
    energies = np.full((grid.size, n_levels), np.inf)
    codes = np.zeros((grid.size, n_levels), dtype=np.intp)
    labels: dict[tuple[str, str], int] = {}
    too_few = "are available" if n_max is None else (
        f"survive the guard band (loss_band=1, n_max={n_max})"
    )

    def solve(block):
        table = closed_form_table(form, omega, omega0, grid[block], max(counts[i] for i in block))
        usable = ~table.spurious & (table.n <= np.array([counts[i] for i in block])[:, None])
        values = np.where(usable, table.energies, np.inf)
        # (energy, n) order, ties kept in slot order
        order = np.lexsort((np.broadcast_to(table.n, values.shape), values), axis=-1)[:, :n_levels]
        branches = table.branch if n_max is None else (BRANCH_UNASSIGNED,) * len(table.branch)
        pairs = zip(branches, table.parity)
        slot_codes = np.array([labels.setdefault(pair, len(labels)) for pair in pairs])
        picked = np.take_along_axis(values, order, axis=1)
        energies[block, :order.shape[1]] = picked
        codes[block, :order.shape[1]] = slot_codes[order]
        available, finite = usable.sum(axis=1), np.isfinite(picked).all(axis=1)
        return {
            row: ValueError(f"requested {n_levels} levels but only {available[row]} {too_few}")
            if available[row] < n_levels  # else non-finite: omega * omega may underflow to 0
            else ArithmeticError("closed form gives a non-finite energy")
            for row in np.flatnonzero((available < n_levels) | ~finite).tolist()
        }

    # at most 2 * (count + 1) slots per coupling
    cost = {i: _CLOSED_FORM_PEAK * 8 * (2 * count + 2) for i, count in counts.items()}
    _run_stacks(cost, solve, errors)
    return MethodSweep(method, energies, tuple(labels), codes, tuple(errors))


def rabi_rt1_chain(params, trunc: TruncationConfig) -> TransformedHamiltonian:
    """The stack of one-photon chains of a sequence of ModelParams sharing
    omega and omega0 (one coupling is a sequence of one).  H(g) = H(0) +
    g*(H(1) - H(0)) equals :func:`build_rabi` bit for bit: g enters H only
    as g*sqrt(n)."""
    first, g = _couplings(params)
    free = build_rabi(replace(first, g=0.0), trunc)
    coupling = build_rabi(replace(first, g=1.0), trunc) - free
    h = np.multiply.outer(g, coupling)
    h += free  # built in place: the same bits as free + g*coupling
    return rt_one_photon(h, params, trunc)


def rabi_rt2_chain(params, trunc: TruncationConfig) -> TransformedHamiltonian:
    return rt_two_photon(rabi_rt1_chain(params, trunc))


def rt2_iterated_chain(params, trunc: TruncationConfig) -> TransformedHamiltonian:
    """One-photon + two-photon reductions followed by one numeric
    transformation of the residual near-degeneracies."""
    tol = PHYSICAL_CLUSTER_FRACTION * _couplings(params)[0].omega
    return generic_numeric_rt(rabi_rt2_chain(params, trunc), tol_deg=tol)


def exact_sweep(
    omega: float, omega0: float, grid, trunc: TruncationConfig, n_levels: int
) -> MethodSweep:
    """The lowest ``n_levels`` exact levels at every coupling of ``grid``:
    :func:`spectrum.exact_spectra` on each stack of :func:`_run_stacks`.

    A coupling records a ValueError where more levels are asked for than
    the guard band validates there, the OverflowError of a guard band beyond
    float range, or its certificate's ArithmeticError.
    """
    grid = np.asarray(grid, dtype=float)
    errors: list = [None] * grid.size
    for i, g in enumerate(grid.tolist()):
        try:
            valid = validated_level_count(ModelParams(omega, omega0, g), trunc)
        except OverflowError as exc:
            errors[i] = exc
            continue
        if n_levels > valid:
            errors[i] = ValueError(
                f"requested {n_levels} levels from dim {trunc.dim}, of which the "
                f"guard band validates {valid}"
            )
    energies = np.full((grid.size, n_levels), np.nan)
    odd = np.zeros((grid.size, n_levels), dtype=np.intp)
    solved = [i for i, exc in enumerate(errors) if exc is None]
    boxes, _ = _boxes(omega, omega0, grid[solved], trunc.n_max, n_levels)

    def solve(stack):
        energies[stack], odd[stack] = exact_spectra(omega, omega0, grid[stack], trunc.n_max, n_levels)
        return {}

    _run_stacks({i: _EXACT_PEAK * 16 * box * box for i, box in zip(solved, boxes)}, solve, errors)
    return MethodSweep("exact", energies, _EXACT_LABELS, odd, tuple(errors))


def grid_sweep(
    method: str, omega: float, omega0: float, grid, trunc: TruncationConfig, n_levels: int
) -> MethodSweep:
    """Any registered method over the whole ``grid``, as one array program,
    with the exception each coupling raises on its own recorded in its slot.

    Per stack of couplings that fits the byte budget, the exact oracle is
    one call of :func:`spectrum.exact_spectra` (:func:`exact_sweep`), the
    closed forms and rt1 (from the jc table) one table evaluation, and the
    contact-iteration chains one stack of chain operators (:func:`chain_sweep`).  An
    error that holds for the whole grid (an unknown method,
    ``n_levels < 1``, a closed form off one-photon resonance) is raised.
    """
    if method not in METHOD_ORDER:
        raise ValueError(f"unknown method {method!r}; known: {', '.join(METHOD_ORDER)}")
    if n_levels < 1:
        raise ValueError("n_levels must be >= 1")
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
    grid = np.asarray(grid, dtype=float)
    trunc = kam_truncation(n_levels)
    energies = np.full((grid.size, n_levels), np.nan)
    codes = np.zeros((grid.size, n_levels), dtype=np.intp)
    errors: list = [None] * grid.size
    build = _CHAINS[method]

    def solve(stack):
        params = tuple(ModelParams(omega, omega0, g) for g in grid[stack].tolist())
        # no reference to the chain is kept here, so _kam_levels frees its operator
        energies[stack], codes[stack], short = _kam_levels(build(params, trunc), omega, n_levels)
        return short

    _run_stacks(dict.fromkeys(range(grid.size), _CHAIN_PEAK * 8 * trunc.dim**2), solve, errors)
    return MethodSweep(method, energies, _EXACT_LABELS, codes, tuple(errors))


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
        reference = np.zeros_like(block)
        reference[:, span, span] = levels[each, s]
        block[:, span, span] -= levels[each, s]
        chain = kam_iterate_full(reference, block, max_steps=1,
                                 tol_deg=PHYSICAL_CLUSTER_FRACTION * omega)
        photon = s[each, np.argmax(np.abs(chain.vectors), axis=1)] // 2
        values.append(chain.estimate)
        usable.append(photon <= n_max - loss_band)
        del chain
    odd = values[0].shape[1]  # the first odd slot of [even | odd]
    values, usable = np.concatenate(values, 1), np.concatenate(usable, 1)
    order = np.argsort(np.where(usable, values, np.inf), axis=-1, kind="stable")[:, :n_levels]
    available = usable.sum(axis=-1)
    short = {
        row: ValueError(
            f"requested {n_levels} levels but only {available[row]} survive the "
            f"guard band (loss_band={loss_band}, n_max={n_max})"
        )
        for row in np.flatnonzero(available < n_levels).tolist()
    }
    return np.take_along_axis(values, order, -1), (order >= odd).astype(np.intp), short


def compute_levels(
    method: str,
    params: ModelParams,
    trunc: TruncationConfig,
    n_levels: int,
) -> list[MethodLevel]:
    """Compute the lowest ``n_levels`` physical levels by the named method:
    a one-point :func:`grid_sweep`, whose recorded error is raised."""
    levels = grid_sweep(method, params.omega, params.omega0, [params.g], trunc, n_levels).point(0)
    if isinstance(levels, Exception):
        raise levels
    return [MethodLevel(i, *level) for i, level in enumerate(levels)]
