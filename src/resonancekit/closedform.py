"""Analytic spectra and special functions, evaluated directly from formulas.

Branch-sign conventions (see README table): the weak-coupling ladder carries
E = omega*n +/- g*sqrt(n) with "+" the upper branch; the strong-coupling
average carries E = omega*(n+1/2) - g^2/omega -/+ (omega0/2)*f_n, i.e. the
"+" branch takes the minus sign there.  Parity labels are those obtained by
conjugating the parity operator through the corresponding transformation
chain; for every method except strong_avg a level with photon-like index n
has parity (-1)^(n+1).

Each closed form is written once, as an array program over a grid of
couplings (``closed_form_table``); a single coupling is a one-element grid.
Every operation is a numpy one (``np.exp``, ``np.hypot`` and ``np.square``
included), and numpy gives a scalar the bits it gives an array element, so
the arrays agree bit for bit with a scalar evaluation by the same numpy
functions in the same operation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClosedFormTable",
    "ResonanceLocus",
    "laguerre_table",
    "closed_form_table",
    "resonance_loci",
    "second_order_locus",
    "rt2_mixing_angle",
    "require_one_photon_resonance",
]

from .spectrum import PARITY_EVEN, PARITY_ODD


@dataclass(frozen=True)
class ClosedFormTable:
    """One closed form over a coupling grid.

    Slot s has the static labels ``n[s]``, ``branch[s]``, ``parity[s]`` and
    ``spurious[s]``; ``energies[i, s]`` is its energy at the i-th coupling.
    """

    n: np.ndarray
    branch: tuple[str, ...]
    parity: tuple[str, ...]
    spurious: np.ndarray
    energies: np.ndarray


@dataclass(frozen=True)
class ResonanceLocus:
    """Coupling value where the dressed ladder degenerates.

    kind "active": pair (n,+)/(n+2,-) at g = 2*omega/(sqrt(n)+sqrt(n+2)), the
    perturbation couples the pair.  kind "mute": pair (n,+)/(n+1,-) at
    g = omega/(sqrt(n)+sqrt(n+1)), coupling forbidden by parity.
    """

    n: int
    g: float
    kind: str  # "active" | "mute"


def laguerre_table(n: int, alpha, x) -> np.ndarray:
    """L_0^(alpha)(x), ..., L_n^(alpha)(x) stacked on a new leading axis.

    ``alpha`` (non-negative integers) and ``x`` are arrays that broadcast
    together, by the stable three-term recurrence
    (k+1) L_{k+1} = (2k+alpha+1-x) L_k - (k+alpha) L_{k-1}.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    alpha = np.asarray(alpha)
    if np.any(alpha < 0):
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    x = np.asarray(x, dtype=float)
    out = np.empty((n + 1,) + np.broadcast_shapes(alpha.shape, x.shape))
    out[0] = 1.0
    if n >= 1:
        out[1] = 1.0 + alpha - x
    for k in range(1, n):
        out[k + 1] = ((2 * k + alpha + 1 - x) * out[k] - (k + alpha) * out[k - 1]) / (k + 1)
    return out


def require_one_photon_resonance(omega: float, omega0: float) -> None:
    """The dressed-ladder constructions assume omega0 = omega exactly."""
    if not abs(omega - omega0) <= 1e-12 * omega:
        raise ValueError(
            "one-photon-resonance methods require omega0 = omega; "
            f"got omega={omega}, omega0={omega0}"
        )


def _ladder_parity(n: int) -> str:
    # conjugated parity of a dressed level with photon-like index n
    return PARITY_EVEN if n % 2 == 1 else PARITY_ODD


def _table(head, head_energies, ladder_n, upper, lower, lower_parity) -> ClosedFormTable:
    """Slots ``head`` (n, branch, parity, spurious), then a (n,+), (n,-) pair
    for each n of ``ladder_n``; the energy columns follow the same order."""
    slots = list(head)
    for k in ladder_n:
        slots.append((k, "+", _ladder_parity(k), False))
        slots.append((k, "-", lower_parity(k), False))
    energies = np.empty((upper.shape[0], len(slots)))
    for s, column in enumerate(head_energies):
        energies[:, s] = column
    energies[:, len(head)::2] = upper
    energies[:, len(head) + 1::2] = lower
    n, branch, parity, spurious = zip(*slots)
    return ClosedFormTable(
        n=np.array(n, dtype=int),
        branch=branch,
        parity=parity,
        spurious=np.array(spurious, dtype=bool),
        energies=energies,
    )


def _jc_table(w, w0, g, n_levels) -> ClosedFormTable:
    """Dressed one-photon ladder E = omega*n +/- g*sqrt(n) for n = 0..n_levels.

    The n = 0 "+" slot is the spurious zero introduced by the photon-shift
    isometry; the physical n = 0 level sits in the "-" slot.
    """
    require_one_photon_resonance(w, w0)
    n = np.arange(1, n_levels + 1)
    root = g[:, None] * np.sqrt(n)
    head = ((0, "+", _ladder_parity(0), True), (0, "-", _ladder_parity(0), False))
    return _table(head, (0.0, 0.0), n.tolist(), w * n + root, w * n - root, _ladder_parity)


def _rt2_table(w, w0, g, n_levels) -> ClosedFormTable:
    """Ladder after the combined two-photon transformation.

    Special sectors: the mixed (0,2,-) pair E = w - g/sqrt(2) -/+
    (1/2)sqrt((2w - g sqrt(2))^2 + 2 g^2); the lone (1,-) level E = w - g; and
    three spurious zeros at the (0,+), (1,+), (2,+) kernel slots.  For n >= 3,
    E = w(n-1) + (g/2)(sqrt(n-2) - sqrt(n))
        +/- (1/2)sqrt((-2w + g(sqrt(n-2)+sqrt(n)))^2 + g^2 (n-1)).
    """
    require_one_photon_resonance(w, w0)
    half_split = 0.5 * np.sqrt(np.square(2.0 * w - g * math.sqrt(2.0)) + 2.0 * g * g)
    center = w - g / math.sqrt(2.0)
    head = (
        (0, "+", _ladder_parity(0), True),
        (1, "+", _ladder_parity(1), True),
        (2, "+", _ladder_parity(2), True),
        (0, "-", PARITY_ODD, False),
        (2, "-", PARITY_ODD, False),
        (1, "-", _ladder_parity(1), False),
    )
    head_energies = (0.0, 0.0, 0.0, center - half_split, center + half_split, w - g)
    n = np.arange(3, n_levels + 1)
    gc = g[:, None]
    mid = w * (n - 1) + 0.5 * gc * (np.sqrt(n - 2) - np.sqrt(n))
    half = 0.5 * np.sqrt(
        np.square(-2.0 * w + gc * (np.sqrt(n - 2) + np.sqrt(n))) + gc * gc * (n - 1)
    )
    return _table(head, head_energies, n.tolist(), mid + half, mid - half, _ladder_parity)


def _strong_avg_table(w, w0, g, n_levels) -> ClosedFormTable:
    """Displaced-oscillator average: E = w(n+1/2) - g^2/w -/+ (w0/2) f_n.

    The "+" branch takes the minus sign.  Valid for any omega0.  Parity:
    the "+" slot carries (-1)^(n+1), the "-" slot (-1)^n.
    """
    r = 2.0 * g / w
    damp = np.exp(-0.5 * r * r)[:, None]
    f = damp * laguerre_table(n_levels, 0, r * r).T
    n = np.arange(n_levels + 1)
    gc = g[:, None]
    base = w * (n + 0.5) - gc * gc / w
    split = 0.5 * w0 * f
    return _table(
        (), (), n.tolist(), base - split, base + split,
        lambda k: PARITY_EVEN if k % 2 == 0 else PARITY_ODD,
    )


def _strong_rt_table(w, w0, g, n_levels) -> ClosedFormTable:
    """Displaced ladder after the zero-field resonance transformation.

    E_(0,+) = w/2 - g^2/w - (w0/2) exp(-2g^2/w^2); the (0,-) slot is the
    spurious zero.  For n >= 1 the two branches come from the 2x2 block
    mixing the n-th displaced pair:

        E_(n,+/-) = n w - g^2/w - (w0/4) e^(-2g^2/w^2) (L_n - L_{n-1})
                    +/- (1/2) sqrt(h^2 + c^2),
        h = w - (w0/2) e^(-2g^2/w^2) (L_n + L_{n-1}),
        c = (w0/w) (2g/sqrt(n)) e^(-2g^2/w^2) L^(1)_{n-1},

    all Laguerre polynomials evaluated at 4g^2/w^2.  At g = 0 this reduces to
    the doubly degenerate ladder {n w, n w} (at resonance), exact because the
    zero-field resonance has been treated non-perturbatively.
    """
    x = (2.0 * g / w) ** 2  # not 4g^2 / (w*w): w*w underflows for w below 1e-154
    damp = np.exp(-0.5 * x)
    lag = laguerre_table(n_levels, np.array([[0], [1]]), x)
    l0, l1 = lag[:, 0].T, lag[:, 1].T
    head = ((0, "-", _ladder_parity(0), True), (0, "+", _ladder_parity(0), False))
    head_energies = (0.0, 0.5 * w - g * g / w - 0.5 * w0 * damp)
    n = np.arange(1, n_levels + 1)
    gc, damp = g[:, None], damp[:, None]
    l_n, l_nm1, l1_nm1 = l0[:, 1:], l0[:, :-1], l1[:, :-1]
    mid = n * w - gc * gc / w - 0.25 * w0 * damp * (l_n - l_nm1)
    h = w - 0.5 * w0 * damp * (l_n + l_nm1)
    c = (w0 / w) * (2.0 * gc / np.sqrt(n)) * damp * l1_nm1
    half = 0.5 * np.hypot(h, c)
    return _table(head, head_energies, n.tolist(), mid + half, mid - half, _ladder_parity)


_TABLES = {
    "jc": _jc_table,
    "rt2": _rt2_table,
    "strong_avg": _strong_avg_table,
    "strong_rt": _strong_rt_table,
}


def closed_form_table(
    method: str, omega: float, omega0: float, g, n_levels: int
) -> ClosedFormTable:
    """Every slot of the named closed form ("jc", "rt2", "strong_avg" or
    "strong_rt") for photon-like index n = 0..n_levels at each coupling of the
    1-D grid ``g``; the formulas are in the docstrings of the ``_*_table``
    functions."""
    if method not in _TABLES:
        raise ValueError(f"unknown closed form {method!r}; known: {', '.join(_TABLES)}")
    return _TABLES[method](omega, omega0, np.asarray(g, dtype=float), n_levels)


def rt2_mixing_angle(omega: float, g):
    """Angle of the (0,2,-) sector reflection: tan(2 theta) = g*sqrt(2)/(2w - g*sqrt(2)),
    with 0 <= theta < pi/2; one angle per coupling for an array ``g``."""
    root = np.multiply(g, math.sqrt(2.0))
    return 0.5 * np.arctan2(root, 2.0 * omega - root)


def resonance_loci(n_range, omega: float) -> list[ResonanceLocus]:
    """Degeneracy loci of the dressed ladder for each n in n_range.

    Active: g_n = 2w/(sqrt(n)+sqrt(n+2)), pair (n,+)/(n+2,-), coupled.
    Mute: g'_n = w/(sqrt(n)+sqrt(n+1)), pair (n,+)/(n+1,-), parity-forbidden.
    g_n decreases monotonically to 0: high ladder rungs degenerate at
    arbitrarily small coupling.
    """
    out = []
    for n in n_range:
        if n < 0:
            raise ValueError(f"locus index must be >= 0, got {n}")
        out.append(
            ResonanceLocus(n, 2.0 * omega / (math.sqrt(n) + math.sqrt(n + 2)), "active")
        )
        out.append(
            ResonanceLocus(n, omega / (math.sqrt(n) + math.sqrt(n + 1)), "mute")
        )
    return out


def second_order_locus(n: int, omega: float) -> float:
    """Active locus of pair (n,+)/(n+2,-) on the second-order dressed ladder.

    Averaging the counter-rotating term once over the Jaynes-Cummings
    reference (energy denominators 2*omega) dresses the ladder to

        E(n,+/-) = n w - g^2/(2w) +/- g sqrt(n) sqrt(1 + n g^2/(4w^2)),

    with an error of O(g^3).  The uniform -g^2/(2w) cancels in every crossing; the
    differential Bloch-Siegert factor moves the crossing E(n,+) = E(n+2,-)
    below the first-order locus g_n of resonance_loci.  In u = g/w it is the
    root of u (sqrt(n(1 + n u^2/4)) + sqrt((n+2)(1 + (n+2) u^2/4))) = 2,
    whose left side increases with u and exceeds 2 at u = g_n/w, so bisection
    on (0, g_n/w] brackets it.
    """
    if n < 0:
        raise ValueError(f"locus index must be >= 0, got {n}")

    def excess(u: float) -> float:
        return u * (
            math.sqrt(n * (1.0 + 0.25 * n * u * u))
            + math.sqrt((n + 2) * (1.0 + 0.25 * (n + 2) * u * u))
        ) - 2.0

    lo, hi = 0.0, 2.0 / (math.sqrt(n) + math.sqrt(n + 2))
    mid = 0.5 * hi
    while lo < mid < hi:
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return omega * mid
