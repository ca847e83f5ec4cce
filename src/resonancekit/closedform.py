"""Analytic spectra and special functions, evaluated directly from formulas.

Branch-sign conventions (see README table): the weak-coupling ladder carries
E = omega*n +/- g*sqrt(n) with "+" the upper branch; the strong-coupling
average carries E = omega*(n+1/2) - g^2/omega -/+ (omega0/2)*f_n, i.e. the
"+" branch takes the minus sign there.  Parity labels are those obtained by
conjugating the parity operator through the corresponding transformation
chain; for every method except strong_avg a level with photon-like index n
has parity (-1)^(n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ClosedFormLevel",
    "ResonanceLocus",
    "laguerre",
    "f_laguerre",
    "jc_spectrum",
    "rt2_spectrum",
    "strong_avg_spectrum",
    "strong_rt_spectrum",
    "displacement_element",
    "resonance_loci",
    "second_order_locus",
    "rt2_mixing_angle",
    "require_one_photon_resonance",
]

from .operators import ModelParams
from .spectrum import PARITY_EVEN, PARITY_ODD


@dataclass(frozen=True)
class ClosedFormLevel:
    """One analytic level: photon-like index, branch, energy, parity label."""

    n: int
    branch: str  # "+", "-"
    energy: float
    method: str  # "jc", "rt2", "strong_avg", "strong_rt"
    parity: str
    spurious: bool = False


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


def laguerre(n: int, alpha: int, x: float) -> float:
    """Generalized Laguerre polynomial L_n^(alpha)(x) by the stable three-term
    recurrence (k+1) L_{k+1} = (2k+alpha+1-x) L_k - (k+alpha) L_{k-1}."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if n == 0:
        return 1.0
    prev = 1.0
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + alpha + 1 - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def f_laguerre(n: int, params: ModelParams) -> float:
    """Diagonal displacement element f_n = exp(-2g^2/w^2) L_n(4g^2/w^2)."""
    r = 2.0 * params.g / params.omega
    return math.exp(-0.5 * r * r) * laguerre(n, 0, r * r)


def displacement_element(m: int, n: int, params: ModelParams, sign: int = +1) -> float:
    """<m| exp(sign * (2g/omega)(a^dag - a)) |n>.

    For m >= n this is sqrt(n!/m!) (sign*2g/omega)^(m-n) exp(-2g^2/omega^2)
    L_n^(m-n)(4g^2/omega^2); for m < n the adjoint symmetry flips the sign.
    Factorial ratios go through log-gamma so large m, n cannot overflow.
    """
    if m < 0 or n < 0:
        raise ValueError("m, n must be >= 0")
    if m < n:
        return displacement_element(n, m, params, -sign)
    r = 2.0 * params.g / params.omega
    if r == 0.0:
        return 1.0 if m == n else 0.0
    k = m - n
    log_amp = 0.5 * (math.lgamma(n + 1) - math.lgamma(m + 1)) + k * math.log(r) - 0.5 * r * r
    return (1.0 if sign > 0 else (-1.0) ** k) * math.exp(log_amp) * laguerre(n, k, r * r)


def require_one_photon_resonance(params: ModelParams) -> None:
    """The dressed-ladder constructions assume omega0 = omega exactly."""
    if not abs(params.omega - params.omega0) <= 1e-12 * params.omega:
        raise ValueError(
            "one-photon-resonance methods require omega0 = omega; "
            f"got omega={params.omega}, omega0={params.omega0}"
        )


def _ladder_parity(n: int) -> str:
    # conjugated parity of a dressed level with photon-like index n
    return PARITY_EVEN if n % 2 == 1 else PARITY_ODD


def jc_spectrum(params: ModelParams, n_levels: int) -> list[ClosedFormLevel]:
    """Dressed one-photon ladder E = omega*n +/- g*sqrt(n) for n = 0..n_levels.

    The n = 0 "+" slot is the spurious zero introduced by the photon-shift
    isometry; the physical n = 0 level sits in the "-" slot.
    """
    require_one_photon_resonance(params)
    w, g = params.omega, params.g
    out = [
        ClosedFormLevel(0, "+", 0.0, "jc", _ladder_parity(0), spurious=True),
        ClosedFormLevel(0, "-", 0.0, "jc", _ladder_parity(0)),
    ]
    for n in range(1, n_levels + 1):
        root = g * math.sqrt(n)
        out.append(ClosedFormLevel(n, "+", w * n + root, "jc", _ladder_parity(n)))
        out.append(ClosedFormLevel(n, "-", w * n - root, "jc", _ladder_parity(n)))
    return out


def rt2_mixing_angle(omega: float, g: float) -> float:
    """Angle of the (0,2,-) sector reflection: tan(2 theta) = g*sqrt(2)/(2w - g*sqrt(2)),
    with 0 <= theta < pi/2."""
    return 0.5 * math.atan2(g * math.sqrt(2.0), 2.0 * omega - g * math.sqrt(2.0))


def rt2_spectrum(params: ModelParams, n_levels: int) -> list[ClosedFormLevel]:
    """Ladder after the combined two-photon transformation.

    Special sectors: the mixed (0,2,-) pair E = w - g/sqrt(2) -/+
    (1/2)sqrt((2w - g sqrt(2))^2 + 2 g^2); the lone (1,-) level E = w - g; and
    three spurious zeros at the (0,+), (1,+), (2,+) kernel slots.  For n >= 3,
    E = w(n-1) + (g/2)(sqrt(n-2) - sqrt(n))
        +/- (1/2)sqrt((-2w + g(sqrt(n-2)+sqrt(n)))^2 + g^2 (n-1)).
    """
    require_one_photon_resonance(params)
    w, g = params.omega, params.g
    half_split = 0.5 * math.sqrt((2.0 * w - g * math.sqrt(2.0)) ** 2 + 2.0 * g * g)
    center = w - g / math.sqrt(2.0)
    out = [
        ClosedFormLevel(0, "+", 0.0, "rt2", _ladder_parity(0), spurious=True),
        ClosedFormLevel(1, "+", 0.0, "rt2", _ladder_parity(1), spurious=True),
        ClosedFormLevel(2, "+", 0.0, "rt2", _ladder_parity(2), spurious=True),
        ClosedFormLevel(0, "-", center - half_split, "rt2", PARITY_ODD),
        ClosedFormLevel(2, "-", center + half_split, "rt2", PARITY_ODD),
        ClosedFormLevel(1, "-", w - g, "rt2", _ladder_parity(1)),
    ]
    for n in range(3, n_levels + 1):
        mid = w * (n - 1) + 0.5 * g * (math.sqrt(n - 2) - math.sqrt(n))
        half = 0.5 * math.sqrt(
            (-2.0 * w + g * (math.sqrt(n - 2) + math.sqrt(n))) ** 2 + g * g * (n - 1)
        )
        out.append(ClosedFormLevel(n, "+", mid + half, "rt2", _ladder_parity(n)))
        out.append(ClosedFormLevel(n, "-", mid - half, "rt2", _ladder_parity(n)))
    return out


def strong_avg_spectrum(params: ModelParams, n_levels: int) -> list[ClosedFormLevel]:
    """Displaced-oscillator average: E = w(n+1/2) - g^2/w -/+ (w0/2) f_n.

    The "+" branch takes the minus sign.  Valid for any omega0.  Parity:
    the "+" slot carries (-1)^(n+1), the "-" slot (-1)^n.
    """
    w, w0, g = params.omega, params.omega0, params.g
    out = []
    for n in range(n_levels + 1):
        base = w * (n + 0.5) - g * g / w
        split = 0.5 * w0 * f_laguerre(n, params)
        out.append(
            ClosedFormLevel(n, "+", base - split, "strong_avg", _ladder_parity(n))
        )
        out.append(
            ClosedFormLevel(
                n, "-", base + split, "strong_avg",
                PARITY_EVEN if n % 2 == 0 else PARITY_ODD,
            )
        )
    return out


def strong_rt_spectrum(params: ModelParams, n_levels: int) -> list[ClosedFormLevel]:
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
    w, w0, g = params.omega, params.omega0, params.g
    x = 4.0 * g * g / (w * w)
    damp = math.exp(-0.5 * x)
    out = [
        ClosedFormLevel(0, "-", 0.0, "strong_rt", _ladder_parity(0), spurious=True),
        ClosedFormLevel(
            0, "+", 0.5 * w - g * g / w - 0.5 * w0 * damp, "strong_rt", _ladder_parity(0)
        ),
    ]
    for n in range(1, n_levels + 1):
        l_n = laguerre(n, 0, x)
        l_nm1 = laguerre(n - 1, 0, x)
        l1_nm1 = laguerre(n - 1, 1, x)
        mid = n * w - g * g / w - 0.25 * w0 * damp * (l_n - l_nm1)
        h = w - 0.5 * w0 * damp * (l_n + l_nm1)
        c = (w0 / w) * (2.0 * g / math.sqrt(n)) * damp * l1_nm1
        half = 0.5 * math.hypot(h, c)
        out.append(ClosedFormLevel(n, "+", mid + half, "strong_rt", _ladder_parity(n)))
        out.append(ClosedFormLevel(n, "-", mid - half, "strong_rt", _ladder_parity(n)))
    return out


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
