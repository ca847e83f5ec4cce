"""Scalar test oracles: the four closed forms written one coupling at a time
in plain Python floats, the per-coupling level selection, the scalar
Laguerre recurrence, and the matrix elements of the displacement operator.

``resonancekit.closedform`` evaluates the same formulas as array programs
over a coupling grid; these transcriptions fix the operation order whose
results the arrays must reproduce bit for bit.  Exponentials, squares and
hypotenuses go through numpy's ``exp``, ``square`` and ``hypot``, as in the
arrays: numpy gives a scalar the bits it gives an array element, while
libm's ``math.exp`` and ``math.hypot`` and Python's float ``**`` differ from
them by one ulp on some arguments.
"""

import math

import numpy as np

from resonancekit.operators import ModelParams
from resonancekit.spectrum import PARITY_EVEN, PARITY_ODD


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
    return np.exp(-0.5 * r * r) * laguerre(n, 0, r * r)


def _ladder_parity(n):
    return PARITY_EVEN if n % 2 == 1 else PARITY_ODD


def jc(w, w0, g, top):
    out = [(0, "+", 0.0, _ladder_parity(0), True), (0, "-", 0.0, _ladder_parity(0), False)]
    for n in range(1, top + 1):
        root = g * math.sqrt(n)
        out.append((n, "+", w * n + root, _ladder_parity(n), False))
        out.append((n, "-", w * n - root, _ladder_parity(n), False))
    return out


def rt2(w, w0, g, top):
    half_split = 0.5 * math.sqrt(np.square(2.0 * w - g * math.sqrt(2.0)) + 2.0 * g * g)
    center = w - g / math.sqrt(2.0)
    out = [
        (0, "+", 0.0, _ladder_parity(0), True),
        (1, "+", 0.0, _ladder_parity(1), True),
        (2, "+", 0.0, _ladder_parity(2), True),
        (0, "-", center - half_split, PARITY_ODD, False),
        (2, "-", center + half_split, PARITY_ODD, False),
        (1, "-", w - g, _ladder_parity(1), False),
    ]
    for n in range(3, top + 1):
        mid = w * (n - 1) + 0.5 * g * (math.sqrt(n - 2) - math.sqrt(n))
        half = 0.5 * math.sqrt(
            np.square(-2.0 * w + g * (math.sqrt(n - 2) + math.sqrt(n))) + g * g * (n - 1)
        )
        out.append((n, "+", mid + half, _ladder_parity(n), False))
        out.append((n, "-", mid - half, _ladder_parity(n), False))
    return out


def strong_avg(w, w0, g, top):
    params = ModelParams(omega=w, omega0=w0, g=g)
    out = []
    for n in range(top + 1):
        base = w * (n + 0.5) - g * g / w
        split = 0.5 * w0 * f_laguerre(n, params)
        out.append((n, "+", base - split, _ladder_parity(n), False))
        out.append((n, "-", base + split, PARITY_EVEN if n % 2 == 0 else PARITY_ODD, False))
    return out


def strong_rt(w, w0, g, top):
    x = np.square(2.0 * g / w)
    damp = np.exp(-0.5 * x)
    out = [
        (0, "-", 0.0, _ladder_parity(0), True),
        (0, "+", 0.5 * w - g * g / w - 0.5 * w0 * damp, _ladder_parity(0), False),
    ]
    for n in range(1, top + 1):
        l_n = laguerre(n, 0, x)
        l_nm1 = laguerre(n - 1, 0, x)
        l1_nm1 = laguerre(n - 1, 1, x)
        mid = n * w - g * g / w - 0.25 * w0 * damp * (l_n - l_nm1)
        h = w - 0.5 * w0 * damp * (l_n + l_nm1)
        c = (w0 / w) * (2.0 * g / math.sqrt(n)) * damp * l1_nm1
        half = 0.5 * np.hypot(h, c)
        out.append((n, "+", mid + half, _ladder_parity(n), False))
        out.append((n, "-", mid - half, _ladder_parity(n), False))
    return out


SPECTRA = {"jc": jc, "rt2": rt2, "strong_avg": strong_avg, "strong_rt": strong_rt}


def selected_levels(method, w, w0, g, n_levels):
    """Lowest n_levels physical levels as (branch, parity, energy), sorted by
    (energy, n) over the photon range n_levels + ceil(r^2 + 4r) + 8, r = g/w."""
    ratio = g / w
    top = n_levels + math.ceil(ratio * ratio + 4.0 * ratio) + 8
    physical = sorted(
        (slot for slot in SPECTRA[method](w, w0, g, top) if not slot[4]),
        key=lambda slot: (slot[2], slot[0]),
    )
    return [(branch, parity, energy) for _, branch, energy, parity, _ in physical[:n_levels]]


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
