"""Truncated-Fock operator construction for a two-level atom in one field mode.

All operators act on the space spanned by |n, s> with n = 0..n_max the photon
number and s the atomic state ("+" or "-").  The flat basis index is

    k = 2*n + s,    s = 0 for "+", 1 for "-",

so atomic 2x2 blocks sit inside each photon level and photon-shift operators
are clean block-row shifts.  The Hamiltonian is held as its two real
tridiagonal parity blocks (:func:`build_parity_blocks`); the dense matrix
of :func:`build_rabi` is a plain float64 array, exactly symmetric, scattered
from those blocks, never assembled from Kronecker products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "ATOM_PLUS",
    "ATOM_MINUS",
    "ModelParams",
    "TruncationConfig",
    "basis_index",
    "basis_label",
    "build_boson_ops",
    "build_rabi",
    "parity_signs",
    "ParityBlock",
    "build_parity_blocks",
    "displacement_band",
    "default_guard",
    "validated_level_count",
]

ATOM_PLUS = 0
ATOM_MINUS = 1


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters (hbar = 1).

    Attributes
    ----------
    omega : float
        Field-mode frequency, must be > 0.  All three must be finite.
    omega0 : float
        Atomic splitting, must be >= 0.
    g : float
        Dipole coupling, must be >= 0.
    """

    omega: float
    omega0: float
    g: float

    def __post_init__(self):
        for name in ("omega", "omega0", "g"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.omega > 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.omega0 < 0:
            raise ValueError(f"omega0 must be >= 0, got {self.omega0}")
        if self.g < 0:
            raise ValueError(f"g must be >= 0, got {self.g}")


@dataclass(frozen=True)
class TruncationConfig:
    """Numerical truncation controls.

    Attributes
    ----------
    n_max : int
        Maximum photon number retained; matrix dimension is 2*(n_max+1).
    guard : int or None
        Number of top photon levels excluded from validity claims.  None
        means "resolve from the coupling via :func:`default_guard`".
    """

    n_max: int
    guard: int | None = None

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.guard is not None and not 0 <= self.guard < self.n_max:
            raise ValueError(
                f"guard must satisfy 0 <= guard < n_max, got {self.guard}"
            )

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1)


def basis_index(n: int, s: int) -> int:
    """Flat index of |n, s> (s = 0 for atom "+", 1 for atom "-")."""
    return 2 * n + s


def basis_label(k: int) -> str:
    """Human-readable label of basis index k, e.g. ``|0,+>``."""
    n, s = divmod(k, 2)
    return f"|{n},{'+' if s == ATOM_PLUS else '-'}>"


def build_boson_ops(trunc: TruncationConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Annihilation, creation and number operators on the field factor.

    Returns
    -------
    (a, a_dag, N) : tuple of (n_max+1) x (n_max+1) real arrays
        a[n, n+1] = sqrt(n+1); a_dag = a^T; N = diag(0..n_max).
    """
    if trunc.n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {trunc.n_max}")
    d = trunc.n_max + 1
    a = np.diag(np.sqrt(np.arange(1, d)), k=1)
    return a, a.T.copy(), np.diag(np.arange(d, dtype=float))


def _mat(op) -> np.ndarray:
    """Any array-like as an array in its own dtype: real stays real, complex
    stays complex, integer input becomes float64."""
    x = np.asarray(op)
    return x.astype(np.result_type(x.dtype, float), copy=False)


def _adjoint(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return x.conj().swapaxes(-1, -2)


def _symmetrized(h: np.ndarray) -> np.ndarray:
    return 0.5 * (h + _adjoint(h))


def build_rabi(params: ModelParams, trunc: TruncationConfig) -> np.ndarray:
    """Full Hamiltonian omega*(N+1/2) (x) 1 + (omega0/2) 1 (x) sigma_z + g*(a+a^H) (x) sigma_x,
    scattered from its two parity blocks."""
    h = np.zeros((trunc.dim, trunc.dim))
    for block in build_parity_blocks(params, trunc):
        idx = block.indices
        h[idx, idx] = block.diag
        h[idx[:-1], idx[1:]] = block.off
        h[idx[1:], idx[:-1]] = block.off
    return h


def parity_signs(trunc: TruncationConfig) -> np.ndarray:
    """Diagonal of the parity operator: (-1)^n for |n,+>, -(-1)^n for |n,->."""
    signs = np.repeat((-1.0) ** np.arange(trunc.n_max + 1), 2)
    signs[1::2] *= -1.0
    return signs


class ParityBlock(NamedTuple):
    """One parity class of H as a real symmetric tridiagonal chain; row j is
    photon number j, at flat basis index ``indices[j]``."""

    indices: np.ndarray
    diag: np.ndarray
    off: np.ndarray


def build_parity_blocks(
    params: ModelParams, trunc: TruncationConfig
) -> tuple[ParityBlock, ParityBlock]:
    """The even and odd parity blocks of :func:`build_rabi`, in that order.

    The even block holds |n,+> for even n and |n,-> for odd n, the odd block
    the rest: diagonal omega*(n+1/2) +/- (omega0/2)*(-1)^n, off-diagonal g*sqrt(n).
    """
    n = np.arange(trunc.n_max + 1)
    flip = n % 2
    sign = 1.0 - 2.0 * flip  # sigma_z of the even block's states, (-1)^n
    ladder = params.omega * (n + 0.5)
    off = params.g * np.sqrt(n[1:])
    even = ParityBlock(2 * n + flip, ladder + 0.5 * params.omega0 * sign, off)
    odd = ParityBlock(2 * n + 1 - flip, ladder - 0.5 * params.omega0 * sign, off)
    return even, odd


def displacement_band(params: ModelParams) -> int:
    """Top photon levels a truncated box loses to the coupling, uncapped.

    The strong-coupling displacement shifts photon occupation by
    O((2g/omega)^2); ceil(8 (g/omega)^2) + 10 is calibrated by the
    truncation-doubling test.  It squares g/omega, so a tiny omega does
    not divide by an underflowed omega^2; a square beyond float range raises
    OverflowError.
    """
    return math.ceil(8.0 * (params.g / params.omega) ** 2) + 10


def default_guard(params: ModelParams, trunc: TruncationConfig) -> int:
    """Guard band: top photon levels excluded from validity claims, the
    :func:`displacement_band` capped at n_max - 1 so at least one photon
    level stays validated."""
    if trunc.guard is not None:
        return trunc.guard
    return min(displacement_band(params), trunc.n_max - 1)


def validated_level_count(params: ModelParams, trunc: TruncationConfig) -> int:
    """Number of low eigenvalues covered by validity claims: 2(n_max+1) - 2*guard."""
    return max(0, 2 * (trunc.n_max + 1) - 2 * default_guard(params, trunc))
