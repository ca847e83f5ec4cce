"""Strong-coupling effective spectra: displaced frame and zero-field doublets.

In the displaced (polaron) frame the reference ladder omega*(n + 1/2) -
g^2/omega is doubly degenerate; averaging the atomic term over it gives
closed-form energies with Laguerre-damped splittings (strong_avg).
Resolving the residual zero-field doublets with one more photon-shift
transformation (strong_rt) fixes the small-g limit without losing the
large-g collapse.
"""

import math

import numpy as np

from resonancekit.closedform import laguerre_table
from resonancekit.methods import grid_sweep
from resonancekit.operators import TruncationConfig

ORACLE_TRUNC = TruncationConfig(n_max=120)


def error_table(n_levels=8):
    print("max |E - E_exact| over the lowest 8 levels:")
    print(f"  {'g':>5} {'strong_avg':>12} {'strong_rt':>12}")
    couplings = (0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    exact, avg, rt = (
        grid_sweep(method, 1.0, 1.0, couplings, ORACLE_TRUNC, n_levels).energies
        for method in ("exact", "strong_avg", "strong_rt")
    )
    for g, e_avg, e_rt in zip(couplings, *(np.abs(e - exact).max(axis=1) for e in (avg, rt))):
        print(f"  {g:>5} {e_avg:>12.3e} {e_rt:>12.3e}")


def splitting_collapse():
    print("\nLaguerre-damped splitting factor f_n(g) = exp(-2g^2) L_n(4g^2):")
    print(f"  {'g':>5} " + " ".join(f"{f'f_{n}':>10}" for n in range(4)))
    for g in (0.1, 0.3, 0.5, 1.0, 2.0):
        r = 2.0 * g  # 2g/omega
        values = math.exp(-0.5 * r * r) * laguerre_table(3, 0, r * r)
        print(f"  {g:>5} " + " ".join(f"{v:>10.4f}" for v in values))
    print("f_1 vanishes exactly at g = omega/2 (the n = 1 averaged doublet")
    print("crosses there); the exp(-2g^2) envelope eventually wins for every")
    print("n, collapsing the doublets into the displaced-ladder degeneracy.")


def main():
    print("Strong-coupling closed forms vs the exact oracle, omega = omega0 = 1\n")
    error_table()
    print("\nstrong_avg degrades toward g -> 0 (its doublets stay split by the")
    print("bare omega0 only on average); strong_rt repairs exactly that regime.")
    splitting_collapse()


if __name__ == "__main__":
    main()
