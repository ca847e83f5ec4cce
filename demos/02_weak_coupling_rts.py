"""Photon-shift resonant transformations and their bookkeeping.

The one-photon transformation dresses the upper atomic state by removing a
photon; it is an isometry, not a unitary, so it introduces one spurious
zero eigenvalue on its kernel slot |0,+>.  The two-photon step stacks a
second shift on top (two more spurious zeros).  Each shift is kept as an
index remap: its kernel slots are the columns it maps to nothing (it shifts
as many photons), its lost slots the top rows nothing maps to.  A chain
records its kernel once, as the slots where its carried parity is 0; their
rows and columns are exactly 0.  This script shows the bookkeeping the
chains carry and compares the resulting level accuracy.
"""

import numpy as np

from resonancekit.methods import compute_levels, rabi_rt1_chain, rabi_rt2_chain
from resonancekit.operators import ModelParams, TruncationConfig, basis_label

TRUNC = TruncationConfig(n_max=60)


def describe_chain(th, name):
    print(f"\n{name}:")
    print(f"  provenance     : {' -> '.join(th.provenance)}")
    print(f"  spurious zeros : {[basis_label(k) for k in np.flatnonzero(th.parity[0] == 0)]}")
    print(f"  loss band      : top {th.loss_band} photon level(s) corrupted")
    for iso in th.records:
        kernel = tuple(basis_label(k) for k in iso.kernel_slots)
        print(f"  record: dressing {-len(kernel):+d} photon(s), "
              f"kernel {kernel}: R^dag R = 1 minus slots {list(kernel)}, "
              f"R R^dag = 1 minus slots {[basis_label(k) for k in iso.lost_slots]}")


def accuracy_row(g, n_levels=10):
    params = ModelParams(omega=1.0, omega0=1.0, g=g)
    exact = np.array(
        [lv.energy for lv in compute_levels("exact", params, TRUNC, n_levels)]
    )
    errs = {}
    for method in ("jc", "rt1_kam", "rt2"):
        approx = np.array(
            [lv.energy for lv in compute_levels(method, params, TRUNC, n_levels)]
        )
        errs[method] = np.abs(approx - exact).max()
    print(f"  g = {g:<5} " + "  ".join(f"{m}: {e:.2e}" for m, e in errs.items()))


def main():
    params = (ModelParams(omega=1.0, omega0=1.0, g=0.2),)  # one coupling: a stack of one
    describe_chain(rabi_rt1_chain(params, TRUNC), "one-photon chain")
    describe_chain(rabi_rt2_chain(params, TRUNC), "one- + two-photon chain")

    print("\nmax |E_method - E_exact| over the lowest 10 levels:")
    for g in (0.05, 0.15, 0.3, 0.5):
        accuracy_row(g)
    print("\nA single averaging correction (rt1_kam) already beats the plain")
    print("dressed-pair energies; the two-photon step extends the usable")
    print("coupling range toward the first field-induced resonances.")


if __name__ == "__main__":
    main()
