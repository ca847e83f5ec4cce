"""Regenerate every frozen regression constant used by the test suite.

Each section prints the measured quantity next to the ceiling the tests
freeze.  Ceilings are chosen 25-40% above the measured maxima: tight enough
to catch regressions, loose enough to absorb grid and BLAS jitter.  Run
with ``python3 demos/calibrate_thresholds.py``; expect a couple of minutes.
"""

import time

import numpy as np

from resonancekit.closedform import resonance_loci, second_order_locus
from resonancekit.methods import grid_sweep
from resonancekit.operators import ModelParams, TruncationConfig, build_rabi
from resonancekit.spectrum import eigh
from resonancekit.sweep import SweepConfig, compare_methods, resonance_report, run_sweep


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def weak_coupling_ceilings():
    banner("weak-coupling accuracy (lowest 10, exact oracle at n_max=60)")
    config = SweepConfig(g_min=0.0, g_max=0.25, g_steps=26, n_max=60,
                         n_levels=10, methods=("exact", "jc", "rt1_kam"))
    stats = compare_methods(run_sweep(config))
    print(f"g in [0, 0.25], 26 points:")
    print(f"  jc       max|dE| = {stats['jc'][0]:.4e}   (frozen ceiling 8.0e-02)")
    print(f"  rt1_kam  max|dE| = {stats['rt1_kam'][0]:.4e}   (frozen ceiling 4.0e-02)")

    config = SweepConfig(g_min=0.0, g_max=0.6, g_steps=61, n_max=60,
                         n_levels=10, methods=("exact", "jc", "rt2"))
    stats = compare_methods(run_sweep(config))
    print(f"g in [0, 0.6], 61 points:")
    print(f"  jc       max|dE| = {stats['jc'][0]:.4e}   (frozen ceiling 5.5e-01)")
    print(f"  rt2      max|dE| = {stats['rt2'][0]:.4e}   (frozen ceiling 4.5e-01)")


def strong_coupling_ceilings():
    banner("strong-coupling accuracy (lowest 8, exact oracle at n_max=120)")
    config = SweepConfig(g_min=1.5, g_max=3.0, g_steps=16, n_max=120,
                         n_levels=8, methods=("exact", "strong_avg"))
    stats = compare_methods(run_sweep(config))
    print(f"g in [1.5, 3], 16 points:")
    print(f"  strong_avg max|dE| = {stats['strong_avg'][0]:.4e}   (frozen ceiling 7.0e-02)")

    config = SweepConfig(g_min=0.0, g_max=3.0, g_steps=31, n_max=120,
                         n_levels=8, methods=("exact", "strong_avg", "strong_rt"))
    table = run_sweep(config)
    stats = compare_methods(table)
    print(f"g in [0, 3], 31 points:")
    print(f"  strong_rt  max|dE| = {stats['strong_rt'][0]:.4e}   (frozen ceiling 1.3e-01)")

    # per-point ordering below g = 0.5 (both methods are exact at g = 0,
    # so the strict comparison starts at the first nonzero grid point)
    sweeps = [table.sweep(m) for m in ("exact", "strong_avg", "strong_rt")]
    exact, avg, rt = (np.sort(s.energies, axis=1) for s in sweeps)
    err_avg, err_rt = (np.abs(e - exact).max(axis=1) for e in (avg, rt))
    solved = np.logical_and.reduce([s.ok for s in sweeps])
    print("per-point max|dE| for 0 < g < 0.5:")
    for i in np.flatnonzero(solved & (table.grid > 0.0) & (table.grid < 0.5)):
        marker = "ok" if err_rt[i] < err_avg[i] else "VIOLATED"
        print(f"  g={table.grid[i]:.2f}: strong_rt {err_rt[i]:.4e} "
              f"< strong_avg {err_avg[i]:.4e}  [{marker}]")


def crossing_displacements():
    banner("avoided-crossing minima vs analytic loci (fine local scans)")
    loci = {loc.n: loc.g for loc in resonance_loci(range(1, 4), 1.0)
            if loc.kind == "active"}
    for n, g_locus in sorted(loci.items()):
        config = SweepConfig(
            g_min=g_locus - 0.15, g_max=g_locus + 0.15, g_steps=151,
            n_max=60, n_levels=14,
        )
        _, reports, _ = resonance_report(config)
        rep = next(r for r in reports if r.kind == "active" and r.n == n)
        g_second = second_order_locus(n, 1.0)
        first = rep.min_gap_g - g_locus
        second = rep.min_gap_g - g_second
        verdict = "within" if abs(second) <= 0.05 else "OUTSIDE"
        print(f"  n={n}: measured min-gap at g={rep.min_gap_g:.4f}, "
              f"gap {rep.min_gap:.4e}; first-order locus g={g_locus:.4f} "
              f"(shift {first:+.4f}), second-order locus g={g_second:.4f} "
              f"(shift {second:+.4f}, {verdict} 0.05)")


def spectrum_regression_constants():
    banner("exact-spectrum regression constants")
    params = ModelParams(omega=1.0, omega0=1.0, g=0.5)
    for n_max in (80, 160):
        decomp = eigh(build_rabi(params, TruncationConfig(n_max=n_max))[None])
        print(f"  E0(g=0.5, n_max={n_max}) = {decomp.values[0, 0]:.12f}")

    for n_max in (60, 120):
        sweep = grid_sweep("exact", 1.0, 1.0, [0.2], TruncationConfig(n_max=n_max), 12)
        energies = sweep.energies[0]
        print(f"  lowest 12 at g=0.2, n_max={n_max}:")
        print("   ", ", ".join(f"{e:.15f}" for e in energies[:6]))
        print("   ", ", ".join(f"{e:.15f}" for e in energies[6:]))


def default_grid_envelopes():
    banner("two-photon chain envelope on the default grid")
    config = SweepConfig(n_levels=12, methods=("exact", "rt2"))
    stats = compare_methods(run_sweep(config))
    print(f"  rt2 over g in [0, 1.5] (151 points, lowest 12): "
          f"max|dE| = {stats['rt2'][0]:.4e}, mean = {stats['rt2'][1]:.4e}")
    print( "  (frozen honest envelope: max <= 1.5; the weak-coupling bound"
          " 0.45 comes from the g in [0, 0.6] run above)")


def main():
    start = time.perf_counter()
    weak_coupling_ceilings()
    strong_coupling_ceilings()
    crossing_displacements()
    spectrum_regression_constants()
    default_grid_envelopes()
    print(f"\ntotal {time.perf_counter() - start:.1f}s")


if __name__ == "__main__":
    main()
