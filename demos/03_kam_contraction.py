"""Superconvergent averaging iteration: contraction and breakdown.

Each step solves the cohomological equation [H0, W] + V = D and conjugates
by exp(W), replacing the off-block perturbation of size eps with one of
size ~eps^2.  The script shows the quadratic residual decay at weak
coupling and the divergence flags at stronger coupling, where the generator
norm explodes because near-degeneracies invert.
"""

import numpy as np

from resonancekit.kam import W_NORM_DIVERGENCE, kam_iterate_full
from resonancekit.methods import kam_truncation, rabi_rt1_chain
from resonancekit.operators import ModelParams


def run_chain(g, max_steps=3):
    params = ModelParams(omega=1.0, omega0=1.0, g=g)
    th = rabi_rt1_chain(params, kam_truncation(10))
    h0 = np.diag(th.levels)
    chain = kam_iterate_full(
        h0, th.operator - h0, max_steps=max_steps,
        tol_deg=1e-3,
    )
    print(f"\ng = {g}  (diverged: {chain.diverged})")
    print(f"  {'step':>4} {'residual before':>16} {'residual after':>16} "
          f"{'|W|':>10} {'flag':>6}")
    for rep in chain.reports:
        flag = "DIV" if rep.diverged else "ok"
        print(f"  {rep.step:>4} {rep.residual_before:>16.3e} "
              f"{rep.residual_after:>16.3e} {rep.w_norm:>10.3e} {flag:>6}")
    if chain.reports and not chain.diverged:
        befores = [rep.residual_before for rep in chain.reports]
        afters = [rep.residual_after for rep in chain.reports]
        ratios = [a / b**2 for a, b in zip(afters, befores)]
        print("  after/before^2 per step:",
              ", ".join(f"{r:.2f}" for r in ratios),
              "(roughly constant = quadratic contraction)")


def main():
    print("One-photon chain residue fed to the averaging iteration")
    print(f"(divergence flag: residual grows or |W| > {W_NORM_DIVERGENCE})")
    run_chain(0.15)
    run_chain(0.25)
    run_chain(0.3)
    print("\nAround g = 0.3 the first field-induced near-degeneracy enters the")
    print("retained block: the small divisors blow up the generator and the")
    print("iteration stops improving -- exactly what the flags report.")


if __name__ == "__main__":
    main()
