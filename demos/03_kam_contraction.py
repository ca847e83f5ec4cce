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
    # One coupling is a stack of one: row 0 of the chain and of the result.
    params = ModelParams(omega=1.0, omega0=1.0, g=g)
    th = rabi_rt1_chain((params,), kam_truncation(10))
    # V is the chain operator without its levels, which are its reference
    span = np.arange(th.dim)
    v = th.operator.copy()
    v[:, span, span] -= th.levels
    chain = kam_iterate_full(th.levels, v, max_steps=max_steps, tol_deg=1e-3)
    reports, diverged = chain.reports, bool(chain.diverged[0])
    print(f"\ng = {g}  (diverged: {diverged})")
    print(f"  {'step':>4} {'residual before':>16} {'residual after':>16} "
          f"{'|W|':>10} {'flag':>6}")
    for step, rep in enumerate(reports, start=1):
        flag = "DIV" if rep.diverged[0] else "ok"
        print(f"  {step:>4} {rep.residual_before[0]:>16.3e} "
              f"{rep.residual_after[0]:>16.3e} {rep.w_norm[0]:>10.3e} {flag:>6}")
    if reports and not diverged:
        befores = [rep.residual_before[0] for rep in reports]
        afters = [rep.residual_after[0] for rep in reports]
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
