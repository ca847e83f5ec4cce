"""Shared fixtures: seeded RNG, random real symmetric factories, and a failure
injected into the contact-iteration chains at chosen couplings."""

import numpy as np
import pytest

from resonancekit import transforms


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture
def make_hermitian():
    """Dense random real symmetric matrix factory."""

    def build(rng, dim, scale=1.0):
        m = rng.standard_normal((dim, dim))
        return scale * 0.5 * (m + m.T)

    return build


@pytest.fixture
def make_degenerate_reference():
    """Real symmetric reference with seeded exactly-degenerate clusters.

    Returns (matrix, eigenvalues): cluster k holds ``cluster_sizes[k]`` copies
    of the eigenvalue k*spacing, rotated by a random orthogonal matrix.
    """

    def build(rng, cluster_sizes, spacing=1.0):
        values = []
        for k, size in enumerate(cluster_sizes):
            values.extend([k * spacing] * size)
        values = np.array(values, dtype=float)
        dim = values.size
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        h0 = q @ np.diag(values) @ q.T
        return 0.5 * (h0 + h0.T), values

    return build


@pytest.fixture
def fail_chain_at(monkeypatch):
    """Make a contact-iteration chain fail one of its checks at the given
    couplings only, on a stack of any size.

    rt_full_kam gets a reflection angle 0.3 off at those couplings, which
    the two-photon reduction's off-diagonal check rejects (ArithmeticError);
    rt1_kam gets a Hamiltonian with one entry off symmetric there, between
    two odd slots so that it stays inside a parity block, which makes the
    KAM generator fail the exponential's anti-Hermitian check (ValueError).
    """

    def inject(method, couplings):
        bad = list(couplings)
        if method == "rt_full_kam":
            angle = transforms.rt2_mixing_angle
            monkeypatch.setattr(
                transforms, "rt2_mixing_angle", lambda w, g: angle(w, g) + 0.3 * np.isin(g, bad)
            )
            return
        one_photon = transforms.rt_one_photon

        def tilted(H, params, trunc):
            h = np.array(H)
            h[:, 5, 1] += 0.1 * np.isin([p.g for p in params], bad)
            return one_photon(h, params, trunc)

        monkeypatch.setattr(transforms, "rt_one_photon", tilted)

    return inject
