"""Contact-transformation steps: exp(W) conjugation and contraction control."""

from dataclasses import astuple

import numpy as np
import pytest
import scipy.linalg

from resonancekit.averaging import DEFAULT_TOL_DEG, cluster_levels, solve_cohomological
from resonancekit.kam import (
    W_NORM_DIVERGENCE,
    KamChain,
    KamStepReport,
    _offblock_residual,
    kam_iterate_full,
    kam_step,
    unitary_exp,
)
from resonancekit.methods import kam_truncation, rabi_rt1_chain
from resonancekit.operators import ModelParams
from resonancekit.spectrum import EigenDecomposition, check_rows, eigh

from dense_oracles import cluster_means, cluster_members, conjugate_by_series, row_error


def _diag_decomp(values):
    """The decomposition of diag(values), as a stack of one."""
    values = np.asarray(values, dtype=float)[None]
    return EigenDecomposition(values=values, vectors=np.eye(values.size, dtype=complex)[None])


def _rt1_residue(g, n_levels):
    """The one-photon chain's reference and remainder at coupling g, on the
    contact-iteration box of ``n_levels``, as stacks of one."""
    th = rabi_rt1_chain((ModelParams(omega=1.0, omega0=1.0, g=g),), kam_truncation(n_levels))
    h0 = np.diag(th.levels[0])[None]
    return h0, th.operator - h0


def _anti_hermitian(rng, dim, scale):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (m - m.conj().T)


# ---------------------------------------------------------------- stacks only

# One matrix is a stack of one.  A bare matrix, or a 0-d flag, is refused
# with the shape it should have had, so no per-matrix check can stop firing
# on it unnoticed.
ONE_MATRIX_CALLS = {
    "check_rows_flagged": (lambda: check_rows(np.array(True), ArithmeticError), r"\(G,\)"),
    "check_rows_clean": (lambda: check_rows(np.array(False), ArithmeticError), r"\(G,\)"),
    "eigh": (lambda: eigh(np.eye(2)), r"\(G, n, n\) stack"),
    "unitary_exp": (lambda: unitary_exp(np.zeros((2, 2))), r"\(G, n, n\) stack"),
    "kam_iterate_full": (
        lambda: kam_iterate_full(np.eye(2), np.zeros((2, 2)), 1), r"\(G, n, n\) stack"
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_MATRIX_CALLS))
def test_a_one_matrix_argument_fails_loudly(name):
    call, shape = ONE_MATRIX_CALLS[name]
    with pytest.raises(ValueError, match=shape):
        call()


# ---------------------------------------------------------------- unitary_exp


def test_unitary_exp_identity_at_zero():
    np.testing.assert_allclose(unitary_exp(np.zeros((1, 4, 4)))[0], np.eye(4), atol=1e-15)


def test_unitary_exp_rejects_non_anti_hermitian():
    with pytest.raises(ValueError, match="anti-Hermitian generator"):
        raise row_error(unitary_exp, np.eye(3)[None])


def test_unitary_exp_matches_expm_and_is_unitary(rng):
    w = _anti_hermitian(rng, 64, scale=0.7)
    u = unitary_exp(w[None])[0]
    np.testing.assert_allclose(u, scipy.linalg.expm(w), atol=1e-12)
    assert np.abs(u.conj().T @ u - np.eye(64)).max() <= 1e-12


def test_unitary_exp_of_real_generator_is_real_orthogonal(rng):
    m = rng.standard_normal((32, 32))
    w = 0.35 * (m - m.T)
    u = unitary_exp(w[None])[0]
    assert u.dtype == np.float64
    np.testing.assert_allclose(u, scipy.linalg.expm(w), atol=1e-12)
    assert np.abs(u.T @ u - np.eye(32)).max() <= 1e-12


# ---------------------------------------------------------------- kam_step


def test_kam_step_zero_perturbation_is_identity():
    h0 = np.diag([0.0, 1.0, 2.5])
    decomp = _diag_decomp(np.diag(h0))
    clusters = cluster_levels(decomp.values, tol_deg=1e-9)
    h_new, d, v_new, *_, report = kam_step(h0[None], np.zeros((1, 3, 3)), decomp, clusters)
    np.testing.assert_allclose(h_new[0], h0, atol=1e-14)
    np.testing.assert_array_equal(d[0], np.zeros((3, 3)))
    np.testing.assert_allclose(v_new[0], np.zeros((3, 3)), atol=1e-14)
    assert report.w_norm[0] == 0.0
    assert report.residual_before[0] == 0.0
    assert report.residual_after[0] == 0.0
    assert not report.diverged[0]


def test_kam_step_preserves_spectrum_and_hermiticity(rng, make_hermitian):
    h0 = np.diag(np.arange(12.0))
    v = make_hermitian(rng, 12, scale=0.05)
    decomp = _diag_decomp(np.diag(h0))
    clusters = cluster_levels(decomp.values, tol_deg=1e-9)
    h_new, d, v_new, _, decomp_new, clusters_new, report = kam_step(
        h0[None], v[None], decomp, clusters
    )
    h_new, d = h_new[0], d[0]
    assert np.abs(h_new - h_new.conj().T).max() <= 1e-13
    np.testing.assert_allclose(
        np.linalg.eigvalsh(h_new), np.linalg.eigvalsh(h0 + v), atol=1e-10
    )
    # Decomposition H_new = H0 + D + V_new holds by construction.
    np.testing.assert_allclose(h_new, h0 + d + v_new[0], atol=1e-13)
    # The returned decomposition and clusters are those of the new reference.
    np.testing.assert_allclose(decomp_new.values[0], np.linalg.eigvalsh(h0 + d), atol=1e-13)
    expected = cluster_levels(decomp_new.values, 1e-9)
    assert cluster_members(clusters_new.ids[0]) == cluster_members(expected.ids[0])
    assert cluster_means(clusters_new.values[0], clusters_new.ids[0]) == cluster_means(
        expected.values[0], expected.ids[0]
    )
    assert clusters_new.tol_deg == 1e-9
    np.testing.assert_array_equal(clusters_new.ids, expected.ids)
    np.testing.assert_array_equal(clusters_new.values, expected.values)
    assert report.residual_after[0] == _offblock_residual(v_new, decomp_new, clusters_new)[0]
    assert not report.diverged[0]
    assert report.residual_after[0] < report.residual_before[0]


def test_kam_step_residual_scales_quadratically(rng, make_hermitian):
    h0 = np.diag(np.arange(8.0))
    v0 = make_hermitian(rng, 8)
    decomp = _diag_decomp(np.diag(h0))
    clusters = cluster_levels(decomp.values, tol_deg=1e-9)
    afters = {}
    for eps in (1e-1, 1e-2):
        *_, report = kam_step(h0[None], eps * v0[None], decomp, clusters)
        afters[eps] = report.residual_after[0]
    ratio = afters[1e-1] / afters[1e-2]
    assert 50.0 <= ratio <= 200.0  # quadratic contraction: ratio ~ (10)^2


def test_kam_step_generator_norm_tracks_inverse_gap():
    v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for delta in (1.0, 1e-1, 1e-2, 1e-3):
        h0 = np.diag([0.0, delta])
        decomp = _diag_decomp([0.0, delta])
        clusters = cluster_levels(decomp.values, tol_deg=1e-12)
        *_, report = kam_step(h0[None], v[None], decomp, clusters)
        assert report.w_norm[0] * delta == pytest.approx(1.0, rel=1e-12)
        assert report.diverged[0] == (
            report.residual_after[0] > report.residual_before[0]
            or report.w_norm[0] > W_NORM_DIVERGENCE
        )
    # A gap far smaller than the coupling blows the generator up.
    assert 1.0 / 1e-3 > W_NORM_DIVERGENCE


# ---------------------------------------------------------------- iteration


def test_kam_iterate_full_stops_before_first_step_on_block_diagonal():
    h0 = np.diag([0.0, 1.0, 2.0])
    v = np.diag([0.1, 0.2, 0.3])
    chain = kam_iterate_full(h0[None], v[None], max_steps=4)
    assert chain.reports == ((),)
    assert not chain.diverged[0]
    np.testing.assert_allclose(chain.estimate[0], [0.1, 1.2, 2.3], atol=1e-14)


def test_kam_iterate_full_validates_max_steps():
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        kam_iterate_full(np.eye(2)[None], np.zeros((1, 2, 2)), max_steps=0)


def test_kam_iterate_steps_are_numbered_from_one(rng, make_hermitian):
    h0 = np.diag(np.arange(10.0))
    v = make_hermitian(rng, 10, scale=0.03)
    reports, = kam_iterate_full(h0[None], v[None], max_steps=3, stop_tol=1e-15).reports
    assert [r.step for r in reports] == list(range(1, len(reports) + 1))
    assert all(r.epsilon > 0 for r in reports)


# ------------------------------------------------------- model iteration


def test_weak_coupling_chain_contracts():
    chain = kam_iterate_full(*_rt1_residue(0.15, 10), max_steps=3, tol_deg=1e-3)
    reports, = chain.reports
    assert not chain.diverged[0]
    assert len(reports) == 3
    for report in reports:
        assert report.residual_after < report.residual_before
    afters = [r.residual_after for r in reports]
    assert afters[1] < afters[0] and afters[2] < afters[1]
    assert afters[2] <= 1e-2 * afters[0]


def test_strong_coupling_chain_flags_divergence():
    chain = kam_iterate_full(*_rt1_residue(0.3, 10), max_steps=3, tol_deg=1e-3)
    reports, = chain.reports
    assert chain.diverged[0]
    assert reports[-1].diverged
    assert any(r.w_norm > W_NORM_DIVERGENCE for r in reports)


def test_report_divergence_flag_is_consistent(rng, make_hermitian):
    chain = kam_iterate_full(*_rt1_residue(0.3, 8), max_steps=3, tol_deg=1e-3)
    for report in chain.reports[0]:
        assert report.diverged == (
            report.residual_after > report.residual_before
            or report.w_norm > W_NORM_DIVERGENCE
        )


def _kam_iterate_full_recomputing(H0, V, max_steps, stop_tol=1e-12, tol_deg=None):
    """kam_iterate_full on a stack of one without reusing what kam_step
    computed: every step solves for the generator and exponentiates it a
    second time, recomputes the off-block residual, and the final reference
    is decomposed again."""
    h0 = np.array(H0)
    v = np.array(V)
    u_total = np.eye(h0.shape[-1], dtype=np.result_type(h0, v))[None]
    reports = []
    diverged = False
    if tol_deg is None:
        tol_deg = DEFAULT_TOL_DEG * max(np.abs(h0).max(), 1.0)
    for step in range(1, max_steps + 1):
        decomp = eigh(h0)
        clusters = cluster_levels(decomp.values, tol_deg)
        residual = _offblock_residual(v, decomp, clusters)[0]
        if residual <= stop_tol * max(float(np.linalg.norm(h0[0], 2)), np.finfo(float).tiny):
            break
        w = solve_cohomological(v, decomp, clusters)
        u = unitary_exp(w)
        _, d, v_new, *_, report = kam_step(h0, v, decomp, clusters)
        reports.append(KamStepReport(step, *(f.item() for f in astuple(report)[1:])))
        u_total = u_total @ u
        h0 = h0 + d
        h0 = 0.5 * (h0 + h0.conj().swapaxes(-1, -2))
        v = v_new
        if report.diverged[0]:
            diverged = True
            break
    ref_decomp = eigh(h0)
    basis = ref_decomp.vectors
    operator = h0 + v
    estimate = np.real(np.diagonal(basis.conj().swapaxes(-1, -2) @ operator @ basis, 0, -2, -1))
    return KamChain(estimate, (tuple(reports),), operator, u_total @ basis, np.array([diverged]))


@pytest.mark.parametrize("g", [0.0, 0.15, 0.3])
def test_kam_iterate_full_reuses_step_unitary_bit_for_bit(g):
    reference, remainder = _rt1_residue(g, 10)
    for dtype in (float, complex):
        h0, v = reference.astype(dtype), remainder.astype(dtype)
        got = kam_iterate_full(h0, v, max_steps=3, tol_deg=1e-3)
        want = _kam_iterate_full_recomputing(h0, v, max_steps=3, tol_deg=1e-3)
        for name in ("estimate", "operator", "vectors"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (dtype, name)
        assert got.vectors.dtype == got.operator.dtype == dtype
        assert got.reports == want.reports
        assert np.array_equal(got.diverged, want.diverged)


# ---------------------------------------------------------------- series


def test_conjugate_by_series_matches_exact_conjugation(rng, make_hermitian):
    h = make_hermitian(rng, 16)
    w = _anti_hermitian(rng, 16, scale=0.01)
    u = unitary_exp(w[None])[0]
    exact = u.conj().T @ h @ u
    series = conjugate_by_series(h, w)
    np.testing.assert_allclose(series, exact, atol=1e-12 * np.abs(h).max())


def test_conjugate_by_series_truncation_order_controls_error(rng, make_hermitian):
    h = make_hermitian(rng, 8)
    w = _anti_hermitian(rng, 8, scale=0.05)
    u = unitary_exp(w[None])[0]
    exact = u.conj().T @ h @ u
    err1 = np.abs(conjugate_by_series(h, w, m_max=1) - exact).max()
    err4 = np.abs(conjugate_by_series(h, w, m_max=4) - exact).max()
    assert err4 < err1 * 1e-2
