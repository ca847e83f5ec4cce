"""Contact-transformation steps: exp(W) conjugation and contraction control."""

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
from resonancekit.operators import ModelParams, TruncatedOperator
from resonancekit.spectrum import EigenDecomposition, eigh

from dense_oracles import conjugate_by_series


def _diag_decomp(values):
    values = np.asarray(values, dtype=float)
    return EigenDecomposition(values=values, vectors=np.eye(values.size, dtype=complex))


def _anti_hermitian(rng, dim, scale):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return scale * 0.5 * (m - m.conj().T)


# ---------------------------------------------------------------- unitary_exp


def test_unitary_exp_identity_at_zero():
    np.testing.assert_allclose(unitary_exp(np.zeros((4, 4))), np.eye(4), atol=1e-15)


def test_unitary_exp_rejects_non_anti_hermitian():
    with pytest.raises(ValueError, match="anti-Hermitian generator"):
        unitary_exp(np.eye(3))


def test_unitary_exp_matches_expm_and_is_unitary(rng):
    w = _anti_hermitian(rng, 64, scale=0.7)
    u = unitary_exp(w)
    np.testing.assert_allclose(u, scipy.linalg.expm(w), atol=1e-12)
    assert np.abs(u.conj().T @ u - np.eye(64)).max() <= 1e-12


def test_unitary_exp_of_real_generator_is_real_orthogonal(rng):
    m = rng.standard_normal((32, 32))
    w = 0.35 * (m - m.T)
    u = unitary_exp(w)
    assert u.dtype == np.float64
    np.testing.assert_allclose(u, scipy.linalg.expm(w), atol=1e-12)
    assert np.abs(u.T @ u - np.eye(32)).max() <= 1e-12


# ---------------------------------------------------------------- kam_step


def test_kam_step_zero_perturbation_is_identity():
    h0 = np.diag([0.0, 1.0, 2.5])
    decomp = _diag_decomp(np.diag(h0))
    clusters = cluster_levels(decomp.values, tol_deg=1e-9)
    h_new, d, v_new, *_, report = kam_step(h0, np.zeros((3, 3)), decomp, clusters)
    np.testing.assert_allclose(h_new, h0, atol=1e-14)
    np.testing.assert_array_equal(d, np.zeros((3, 3)))
    np.testing.assert_allclose(v_new, np.zeros((3, 3)), atol=1e-14)
    assert report.w_norm == 0.0
    assert report.residual_before == 0.0
    assert report.residual_after == 0.0
    assert not report.diverged


def test_kam_step_preserves_spectrum_and_hermiticity(rng, make_hermitian):
    h0 = np.diag(np.arange(12.0))
    v = make_hermitian(rng, 12, scale=0.05)
    decomp = _diag_decomp(np.diag(h0))
    clusters = cluster_levels(decomp.values, tol_deg=1e-9)
    h_new, d, v_new, _, decomp_new, clusters_new, report = kam_step(h0, v, decomp, clusters)
    assert np.abs(h_new - h_new.conj().T).max() <= 1e-13
    np.testing.assert_allclose(
        np.linalg.eigvalsh(h_new), np.linalg.eigvalsh(h0 + v), atol=1e-10
    )
    # Decomposition H_new = H0 + D + V_new holds by construction.
    np.testing.assert_allclose(h_new, h0 + d + v_new, atol=1e-13)
    # The returned decomposition and clusters are those of the new reference.
    np.testing.assert_allclose(decomp_new.values, np.linalg.eigvalsh(h0 + d), atol=1e-13)
    assert clusters_new == cluster_levels(decomp_new.values, 1e-9)
    assert report.residual_after == _offblock_residual(v_new, decomp_new, clusters_new)
    assert not report.diverged
    assert report.residual_after < report.residual_before


def test_kam_step_residual_scales_quadratically(rng, make_hermitian):
    h0 = np.diag(np.arange(8.0))
    v0 = make_hermitian(rng, 8)
    decomp = _diag_decomp(np.diag(h0))
    clusters = cluster_levels(decomp.values, tol_deg=1e-9)
    afters = {}
    for eps in (1e-1, 1e-2):
        *_, report = kam_step(h0, eps * v0, decomp, clusters)
        afters[eps] = report.residual_after
    ratio = afters[1e-1] / afters[1e-2]
    assert 50.0 <= ratio <= 200.0  # quadratic contraction: ratio ~ (10)^2


def test_kam_step_generator_norm_tracks_inverse_gap():
    v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for delta in (1.0, 1e-1, 1e-2, 1e-3):
        h0 = np.diag([0.0, delta])
        decomp = _diag_decomp([0.0, delta])
        clusters = cluster_levels(decomp.values, tol_deg=1e-12)
        *_, report = kam_step(h0, v, decomp, clusters)
        assert report.w_norm * delta == pytest.approx(1.0, rel=1e-12)
        assert report.diverged == (
            report.residual_after > report.residual_before
            or report.w_norm > W_NORM_DIVERGENCE
        )
    # A gap far smaller than the coupling blows the generator up.
    assert 1.0 / 1e-3 > W_NORM_DIVERGENCE


# ---------------------------------------------------------------- iteration


def test_kam_iterate_full_stops_before_first_step_on_block_diagonal():
    h0 = np.diag([0.0, 1.0, 2.0])
    v = np.diag([0.1, 0.2, 0.3])
    chain = kam_iterate_full(h0, v, max_steps=4)
    assert chain.reports == ()
    assert not chain.diverged
    np.testing.assert_allclose(chain.estimate, [0.1, 1.2, 2.3], atol=1e-14)


def test_kam_iterate_full_validates_max_steps():
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        kam_iterate_full(np.eye(2), np.zeros((2, 2)), max_steps=0)


def test_kam_iterate_steps_are_numbered_from_one(rng, make_hermitian):
    h0 = np.diag(np.arange(10.0))
    v = make_hermitian(rng, 10, scale=0.03)
    chain = kam_iterate_full(h0, v, max_steps=3, stop_tol=1e-15)
    assert [r.step for r in chain.reports] == list(range(1, len(chain.reports) + 1))
    assert all(r.epsilon > 0 for r in chain.reports)


# ------------------------------------------------------- model iteration


def test_weak_coupling_chain_contracts():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.15)
    trunc = kam_truncation(10)
    th = rabi_rt1_chain(params, trunc)
    h0 = np.diag(th.levels)
    chain = kam_iterate_full(h0, th.operator - h0, max_steps=3, tol_deg=1e-3)
    assert not chain.diverged
    assert len(chain.reports) == 3
    for report in chain.reports:
        assert report.residual_after < report.residual_before
    afters = [r.residual_after for r in chain.reports]
    assert afters[1] < afters[0] and afters[2] < afters[1]
    assert afters[2] <= 1e-2 * afters[0]


def test_strong_coupling_chain_flags_divergence():
    params = ModelParams(omega=1.0, omega0=1.0, g=0.3)
    trunc = kam_truncation(10)
    th = rabi_rt1_chain(params, trunc)
    h0 = np.diag(th.levels)
    chain = kam_iterate_full(h0, th.operator - h0, max_steps=3, tol_deg=1e-3)
    assert chain.diverged
    assert chain.reports[-1].diverged
    assert any(r.w_norm > W_NORM_DIVERGENCE for r in chain.reports)


def test_report_divergence_flag_is_consistent(rng, make_hermitian):
    params = ModelParams(omega=1.0, omega0=1.0, g=0.3)
    th = rabi_rt1_chain(params, kam_truncation(8))
    h0 = np.diag(th.levels)
    chain = kam_iterate_full(h0, th.operator - h0, max_steps=3, tol_deg=1e-3)
    for report in chain.reports:
        assert report.diverged == (
            report.residual_after > report.residual_before
            or report.w_norm > W_NORM_DIVERGENCE
        )


def _kam_iterate_full_recomputing(H0, V, max_steps, stop_tol=1e-12, tol_deg=None):
    """kam_iterate_full without reusing what kam_step computed: every step
    solves for the generator and exponentiates it a second time, recomputes
    the off-block residual, and the final reference is decomposed again."""
    h0 = np.array(H0)
    v = np.array(V)
    u_total = np.eye(h0.shape[0], dtype=np.result_type(h0, v))
    reports = []
    diverged = False
    if tol_deg is None:
        tol_deg = DEFAULT_TOL_DEG * max(np.abs(h0).max(), 1.0)
    for step in range(1, max_steps + 1):
        decomp = eigh(TruncatedOperator(entries=h0, hermitian=True))
        clusters = cluster_levels(decomp.values, tol_deg)
        residual = _offblock_residual(v, decomp, clusters)
        if residual <= stop_tol * max(float(np.linalg.norm(h0, 2)), np.finfo(float).tiny):
            break
        w = solve_cohomological(v, decomp, clusters)
        u = unitary_exp(w)
        _, d, v_new, *_, report = kam_step(h0, v, decomp, clusters)
        reports.append(KamStepReport(**{**report.__dict__, "step": step}))
        u_total = u_total @ u
        h0 = h0 + d
        h0 = 0.5 * (h0 + h0.conj().T)
        v = v_new
        if report.diverged:
            diverged = True
            break
    ref_decomp = eigh(TruncatedOperator(entries=h0, hermitian=True))
    basis = ref_decomp.vectors
    operator = h0 + v
    estimate = np.real(np.diag(basis.conj().T @ operator @ basis))
    return KamChain(estimate, tuple(reports), h0, operator, u_total @ basis, diverged)


@pytest.mark.parametrize("g", [0.0, 0.15, 0.3])
def test_kam_iterate_full_reuses_step_unitary_bit_for_bit(g):
    th = rabi_rt1_chain(ModelParams(omega=1.0, omega0=1.0, g=g), kam_truncation(10))
    for dtype in (float, complex):
        h0 = np.diag(th.levels).astype(dtype)
        v = (th.operator - h0).astype(dtype)
        got = kam_iterate_full(h0, v, max_steps=3, tol_deg=1e-3)
        want = _kam_iterate_full_recomputing(h0, v, max_steps=3, tol_deg=1e-3)
        for name in ("estimate", "reference", "operator", "vectors"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (dtype, name)
        assert got.vectors.dtype == got.operator.dtype == dtype
        assert got.reports == want.reports
        assert got.diverged == want.diverged


# ---------------------------------------------------------------- series


def test_conjugate_by_series_matches_exact_conjugation(rng, make_hermitian):
    h = make_hermitian(rng, 16)
    w = _anti_hermitian(rng, 16, scale=0.01)
    u = unitary_exp(w)
    exact = u.conj().T @ h @ u
    series = conjugate_by_series(h, w)
    np.testing.assert_allclose(series, exact, atol=1e-12 * np.abs(h).max())


def test_conjugate_by_series_truncation_order_controls_error(rng, make_hermitian):
    h = make_hermitian(rng, 8)
    w = _anti_hermitian(rng, 8, scale=0.05)
    u = unitary_exp(w)
    exact = u.conj().T @ h @ u
    err1 = np.abs(conjugate_by_series(h, w, m_max=1) - exact).max()
    err4 = np.abs(conjugate_by_series(h, w, m_max=4) - exact).max()
    assert err4 < err1 * 1e-2
