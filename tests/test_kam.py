"""Contact-transformation steps: exp(W) conjugation and contraction control."""

from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.linalg

from resonancekit import methods
from resonancekit.averaging import cluster_levels, project_average, solve_cohomological
from resonancekit.kam import (
    W_NORM_DIVERGENCE,
    KamChain,
    KamStepReport,
    _exp_and_norm,
    _offblock_residual,
    kam_iterate_full,
    kam_step,
)
from resonancekit.methods import kam_truncation, rabi_rt1_chain
from resonancekit.operators import ModelParams
from resonancekit.spectrum import check_rows, eigh

from dense_oracles import chain_residue, conjugate_by_series, row_error


def _rt1_residue(g, n_levels):
    """The one-photon chain's reference levels and remainder at coupling g,
    on the contact-iteration box of ``n_levels``, as stacks of one."""
    return chain_residue(rabi_rt1_chain((ModelParams(1.0, 1.0, g),), kam_truncation(n_levels)))


def _antisymmetric(rng, dim, scale):
    m = rng.standard_normal((dim, dim))
    return scale * 0.5 * (m - m.T)


# ---------------------------------------------------------------- stacks only

# One matrix is a stack of one.  A bare matrix, or a 0-d flag, is refused
# with the shape it should have had, so no per-matrix check can stop firing
# on it unnoticed.
ONE_MATRIX_CALLS = {
    "check_rows_flagged": (lambda: check_rows(np.array(True), ArithmeticError), r"\(G,\)"),
    "check_rows_clean": (lambda: check_rows(np.array(False), ArithmeticError), r"\(G,\)"),
    "eigh": (lambda: eigh(np.eye(2)), r"\(G, n, n\) stack"),
    "unitary_exp": (lambda: _exp_and_norm(np.zeros((2, 2))), r"\(G, n, n\) stack"),
    "kam_iterate_full": (
        lambda: kam_iterate_full(np.zeros((1, 2)), np.zeros((2, 2)), 1, 1e-8), r"\(G, n, n\) stack"
    ),
    "kam_iterate_full_levels": (
        lambda: kam_iterate_full(np.zeros(2), np.zeros((1, 2, 2)), 1, 1e-8), r"\(G, n\) levels"
    ),
    "kam_iterate_full_mismatch": (
        lambda: kam_iterate_full(np.zeros((1, 3)), np.zeros((1, 2, 2)), 1, 1e-8),
        r"\(G, n, n\) stack"
    ),
}


@pytest.mark.parametrize("name", sorted(ONE_MATRIX_CALLS))
def test_a_one_matrix_argument_fails_loudly(name):
    call, shape = ONE_MATRIX_CALLS[name]
    with pytest.raises(ValueError, match=shape):
        call()


# ---------------------------------------------------------------- unitary exp(W)


def test_unitary_exp_identity_at_zero():
    np.testing.assert_allclose(_exp_and_norm(np.zeros((1, 4, 4)))[0][0], np.eye(4), atol=1e-15)


def test_unitary_exp_rejects_non_anti_hermitian():
    with pytest.raises(ValueError, match="anti-Hermitian generator"):
        raise row_error(_exp_and_norm, np.eye(3)[None])


def test_unitary_exp_matches_expm_and_is_unitary(rng):
    w = _antisymmetric(rng, 64, scale=0.7)
    u = _exp_and_norm(w[None])[0][0]
    np.testing.assert_allclose(u, scipy.linalg.expm(w), atol=1e-12)
    assert np.abs(u.T @ u - np.eye(64)).max() <= 1e-12


def test_unitary_exp_of_real_generator_is_real_orthogonal(rng):
    m = rng.standard_normal((32, 32))
    w = 0.35 * (m - m.T)
    u = _exp_and_norm(w[None])[0][0]
    assert u.dtype == np.float64
    np.testing.assert_allclose(u, scipy.linalg.expm(w), atol=1e-12)
    assert np.abs(u.T @ u - np.eye(32)).max() <= 1e-12


# ---------------------------------------------------------------- kam_step


def test_kam_step_zero_perturbation_is_identity():
    levels = np.array([[0.0, 1.0, 2.5]])
    ids = cluster_levels(levels, tol_deg=1e-9)
    levels_new, v_new, u, ids_new, report = kam_step(levels, np.zeros((1, 3, 3)), ids, 1e-9)
    np.testing.assert_allclose(levels_new, levels, atol=1e-14)
    np.testing.assert_allclose(v_new[0], np.zeros((3, 3)), atol=1e-14)
    np.testing.assert_allclose(u[0], np.eye(3), atol=1e-14)
    np.testing.assert_array_equal(ids_new, ids)
    assert report.w_norm[0] == 0.0
    assert report.residual_before[0] == 0.0
    assert report.residual_after[0] == 0.0
    assert not report.diverged[0]


def test_kam_step_refuses_descending_levels():
    # With levels [0, 1, 0.5] the gap of 1.0 and 0.5 exceeds tol_deg, so their
    # coupling is to be rotated away; ids that put them in one cluster would
    # average it instead.  Descending levels are refused whatever the ids.
    v = np.full((1, 3, 3), 0.01)
    with pytest.raises(ValueError, match="ascending"):
        kam_step(np.array([[0.0, 1.0, 0.5]]), v, np.array([[0, 1, 1]]), 1e-3)
    with pytest.raises(ValueError, match="ascending"):
        kam_step(np.array([[0.0, 1.0, 0.5]]), v, np.array([[0, 1, 2]]), 1e-3)


def test_kam_step_preserves_spectrum_and_hermiticity(rng, make_hermitian):
    levels = np.arange(12.0)[None]
    h0 = np.diag(levels[0])
    v = make_hermitian(rng, 12, scale=0.05)
    ids = cluster_levels(levels, tol_deg=1e-9)
    levels_new, v_new, u, ids_new, report = kam_step(levels, v[None], ids, 1e-9)
    h_new = np.diag(levels_new[0]) + v_new[0]
    assert np.abs(h_new - h_new.T).max() <= 1e-13
    np.testing.assert_allclose(
        np.linalg.eigvalsh(h_new), np.linalg.eigvalsh(h0 + v), atol=1e-10
    )
    # U is unitary and carries H0 + V to the new reference plus V_new.
    u = u[0]
    np.testing.assert_allclose(u.T @ u, np.eye(12), atol=1e-13)
    np.testing.assert_allclose(u.T @ (h0 + v) @ u, h_new, atol=1e-13)
    # The new levels and cluster ids are those of the new reference H0 + D.
    d = project_average(v[None], ids)[0]
    np.testing.assert_allclose(levels_new[0], np.linalg.eigvalsh(h0 + d), atol=1e-13)
    assert np.all(np.diff(levels_new) >= 0)
    np.testing.assert_array_equal(ids_new, cluster_levels(levels_new, 1e-9))
    assert report.residual_after[0] == _offblock_residual(v_new, ids_new)[0]
    assert not report.diverged[0]
    assert report.residual_after[0] < report.residual_before[0]


def test_kam_step_residual_scales_quadratically(rng, make_hermitian):
    levels = np.arange(8.0)[None]
    v0 = make_hermitian(rng, 8)
    ids = cluster_levels(levels, tol_deg=1e-9)
    afters = {}
    for eps in (1e-1, 1e-2):
        *_, report = kam_step(levels, eps * v0[None], ids, 1e-9)
        afters[eps] = report.residual_after[0]
    ratio = afters[1e-1] / afters[1e-2]
    assert 50.0 <= ratio <= 200.0  # quadratic contraction: ratio ~ (10)^2


def test_kam_step_generator_norm_tracks_inverse_gap():
    v = np.array([[0.0, 1.0], [1.0, 0.0]])
    for delta in (1.0, 1e-1, 1e-2, 1e-3):
        levels = np.array([[0.0, delta]])
        ids = cluster_levels(levels, tol_deg=1e-12)
        *_, report = kam_step(levels, v[None], ids, 1e-12)
        assert report.w_norm[0] * delta == pytest.approx(1.0, rel=1e-12)
        assert report.diverged[0] == (
            report.residual_after[0] > report.residual_before[0]
            or report.w_norm[0] > W_NORM_DIVERGENCE
        )
    # A gap far smaller than the coupling blows the generator up.
    assert 1.0 / 1e-3 > W_NORM_DIVERGENCE


def _assert_w_norm_is_the_spectral_norm_of_w(levels, v, tol_deg):
    # The step reads ||W|| off the eigenphases of exp(W); here W is solved
    # for again and its largest singular value taken.
    ids = cluster_levels(levels, tol_deg)
    *_, report = kam_step(levels, v, ids, tol_deg)
    w = solve_cohomological(v, levels, ids, tol_deg)
    expect = np.linalg.norm(w, 2, axis=(-2, -1))
    assert expect.max() > 0
    np.testing.assert_allclose(report.w_norm, expect, rtol=1e-12, atol=0)


def test_kam_step_w_norm_is_the_spectral_norm_of_w_on_random_stacks(rng, make_hermitian):
    levels = np.sort(rng.uniform(0.0, 10.0, (6, 12)), axis=-1)
    v = np.stack([make_hermitian(rng, 12, scale=0.05) for _ in range(6)])
    _assert_w_norm_is_the_spectral_norm_of_w(levels, v, 1e-3)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("method", sorted(methods._CHAINS))
def test_kam_step_w_norm_is_the_spectral_norm_of_w_on_the_gate_blocks(method, sign):
    # The parity blocks the chains_gate workload refines: 81 g in [0, 0.3]
    # at 12 levels, each sorted to ascending levels.
    params = tuple(ModelParams(1.0, 1.0, g) for g in np.linspace(0.0, 0.3, 81))
    th = methods._CHAINS[method](params, kam_truncation(12))
    levels, v = chain_residue(th, np.flatnonzero(th.parity[0] == sign))
    order = np.argsort(levels, axis=-1, kind="stable")
    v = np.take_along_axis(np.take_along_axis(v, order[:, :, None], 1), order[:, None, :], 2)
    _assert_w_norm_is_the_spectral_norm_of_w(
        np.take_along_axis(levels, order, -1), v, methods.PHYSICAL_CLUSTER_FRACTION
    )


# ---------------------------------------------------------------- iteration


def test_kam_iterate_full_stops_before_first_step_on_block_diagonal():
    v = np.diag([0.1, 0.2, 0.3])
    chain = kam_iterate_full(np.array([[0.0, 1.0, 2.0]]), v[None], max_steps=4, tol_deg=1e-8)
    assert chain.reports == ()
    assert chain.steps[0] == 0
    assert not chain.diverged[0]
    np.testing.assert_allclose(chain.estimate[0], [0.1, 1.2, 2.3], atol=1e-14)


def test_kam_iterate_full_validates_max_steps():
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        kam_iterate_full(np.zeros((1, 2)), np.zeros((1, 2, 2)), max_steps=0, tol_deg=1e-8)


def test_kam_iterate_full_refuses_a_nan_tolerance():
    # Under a NaN tolerance every level would join one cluster: no step, and
    # the bare diagonal returned as the estimate.
    with pytest.raises(ValueError, match="tol_deg must be > 0 and finite"):
        kam_iterate_full(np.array([[0.0, 1.0, 2.0]]), np.full((1, 3, 3), 0.1), 1, np.nan)


def test_kam_iterate_reports_one_stack_wide_report_per_step(rng, make_hermitian):
    v = make_hermitian(rng, 10, scale=0.03)
    chain = kam_iterate_full(np.arange(10.0)[None], v[None], max_steps=3, tol_deg=1e-8,
                             stop_tol=1e-15)
    assert len(chain.reports) == chain.steps[0] >= 1
    for report in chain.reports:
        assert all(getattr(report, f.name).shape == (1,) for f in fields(report))
        assert report.diverged.dtype == bool
        assert report.epsilon[0] > 0


# ------------------------------------------------------- model iteration


def test_weak_coupling_chain_contracts():
    chain = kam_iterate_full(*_rt1_residue(0.15, 10), max_steps=3, tol_deg=1e-3)
    assert not chain.diverged[0]
    assert len(chain.reports) == chain.steps[0] == 3
    for report in chain.reports:
        assert report.residual_after[0] < report.residual_before[0]
    afters = [r.residual_after[0] for r in chain.reports]
    assert afters[1] < afters[0] and afters[2] < afters[1]
    assert afters[2] <= 1e-2 * afters[0]


def test_strong_coupling_chain_flags_divergence():
    chain = kam_iterate_full(*_rt1_residue(0.3, 10), max_steps=3, tol_deg=1e-3)
    assert chain.diverged[0]
    assert chain.reports[-1].diverged[0]
    assert any(r.w_norm[0] > W_NORM_DIVERGENCE for r in chain.reports)


def test_report_divergence_flag_is_consistent(rng, make_hermitian):
    chain = kam_iterate_full(*_rt1_residue(0.3, 8), max_steps=3, tol_deg=1e-3)
    for report in chain.reports:
        np.testing.assert_array_equal(report.diverged, (
            (report.residual_after > report.residual_before)
            | (report.w_norm > W_NORM_DIVERGENCE)
        ))


def _kam_iterate_full_recomputing(levels, V, max_steps, tol_deg, stop_tol=1e-12):
    """kam_iterate_full on a stack of one without reusing what kam_step
    computed: every step clusters the levels, recomputes the off-block
    residual, and solves for the generator, exponentiates it and decomposes
    the new reference a second time for the step's unitary."""
    order = np.argsort(levels[0], kind="stable")
    levels, v = levels[:, order], V[:, order[:, None], order]
    u_total = np.eye(levels.shape[-1])[None]
    reports = []
    diverged = False
    for _ in range(max_steps):
        ids = cluster_levels(levels, tol_deg)
        residual = _offblock_residual(v, ids)[0]
        if residual <= stop_tol * max(np.abs(levels).max(), np.finfo(float).tiny):
            break
        d = project_average(v, ids)
        q = eigh(np.diag(levels[0]) + 0.5 * (d + d.swapaxes(-1, -2))).vectors
        u = _exp_and_norm(solve_cohomological(v, levels, ids, tol_deg))[0] @ q
        levels, v, _, _, report = kam_step(levels, v, ids, tol_deg)
        reports.append(report)
        u_total = u_total @ u
        if report.diverged[0]:
            diverged = True
            break
    vectors = np.empty_like(u_total)
    vectors[0, order] = u_total[0]
    estimate = levels + np.diagonal(v, axis1=-2, axis2=-1)
    return KamChain(estimate, tuple(reports), vectors, np.array([diverged]),
                    np.array([len(reports)]))


def _assert_chains_equal(got, want, rows=slice(None)):
    """Rows ``rows`` of the chain ``got`` equal the chain ``want`` bit for
    bit: every array, and every report field where ``want`` took the step
    (``got`` holds NaN, and False in ``diverged``, after that)."""
    for name in ("estimate", "vectors", "diverged", "steps"):
        assert np.array_equal(getattr(got, name)[rows], getattr(want, name)), name
    assert len(got.reports) >= len(want.reports)
    for step, report in enumerate(got.reports):
        for f in fields(KamStepReport):
            value = getattr(report, f.name)[rows]
            if step < len(want.reports):
                expect = getattr(want.reports[step], f.name)
            else:
                expect = np.full_like(value, False if value.dtype == bool else np.nan)
            assert value.dtype == expect.dtype, (step, f.name)
            assert np.array_equal(value, expect, equal_nan=True), (step, f.name)


@pytest.mark.parametrize("g", [0.0, 0.15, 0.3])
def test_kam_iterate_full_reuses_step_unitary_bit_for_bit(g):
    levels, v = _rt1_residue(g, 10)
    got = kam_iterate_full(levels, v, max_steps=3, tol_deg=1e-3)
    want = _kam_iterate_full_recomputing(levels, v, max_steps=3, tol_deg=1e-3)
    assert got.vectors.dtype == np.float64
    assert len(got.reports) == len(want.reports)
    _assert_chains_equal(got, want)


def test_a_stack_whose_matrices_stop_at_different_steps_equals_each_run_alone():
    # Row 0 converges within the steps, row 1 is block-diagonal already (no
    # step) and row 2 diverges at its first step, so the first step runs on
    # two rows apart and the others on one: each row of the stacked run is
    # the matrix run alone, bit for bit, reports included.
    weak, strong = _rt1_residue(0.15, 10), _rt1_residue(0.3, 10)
    reference = np.concatenate([weak[0], weak[0], strong[0]])
    remainder = np.concatenate([weak[1], np.zeros_like(weak[1]), strong[1]])
    stacked = kam_iterate_full(reference, remainder, max_steps=3, tol_deg=1e-3)
    np.testing.assert_array_equal(stacked.steps, [3, 0, 1])
    np.testing.assert_array_equal(stacked.diverged, [False, False, True])
    assert len(stacked.reports) == 3
    for row in range(3):
        alone = kam_iterate_full(reference[row:row + 1], remainder[row:row + 1],
                                 max_steps=3, tol_deg=1e-3)
        _assert_chains_equal(stacked, alone, slice(row, row + 1))


@pytest.mark.parametrize("g", [0.15, 0.6])
def test_a_block_in_another_slot_order_permutes_only_the_rows_of_vectors(rng, g):
    # _kam_levels reads a level's photon number off the largest row of its
    # column of vectors, in the slot order of its chain block: the block in
    # another slot order gives the same estimate, steps and reports, and the
    # rows of vectors permuted alike.
    th = methods._CHAINS["rt_full_kam"]((ModelParams(1.0, 1.0, g),), kam_truncation(10))
    levels, v = chain_residue(th, np.flatnonzero(th.parity[0] == 1.0))
    assert np.unique(levels).size == levels.size  # no tie whose order the sort keeps
    perm = rng.permutation(levels.shape[-1])
    chain = kam_iterate_full(levels, v, max_steps=3, tol_deg=1e-3)
    permuted = kam_iterate_full(levels[:, perm], v[:, perm[:, None], perm],
                                max_steps=3, tol_deg=1e-3)
    assert chain.steps[0] >= 1
    _assert_chains_equal(permuted, replace(chain, vectors=chain.vectors[:, perm]))


# ---------------------------------------------------------------- series


def test_conjugate_by_series_matches_exact_conjugation(rng, make_hermitian):
    h = make_hermitian(rng, 16)
    w = _antisymmetric(rng, 16, scale=0.01)
    u = _exp_and_norm(w[None])[0][0]
    exact = u.T @ h @ u
    series = conjugate_by_series(h, w)
    np.testing.assert_allclose(series, exact, atol=1e-12 * np.abs(h).max())


def test_conjugate_by_series_truncation_order_controls_error(rng, make_hermitian):
    h = make_hermitian(rng, 8)
    w = _antisymmetric(rng, 8, scale=0.05)
    u = _exp_and_norm(w[None])[0][0]
    exact = u.T @ h @ u
    err1 = np.abs(conjugate_by_series(h, w, m_max=1) - exact).max()
    err4 = np.abs(conjugate_by_series(h, w, m_max=4) - exact).max()
    assert err4 < err1 * 1e-2
