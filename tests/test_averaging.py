"""Degeneracy clustering, averaging projector, cohomological equation."""

import numpy as np
import pytest

from resonancekit.averaging import (
    DegeneracyClusters,
    cluster_levels,
    combined_projector,
    project_average,
    solve_cohomological,
)
from resonancekit.operators import (
    ModelParams,
    TruncationConfig,
    build_rabi,
)
from resonancekit.spectrum import EigenDecomposition, eigh

from dense_oracles import (
    build_effective,
    build_jaynes_cummings,
    cluster_means,
    cluster_members,
    row_error,
)


def _diag_decomp(values):
    """The decomposition of diag(values), as a stack of one."""
    values = np.asarray(values, dtype=float)[None]
    return EigenDecomposition(values=values, vectors=np.eye(values.size, dtype=complex)[None])


# ---------------------------------------------------------------- clustering


def test_cluster_degeneracies_groups_adjacent_values():
    clusters = cluster_levels(np.array([0.0, 1.0, 1.0 + 1e-12, 2.0]), tol_deg=1e-9)
    assert cluster_members(clusters.ids) == ((0,), (1, 2), (3,))
    np.testing.assert_allclose(cluster_means(clusters.values, clusters.ids), [0.0, 1.0, 2.0],
                               atol=1e-9)
    assert clusters.tol_deg == 1e-9


def test_cluster_degeneracies_chains_through_small_gaps():
    # Chaining is deliberate: consecutive gaps below tol merge transitively
    # even when the cluster ends up wider than tol.
    clusters = cluster_levels(np.array([0.0, 5e-10, 1e-9, 1.0]), tol_deg=1e-9)
    assert cluster_members(clusters.ids) == ((0, 1, 2), (3,))


def test_cluster_degeneracies_requires_positive_tol():
    with pytest.raises(ValueError, match="tol_deg must be > 0"):
        cluster_levels(np.array([0.0, 1.0]), tol_deg=0.0)


def test_co_rotating_level_crossing_forms_cluster():
    # At g = 2/(1 + sqrt(3)) the dressed levels 1 + g and 3 - g*sqrt(3)
    # coincide, so the exact decomposition acquires a two-member cluster.
    g1 = 2.0 / (1.0 + np.sqrt(3.0))
    params = ModelParams(omega=1.0, omega0=1.0, g=g1)
    decomp = eigh(build_jaynes_cummings(params, TruncationConfig(n_max=12))[None])
    clusters = cluster_levels(decomp.values, tol_deg=1e-8)
    members = cluster_members(clusters.ids[0])
    sizes = [len(c) for c in members]
    assert max(sizes) == 2
    pair = members[sizes.index(2)]
    means = cluster_means(clusters.values[0], clusters.ids[0])
    assert means[sizes.index(2)] == pytest.approx(1.0 + g1, abs=1e-8)
    assert len(pair) == 2


# ---------------------------------------------------------------- projector


def test_project_average_nondegenerate_keeps_diagonal(rng, make_hermitian):
    values = np.arange(6.0)
    decomp = _diag_decomp(values)
    clusters = cluster_levels(decomp.values, tol_deg=1e-9)
    v = make_hermitian(rng, 6)
    pv = project_average(v[None], decomp, clusters)[0]
    np.testing.assert_allclose(pv, np.diag(np.diag(v)), atol=1e-12)


def test_project_average_single_cluster_returns_v(rng, make_hermitian):
    decomp = _diag_decomp(np.zeros(5))
    clusters = cluster_levels(decomp.values, tol_deg=1.0)
    assert cluster_members(clusters.ids[0]) == ((0, 1, 2, 3, 4),)
    v = make_hermitian(rng, 5)
    np.testing.assert_allclose(project_average(v[None], decomp, clusters)[0], v, atol=1e-13)


def test_project_average_idempotent_hermitian_commutant(
    rng, make_hermitian, make_degenerate_reference
):
    h0, _ = make_degenerate_reference(rng, (3, 2, 1, 4), spacing=1.0)
    decomp = eigh(h0[None])
    clusters = cluster_levels(decomp.values, tol_deg=1e-8)
    assert tuple(len(c) for c in cluster_members(clusters.ids[0])) == (3, 2, 1, 4)
    v = make_hermitian(rng, 10)
    pv = project_average(v[None], decomp, clusters)[0]
    ppv = project_average(pv[None], decomp, clusters)[0]
    assert np.abs(ppv - pv).max() <= 1e-12
    assert np.abs(pv - pv.conj().T).max() <= 1e-12
    comm = h0 @ pv - pv @ h0
    bound = 1e-10 * np.linalg.norm(h0, 2) * np.linalg.norm(v, 2)
    assert np.abs(comm).max() <= bound


def test_project_average_invariant_under_degenerate_remixing(
    rng, make_hermitian, make_degenerate_reference
):
    # The projector depends only on the degenerate subspaces, not on the
    # arbitrary eigenvector basis the solver picked inside them.
    h0, _ = make_degenerate_reference(rng, (3, 2, 2), spacing=1.0)
    decomp = eigh(h0[None])
    clusters = cluster_levels(decomp.values, tol_deg=1e-8)
    v = make_hermitian(rng, 7)
    pv = project_average(v[None], decomp, clusters)[0]

    mixed = decomp.vectors.copy()
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    mixed[0, :, :3] = mixed[0, :, :3] @ q
    remixed = EigenDecomposition(values=decomp.values, vectors=mixed)
    pv2 = project_average(v[None], remixed, clusters)[0]
    assert np.abs(pv - pv2).max() <= 1e-12


# ---------------------------------------------------------------- cohomology


def test_solve_cohomological_two_level():
    decomp = _diag_decomp([0.0, 1.0])
    clusters = cluster_levels(decomp.values, tol_deg=1e-9)
    v = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    w = solve_cohomological(v[None], decomp, clusters)[0]
    np.testing.assert_allclose(w, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-14)
    h0 = np.diag(decomp.values[0])
    d = project_average(v[None], decomp, clusters)[0]
    np.testing.assert_allclose(h0 @ w - w @ h0 + v, d, atol=1e-14)


def test_solve_cohomological_fully_degenerate_gives_zero(rng, make_hermitian):
    decomp = _diag_decomp(np.zeros(4))
    clusters = cluster_levels(decomp.values, tol_deg=1.0)
    v = make_hermitian(rng, 4)
    w = solve_cohomological(v[None], decomp, clusters)[0]
    np.testing.assert_array_equal(w, np.zeros((4, 4)))
    np.testing.assert_allclose(project_average(v[None], decomp, clusters)[0], v, atol=1e-13)


def test_solve_cohomological_random_residual(rng, make_hermitian, make_degenerate_reference):
    h0, _ = make_degenerate_reference(rng, (4, 4, 4, 4), spacing=0.7)
    decomp = eigh(h0[None])
    clusters = cluster_levels(decomp.values, tol_deg=1e-8)
    v = make_hermitian(rng, 16, scale=0.3)
    w = solve_cohomological(v[None], decomp, clusters)[0]
    assert np.abs(w + w.conj().T).max() <= 1e-12
    # In-cluster blocks of W vanish.
    w_eig = decomp.vectors[0].conj().T @ w @ decomp.vectors[0]
    for cluster in cluster_members(clusters.ids[0]):
        block = w_eig[np.ix_(cluster, cluster)]
        assert np.abs(block).max() <= 1e-12
    d = project_average(v[None], decomp, clusters)[0]
    residual = h0 @ w - w @ h0 + v - d
    assert np.linalg.norm(residual, 2) <= 1e-10 * np.linalg.norm(v, 2)


def test_solve_cohomological_rejects_inconsistent_clustering():
    decomp = _diag_decomp([0.0, 1e-12, 1.0])
    bad = DegeneracyClusters(
        values=decomp.values,
        ids=np.array([[0, 1, 2]]),
        tol_deg=1e-9,
    )
    v = np.ones((1, 3, 3), dtype=complex)
    with pytest.raises(ValueError, match="clustering inconsistency"):
        raise row_error(solve_cohomological, v, decomp, bad)


# ---------------------------------------------------------------- effective


def test_build_effective_reproduces_co_rotating_model():
    # Averaging the full coupling over the decoupled reference keeps exactly
    # the co-rotating half: the effective operator IS the pair-block model.
    params = ModelParams(omega=1.0, omega0=1.0, g=0.3)
    trunc = TruncationConfig(n_max=12)
    h_free = build_rabi(ModelParams(1.0, 1.0, 0.0), trunc)
    v = build_rabi(params, trunc) - h_free
    decomp = eigh(h_free[None])
    clusters = cluster_levels(decomp.values, tol_deg=1e-8)
    h_eff = build_effective(h_free[None], v[None], decomp, clusters)[0]
    h_jc = build_jaynes_cummings(params, trunc)
    assert np.array_equal(h_eff, h_eff.conj().T)
    np.testing.assert_allclose(h_eff, h_jc, atol=1e-12)


# ---------------------------------------------------------------- combined


def test_combined_projector_takes_union_of_diagonal_supports(rng, make_hermitian):
    v = make_hermitian(rng, 3)
    fam = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0])]
    combined = combined_projector(v, fam, tol_deg=1e-9)
    mask = np.array(
        [[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool
    )
    np.testing.assert_allclose(combined, np.where(mask, v, 0.0), atol=1e-14)
    # Projecting a second time changes nothing.
    np.testing.assert_allclose(
        combined_projector(combined, fam, tol_deg=1e-9), combined, atol=1e-14
    )


def test_combined_projector_validates_family(rng, make_hermitian):
    v = make_hermitian(rng, 4)
    with pytest.raises(ValueError, match="H0_family must not be empty"):
        combined_projector(v, [])
    with pytest.raises(ValueError, match="dimension mismatch"):
        combined_projector(v, [np.zeros(3)])
    # Members are diagonals; a matrix member is rejected, diagonal or not.
    with pytest.raises(ValueError, match="dimension mismatch"):
        combined_projector(v, [np.arange(4.0), np.diag(np.arange(4.0))])


def test_combined_projector_keeps_positions_of_equal_member_levels(rng, make_hermitian):
    v = make_hermitian(rng, 10)
    diags = [rng.integers(0, 4, size=10).astype(float) for _ in range(3)]
    mask = np.any([d[:, None] == d[None, :] for d in diags], axis=0)
    combined = combined_projector(v, diags, tol_deg=1e-9)
    np.testing.assert_array_equal(combined, np.where(mask, v, 0.0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        combined_projector(v, [np.zeros(9)])


def test_cluster_levels_matches_sequential_gap_rule(rng):
    values = np.sort(np.round(rng.uniform(0.0, 3.0, size=40), 1))
    values[5] += 1e-11
    tol = 1e-9
    expect = [[0]]
    for i in range(1, values.size):
        if values[i] - values[i - 1] <= tol:
            expect[-1].append(i)
        else:
            expect.append([i])
    clusters = cluster_levels(values, tol)
    assert cluster_members(clusters.ids) == tuple(tuple(c) for c in expect)
    np.testing.assert_allclose(cluster_means(clusters.values, clusters.ids),
                               [values[c].mean() for c in expect], rtol=1e-15)
