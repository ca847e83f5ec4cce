"""Release gate: one test per acceptance criterion, one verdict line each.

Every test prints ``[criterion N] PASS/FAIL`` with the measured numbers and
then asserts.  Thresholds marked "frozen" come from a one-time calibration
against the exact oracle; demos/calibrate_thresholds.py regenerates all of
them.  Criterion 6 checks that the analytic resonance theory locates the
exact avoided crossings: the measured minima lie within 0.05 of the
second-stage locus (the ladder dressed by the counter-rotating term), below
the first-order locus and closer to the second-stage one.  The verdict line
prints the shift from both loci.
"""

import time

import numpy as np

from resonancekit.cli import main as cli_main
from resonancekit.closedform import resonance_loci, second_order_locus
from resonancekit.kam import W_NORM_DIVERGENCE, kam_iterate_full
from resonancekit.methods import (
    grid_sweep,
    kam_truncation,
    rabi_rt1_chain,
    rabi_rt2_chain,
)
from resonancekit.operators import (
    ATOM_MINUS,
    ATOM_PLUS,
    ModelParams,
    TruncationConfig,
    basis_index,
    build_rabi,
)
from resonancekit.sweep import (
    CSV_HEADER,
    SweepConfig,
    compare_methods,
    resonance_report,
    run_sweep,
    table_to_csv,
)

from dense_oracles import (
    averaged_in_basis,
    build_parity,
    chain_residue,
    isometry_matrix,
    levels_from_chain,
    strong_avg_decomposition,
    strong_rt_chain,
)
from row_reference import csv_to_table, table_rows

# Frozen regression ceilings (one-time oracle calibration; regenerate with
# demos/calibrate_thresholds.py).  Measured maxima in the comments.
JC_MAX_WEAK = 8.0e-2      # measured 5.659e-2 on g in [0, 0.25], lowest 10
RT1_KAM_MAX = 4.0e-2      # measured 3.148e-2
JC_MAX_06 = 5.5e-1        # measured 4.679e-1 on g in [0, 0.6], lowest 10
RT2_MAX = 4.5e-1          # measured 3.957e-1
STRONG_AVG_MAX = 7.0e-2   # measured 5.344e-2 on g in [1.5, 3], lowest 8
STRONG_RT_MAX = 1.3e-1    # measured 1.008e-1 on g in [0, 3], lowest 8


def _verdict(criterion: int, ok: bool, detail: str) -> str:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def test_criterion_1_projector_cohomology_suite(
    rng, make_hermitian, make_degenerate_reference
):
    start = time.perf_counter()
    worst = {"idem": 0.0, "comm": 0.0, "resid": 0.0, "anti": 0.0}
    for _ in range(50):
        sizes = tuple(
            int(rng.integers(1, 5)) for _ in range(int(rng.integers(3, 17)))
        )
        dim = sum(sizes)
        assert dim <= 64
        h0, _ = make_degenerate_reference(rng, sizes, spacing=1.0)
        v = make_hermitian(rng, dim)
        v_norm = np.linalg.norm(v, 2)
        # h0 is rotated: average and solve in its eigenbasis, check here
        pv, w = averaged_in_basis(h0, v, 1e-8)
        ppv = averaged_in_basis(h0, pv, 1e-8)[0]
        worst["idem"] = max(worst["idem"], np.abs(ppv - pv).max() / max(1.0, v_norm))
        comm = np.linalg.norm(h0 @ pv - pv @ h0, 2)
        worst["comm"] = max(
            worst["comm"], comm / (np.linalg.norm(h0, 2) * v_norm)
        )
        worst["anti"] = max(worst["anti"], np.abs(w + w.conj().T).max())
        residual = np.linalg.norm(h0 @ w - w @ h0 + v - pv, 2)
        worst["resid"] = max(worst["resid"], residual / v_norm)
    elapsed = time.perf_counter() - start
    ok = (
        worst["idem"] <= 1e-12
        and worst["comm"] <= 1e-10
        and worst["resid"] <= 1e-10
        and worst["anti"] <= 1e-12
        and elapsed < 10.0
    )
    line = _verdict(
        1,
        ok,
        f"50 random pairs (dim <= 64): idempotence {worst['idem']:.1e}, "
        f"commutant {worst['comm']:.1e}, residual {worst['resid']:.1e}, "
        f"anti-hermiticity {worst['anti']:.1e}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_2_kam_quadratic_contraction():
    start = time.perf_counter()
    params = ModelParams(omega=1.0, omega0=1.0, g=0.15)
    trunc = kam_truncation(10)
    levels, v_unit = chain_residue(rabi_rt1_chain((params,), trunc))
    v_unit = v_unit / np.linalg.norm(v_unit[0], 2)
    afters = {}
    for eps in (1e-1, 1e-2):
        step = kam_iterate_full(levels, eps * v_unit, max_steps=1, tol_deg=1e-3)
        afters[eps] = step.reports[0].residual_after[0]
    ratio = afters[1e-1] / afters[1e-2]
    quadratic = 50.0 <= ratio <= 200.0

    strong = ModelParams(omega=1.0, omega0=1.0, g=0.3)
    chain = kam_iterate_full(*chain_residue(rabi_rt1_chain((strong,), trunc)),
                             max_steps=3, tol_deg=1e-3)
    flagged = chain.diverged[0] and any(
        r.w_norm[0] > W_NORM_DIVERGENCE for r in chain.reports
    )
    elapsed = time.perf_counter() - start
    ok = quadratic and flagged and elapsed < 30.0
    line = _verdict(
        2,
        ok,
        f"residual ratio at eps 1e-1/1e-2 = {ratio:.1f} (expect ~100, "
        f"factor-2 band [50, 200]), divergence flagged at g=0.3: {flagged}, "
        f"{elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_3_closed_form_matrix_equivalence():
    start = time.perf_counter()
    trunc = TruncationConfig(n_max=80)
    n_levels = 12
    worst: dict[str, float] = {}
    label_mismatches = []
    couplings = (0.1, 0.4, 1.0, 2.0)
    closed_forms = {
        method: grid_sweep(method, 1.0, 1.0, couplings, trunc, n_levels)
        for method in ("jc", "rt2", "strong_avg", "strong_rt")
    }
    assert all(s.ok.all() for s in closed_forms.values()), {
        m: s.errors for m, s in closed_forms.items()
    }
    for i, g in enumerate(couplings):
        params = ModelParams(omega=1.0, omega0=1.0, g=g)
        matrix_levels = {
            "jc": levels_from_chain(rabi_rt1_chain((params,), trunc), n_levels),
            "rt2": levels_from_chain(rabi_rt2_chain((params,), trunc), n_levels),
            "strong_avg": None,
            "strong_rt": levels_from_chain(strong_rt_chain(params, trunc), n_levels),
        }
        for method, levels in matrix_levels.items():
            closed = closed_forms[method]
            if levels is None:
                matrix = strong_avg_decomposition(params, trunc)[0].values[0, :n_levels]
            else:
                matrix = [energy for _, _, energy in levels]
                if [parity for _, parity, _ in levels] != closed.parities(i).tolist():
                    label_mismatches.append((method, g))
            diff = float(np.abs(closed.energies[i] - matrix).max())
            worst[method] = max(worst.get(method, 0.0), diff)
    elapsed = time.perf_counter() - start
    ok = all(d <= 1e-8 for d in worst.values()) and not label_mismatches and elapsed < 60.0
    line = _verdict(
        3,
        ok,
        "max |closed - matrix| over g in {0.1, 0.4, 1.0, 2.0}: "
        + ", ".join(f"{m} {d:.1e}" for m, d in worst.items())
        + f" (tol 1e-8); jc, rt2, strong_rt chain parity labels equal the "
        f"closed forms': {not label_mismatches} (differing: {label_mismatches}), "
        f"{elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_4_weak_coupling_accuracy_ordering():
    start = time.perf_counter()
    config = SweepConfig(g_min=0.0, g_max=0.25, g_steps=26, n_max=60,
                         n_levels=10, methods=("exact", "jc", "rt1_kam"))
    stats = compare_methods(run_sweep(config))
    jc_weak, rt1_kam = stats["jc"][0], stats["rt1_kam"][0]

    config = SweepConfig(g_min=0.0, g_max=0.6, g_steps=61, n_max=60,
                         n_levels=10, methods=("exact", "jc", "rt2"))
    stats = compare_methods(run_sweep(config))
    jc_06, rt2 = stats["jc"][0], stats["rt2"][0]
    elapsed = time.perf_counter() - start
    ok = (
        rt1_kam < jc_weak
        and rt2 < jc_06
        and jc_weak <= JC_MAX_WEAK
        and rt1_kam <= RT1_KAM_MAX
        and jc_06 <= JC_MAX_06
        and rt2 <= RT2_MAX
        and elapsed < 120.0
    )
    line = _verdict(
        4,
        ok,
        f"[0, 0.25]: rt1_kam {rt1_kam:.2e} < jc {jc_weak:.2e} "
        f"(ceilings {RT1_KAM_MAX:.1e}/{JC_MAX_WEAK:.1e}); "
        f"[0, 0.6]: rt2 {rt2:.2e} < jc {jc_06:.2e} "
        f"(ceilings {RT2_MAX:.1e}/{JC_MAX_06:.1e}), {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_5_strong_coupling_accuracy():
    start = time.perf_counter()
    config = SweepConfig(g_min=1.5, g_max=3.0, g_steps=16, n_max=120,
                         n_levels=8, methods=("exact", "strong_avg"))
    stats = compare_methods(run_sweep(config))
    avg_high = stats["strong_avg"][0]

    config = SweepConfig(g_min=0.0, g_max=3.0, g_steps=31, n_max=120,
                         n_levels=8, methods=("exact", "strong_avg", "strong_rt"))
    table = run_sweep(config)
    stats = compare_methods(table)
    rt_full = stats["strong_rt"][0]

    # per-point strict ordering below g = 0.5 (both methods are exact at
    # g = 0, so the strict comparison runs over the nonzero grid points)
    by_point: dict[tuple[float, str], list[float]] = {}
    for row in table_rows(table):
        by_point.setdefault((row.g, row.method), []).append(row.energy)
    ordering = True
    checked = 0
    for g in sorted({k[0] for k in by_point}):
        if not 0.0 < g < 0.5:
            continue
        exact = np.array(sorted(by_point[(g, "exact")]))
        err_avg = np.abs(np.array(sorted(by_point[(g, "strong_avg")])) - exact).max()
        err_rt = np.abs(np.array(sorted(by_point[(g, "strong_rt")])) - exact).max()
        ordering = ordering and err_rt < err_avg
        checked += 1
    elapsed = time.perf_counter() - start
    ok = (
        avg_high <= STRONG_AVG_MAX
        and rt_full <= STRONG_RT_MAX
        and ordering
        and checked >= 3
        and elapsed < 120.0
    )
    line = _verdict(
        5,
        ok,
        f"strong_avg {avg_high:.2e} on [1.5, 3] (ceiling {STRONG_AVG_MAX:.1e}), "
        f"strong_rt {rt_full:.2e} on [0, 3] (ceiling {STRONG_RT_MAX:.1e}), "
        f"strict strong_rt < strong_avg at {checked} points in (0, 0.5): "
        f"{ordering}, {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_6_resonance_loci():
    start = time.perf_counter()
    first_shifts: dict[int, float] = {}
    second_shifts: dict[int, float] = {}
    for locus in resonance_loci(range(1, 4), 1.0):
        if locus.kind != "active":
            continue
        config = SweepConfig(
            g_min=locus.g - 0.15, g_max=locus.g + 0.15, g_steps=151,
            n_max=60, n_levels=14,
        )
        _, reports, _ = resonance_report(config)
        rep = next(
            r for r in reports if r.kind == "active" and r.n == locus.n
        )
        first_shifts[locus.n] = rep.min_gap_g - locus.g
        second_shifts[locus.n] = rep.min_gap_g - second_order_locus(locus.n, 1.0)
    within = {n: abs(s) <= 0.05 for n, s in second_shifts.items()}
    # the counter-rotating term pulls the crossing below the first-order
    # locus, and the second-stage locus accounts for that shift
    explained = {
        n: first_shifts[n] < 0.0 and abs(second_shifts[n]) < abs(first_shifts[n])
        for n in first_shifts
    }

    # mute loci: the degenerate pair exists but nothing couples it
    mute_ok = True
    trunc = TruncationConfig(n_max=40)
    for locus in resonance_loci(range(1, 4), 1.0):
        if locus.kind != "mute":
            continue
        params = ModelParams(omega=1.0, omega0=1.0, g=locus.g)
        th = rabi_rt1_chain((params,), trunc)
        levels = th.levels[0]
        i = basis_index(locus.n, ATOM_PLUS)
        j = basis_index(locus.n + 1, ATOM_MINUS)
        degenerate = abs(levels[i] - levels[j]) <= 1e-12
        coupling = abs((th.operator[0] - np.diag(levels))[i, j])
        mute_ok = mute_ok and degenerate and coupling < 1e-10
    elapsed = time.perf_counter() - start
    ok = (
        len(within) == 3
        and all(within.values())
        and all(explained.values())
        and mute_ok
        and elapsed < 120.0
    )

    def listing(shifts):
        return ", ".join(f"n={n}: {s:+.4f}" for n, s in sorted(shifts.items()))

    line = _verdict(
        6,
        ok,
        f"min-gap shift from second-order locus: {listing(second_shifts)} "
        f"(required |shift| <= 0.05); from first-order locus: "
        f"{listing(first_shifts)} (required negative and larger in size: "
        f"{all(explained.values())}), mute pairs uncoupled: {mute_ok}, "
        f"{elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_7_isometry_parity_structure():
    start = time.perf_counter()
    params = ModelParams(omega=1.0, omega0=1.0, g=0.35)
    trunc = TruncationConfig(n_max=24)
    dim = trunc.dim
    eye = np.eye(dim)

    def projector(*indices):
        p = np.zeros((dim, dim))
        for idx in indices:
            p[idx, idx] = 1.0
        return p

    h = build_rabi(params, trunc)
    p = build_parity(trunc)
    parity_exact = np.array_equal(h @ p, p @ h)

    th1 = rabi_rt1_chain((params,), trunc)
    r1 = isometry_matrix(th1.records[0], dim)
    rt1_exact = np.array_equal(
        r1 @ r1.conj().T, eye - projector(basis_index(trunc.n_max, ATOM_PLUS))
    ) and np.array_equal(
        r1.conj().T @ r1, eye - projector(basis_index(0, ATOM_PLUS))
    )

    th2 = rabi_rt2_chain((params,), trunc)
    r2 = isometry_matrix(th2.records[1], dim)
    rt2_defect = max(
        np.abs(
            r2.conj().T @ r2
            - (eye - projector(basis_index(1, ATOM_PLUS),
                               basis_index(2, ATOM_PLUS)))
        ).max(),
        np.abs(
            r2 @ r2.conj().T
            - (eye - projector(basis_index(trunc.n_max - 1, ATOM_PLUS),
                               basis_index(trunc.n_max, ATOM_PLUS)))
        ).max(),
    )

    counts = (th1.records[0].kernel_slots.size, th2.records[1].kernel_slots.size)
    elapsed = time.perf_counter() - start
    ok = (
        parity_exact
        and rt1_exact
        and rt2_defect <= 1e-14
        and counts == (1, 2)
        and elapsed < 10.0
    )
    line = _verdict(
        7,
        ok,
        f"[P, H] commutes exactly: {parity_exact}; shift-isometry identities "
        f"exact (one-photon {rt1_exact}, two-photon "
        f"defect {rt2_defect:.1e} from rounding in the reflection block); "
        f"spurious counts {counts} (expect (1, 2)), {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_8_cli_default_sweep(tmp_path):
    start = time.perf_counter()
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    codes = [cli_main(["sweep", "--out", str(path)]) for path in paths]
    texts = [path.read_text(encoding="utf-8") for path in paths]
    elapsed = time.perf_counter() - start

    config = SweepConfig()
    table = csv_to_table(texts[0])
    expected_rows = config.g_steps * len(config.methods) * config.n_levels
    schema_ok = (
        texts[0].splitlines()[0] == CSV_HEADER
        and len(table_rows(table)) == expected_rows
        and table_to_csv(table) == texts[0]
        and not any(r.spurious for r in table_rows(table))
    )
    ok = (
        codes == [0, 0]
        and texts[0] == texts[1]
        and schema_ok
        and elapsed < 60.0
    )
    line = _verdict(
        8,
        ok,
        f"two default sweeps (151 g-points x 3 methods x {config.n_levels} "
        f"levels): exit codes {codes}, byte-identical: {texts[0] == texts[1]}, "
        f"schema round-trip ok: {schema_ok}, {elapsed:.1f}s total",
    )
    assert ok, line
