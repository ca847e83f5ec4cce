"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import replace

import pytest

import checker
import run
import tracing
from workloads import WORKLOADS

if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))

from resonancekit import cli  # noqa: E402


@pytest.fixture
def workdir(request):
    """A scratch directory inside the benchmark's ignored output tree."""
    path = run.OUT / "selftest" / request.node.name
    path.mkdir(parents=True, exist_ok=True)
    return path


def _sweep(spec, workdir) -> str:
    """CSV text of the CLI run in-process on ``spec``."""
    out = workdir / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(spec.argv(str(out))) == 0
    return out.read_text(encoding="utf-8")


def _edit_row(text: str, index: int, column: int, edit) -> str:
    lines = text.splitlines()
    fields = lines[index].split(",")
    fields[column] = edit(fields[column])
    lines[index] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checker_rejects_one_wrong_energy_or_parity(name, workdir):
    spec = WORKLOADS[name].for_seed(5).shrunk(3)
    text = _sweep(spec, workdir)
    assert checker.check_sweep(spec, text).bad == set()
    rows = checker.parse_csv(text)
    for method in spec.methods:
        # level 5 of the middle g-point of this method
        index = 1 + next(k for k, r in enumerate(rows) if r.g == spec.grid[1] and r.method == method) + 5
        point = {(1, method)}
        off = _edit_row(text, index, 5, lambda e: repr(float(e) + 1e-9))
        assert checker.check_sweep(spec, off).bad == point, method
        flip = {"even": "odd", "odd": "even"}
        swapped = _edit_row(text, index, 4, lambda p: flip[p])
        assert checker.check_sweep(spec, swapped).bad == point, method


def test_checker_rejects_missing_and_reordered_points(workdir):
    spec = WORKLOADS["oracle_default"].for_seed(2).shrunk(3)
    lines = _sweep(spec, workdir).splitlines()
    per_point = spec.n_levels
    missing = "\n".join(lines[: 1 + per_point] + lines[1 + 2 * per_point:]) + "\n"
    assert (0, "jc") in checker.check_sweep(spec, missing).bad
    first, second = lines[1: 1 + per_point], lines[1 + per_point: 1 + 2 * per_point]
    swapped = "\n".join([lines[0], *second, *first, *lines[1 + 2 * per_point:]]) + "\n"
    assert checker.check_sweep(spec, swapped).bad


def test_traced_self_times_sum_to_traced_wall_within_coverage(workdir, monkeypatch):
    monkeypatch.setenv("RESONANCEKIT_THREADS", "1")  # spans nest only on one thread
    spec = WORKLOADS["oracle_default"].for_seed(1).shrunk(3)
    tracer = tracing.Tracer()
    outcome = run._in_process(cli, spec, checker.Reference(spec), workdir, tracer)
    assert outcome.failed == 0
    metrics = tracing.layer_metrics(tracer.spans, outcome.wall)
    self_total = sum(metrics[f"{layer}.self_share"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(metrics["trace_coverage"], abs=1e-9)
    assert 0.9 < metrics["trace_coverage"] <= 1.0
    # every span under a compute_levels call carries that call's point id
    spans = tracer.spans
    for span in spans:
        if span[3] >= 0 and spans[span[3]][4] >= 0:
            assert span[4] == spans[span[3]][4]
    assert metrics["methods.levels_emitted"] == spec.points() * spec.n_levels
    assert all(fn is getattr(fn, "__wrapped__", fn) for fn in vars(cli).values() if callable(fn))


def test_tracer_skips_public_names_that_no_longer_exist(monkeypatch):
    import resonancekit.kam as kam

    monkeypatch.setattr(kam, "__all__", [*kam.__all__, "deleted_function"])
    tracer = tracing.Tracer()
    with tracer:
        assert hasattr(kam.kam_step, "__wrapped__")
    assert not hasattr(kam.kam_step, "__wrapped__")


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace, workdir, monkeypatch, capsys):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    small = replace(WORKLOADS["oracle_default"], g_steps=4)
    monkeypatch.setitem(WORKLOADS, "oracle_default", small)
    monkeypatch.setattr(run, "OUT", workdir)
    monkeypatch.setenv("RESONANCEKIT_THREADS", "1")
    assert run.main(["--workload", "oracle_default", "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
