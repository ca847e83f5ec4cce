"""Command-line interface: exit codes, output files, stdout contract."""

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from resonancekit import sweep
from resonancekit.cli import main
from resonancekit.methods import grid_sweep
from resonancekit.operators import TruncationConfig
from resonancekit.sweep import (
    CSV_HEADER,
    ERROR_CSV_HEADER,
    LOCUS_CSV_HEADER,
    SweepConfig,
    compare_methods,
    run_sweep,
    table_to_csv,
)

from row_reference import csv_to_table, table_rows

_SMALL = ["--g-max", "0.2", "--g-steps", "3", "--n-max", "12", "--levels", "4"]


def test_sweep_writes_csv_and_reports_row_count(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", *_SMALL, "--methods", "exact,jc", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == f"wrote {out}: 24 rows, 0 failed points\n"
    assert captured.err == ""
    table = csv_to_table(out.read_text(encoding="utf-8"))
    assert len(table_rows(table)) == 24
    assert {r.method for r in table_rows(table)} == {"exact", "jc"}


def test_sweep_file_is_the_csv_of_run_sweep(tmp_path, capsys):
    out = tmp_path / "out.csv"
    rc = main(["sweep", *_SMALL, "--methods", "exact", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    config = SweepConfig(g_max=0.2, g_steps=3, n_max=12, n_levels=4, methods=("exact",))
    text = out.read_text(encoding="utf-8")
    assert text == table_to_csv(run_sweep(config))
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 1 + 3 * 4


def test_sweep_with_empty_output_path_says_no_file_was_written(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["sweep", *_SMALL, "--methods", "jc", "--out", ""])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "wrote no file: 12 rows, 0 failed points\n"
    assert list(tmp_path.iterdir()) == []
    # failures are still counted
    assert main(["sweep", *_SMALL, "--omega0", "0.5", "--methods", "exact,jc", "--out", ""]) == 1
    assert capsys.readouterr().out == "wrote no file: 12 rows, 3 failed points\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_failed_points_exit_1(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", *_SMALL, "--omega0", "0.5",
               "--methods", "exact,jc", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "3 failed points" in captured.out
    assert "method=jc" in captured.err
    # successful rows are still written
    table = csv_to_table(out.read_text(encoding="utf-8"))
    assert {r.method for r in table_rows(table)} == {"exact"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_strong_rt_computes_zero_coupling_at_a_tiny_omega(tmp_path, capsys):
    # (2g/omega)^2 stays finite where omega*omega underflows to 0; every
    # g > 0 of the default grid is out of the table's range at this omega.
    out = tmp_path / "tiny.csv"
    rc = main(["sweep", "--omega", "1e-300", "--omega0", "1e-300",
               "--methods", "strong_rt", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "g=0 " not in captured.err and "RuntimeWarning" not in captured.err
    rows = table_rows(csv_to_table(out.read_text(encoding="utf-8")))
    assert [r.g for r in rows] == [0.0] * 12
    assert rows[0].energy == 0.0 and rows[-1].energy == 6e-300


def test_exact_writes_the_couplings_whose_guard_band_is_representable(tmp_path, capsys):
    # g = 5e199 and 1e200 square past float range in the guard band and fail
    # alone; g = 0 is solved and written.
    out = tmp_path / "huge.csv"
    rc = main(["sweep", "--g-max", "1e200", "--g-steps", "3", "--methods", "exact",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == f"wrote {out}: 12 rows, 2 failed points\n"
    assert "g=0 " not in captured.err and captured.err.count("OverflowError") == 2
    rows = table_rows(csv_to_table(out.read_text(encoding="utf-8")))
    expected = grid_sweep("exact", 1.0, 1.0, [0.0], TruncationConfig(n_max=60), 12)
    assert [r.g for r in rows] == [0.0] * 12
    assert [r.energy for r in rows] == expected.energies[0].tolist()


def test_invalid_grid_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--g-steps", "0", "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "configuration error" in captured.err
    assert "g_steps" in captured.err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["sweep", "compare", "resonances"])
def test_repeated_coupling_grid_exits_2(tmp_path, capsys, command):
    # Three steps from 0.5 to 0.5 would emit every row three times.
    out = tmp_path / "x.csv"
    rc = main([command, "--g-min", "0.5", "--g-max", "0.5", "--g-steps", "3",
               "--n-max", "12", "--levels", "2", "--methods", "exact,jc", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "strictly increasing" in captured.err
    assert not out.exists()


def test_single_point_grid_is_valid(tmp_path, capsys):
    out = tmp_path / "x.csv"
    rc = main(["compare", "--g-min", "0.5", "--g-max", "0.5", "--g-steps", "1",
               "--n-max", "12", "--levels", "2", "--methods", "exact,jc", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == "exact: max |dE| = 0, mean |dE| = 0 over 2 pairs"


@pytest.mark.parametrize("flag, value", [("--omega0", "nan"), ("--g-max", "inf")])
def test_non_finite_parameter_exits_2(tmp_path, capsys, flag, value):
    rc = main(["sweep", *_SMALL, flag, value, "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "must be finite" in captured.err
    assert not (tmp_path / "x.csv").exists()


def test_unknown_method_exits_2(tmp_path, capsys):
    rc = main(["sweep", *_SMALL, "--methods", "exact,bogus",
               "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "unknown entries ['bogus']" in captured.err


def test_compare_prints_per_method_stats(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = main(["compare", "--g-max", "0.25", "--g-steps", "6", "--n-max", "24",
               "--levels", "6", "--methods", "exact,jc", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.splitlines()
    assert lines[0] == "exact: max |dE| = 0, mean |dE| = 0 over 36 pairs"
    assert lines[1].startswith("jc: max |dE| = ")
    assert lines[1].endswith("over 36 pairs")
    assert out.exists()
    errors = tmp_path / "run_errors.csv"
    assert errors.read_text(encoding="utf-8").splitlines()[0] == ERROR_CSV_HEADER


def test_compare_without_exact_exits_2(tmp_path, capsys):
    rc = main(["compare", *_SMALL, "--methods", "jc",
               "--out", str(tmp_path / "run.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "needs the exact baseline" in captured.err
    assert not (tmp_path / "run.csv").exists()  # rejected before the sweep


@pytest.mark.parametrize("command", ["sweep", "compare", "resonances"])
def test_output_path_that_cannot_be_opened_exits_2_before_any_method_runs(
    tmp_path, capsys, monkeypatch, command
):
    calls = []
    monkeypatch.setattr(sweep, "grid_sweep", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "x.csv"
    rc = main([command, *_SMALL, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("configuration error: ")
    assert str(out.parent) in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_compare_error_table_that_cannot_be_opened_exits_2_before_any_method_runs(
    tmp_path, capsys, monkeypatch
):
    calls = []
    monkeypatch.setattr(sweep, "grid_sweep", lambda *args: calls.append(args))
    (tmp_path / "run_errors.csv").mkdir()
    rc = main(["compare", *_SMALL, "--out", str(tmp_path / "run.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("configuration error: ")
    assert "run_errors.csv" in captured.err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["run_errors.csv"]


@pytest.mark.parametrize(
    "out, errors",
    [("run.csv", "run_errors.csv"), ("run", "run_errors.csv"),
     ("res.d/run", "res.d/run_errors.csv"), ("res.d/run.csv", "res.d/run_errors.csv")],
)
def test_compare_writes_errors_next_to_the_output(tmp_path, capsys, monkeypatch, out, errors):
    # The suffix is replaced only in the file name, never at a dot of a directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "res.d").mkdir()
    assert main(["compare", *_SMALL, "--out", out]) == 0
    capsys.readouterr()
    assert (tmp_path / out).exists()
    assert (tmp_path / errors).read_text(encoding="utf-8").splitlines()[0] == ERROR_CSV_HEADER
    files = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
    assert files == sorted([out, errors])


def test_compare_with_empty_output_path_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = SweepConfig(g_max=0.2, g_steps=3, n_max=12, n_levels=4)
    assert compare_methods(run_sweep(config))["exact"] == (0.0, 0.0, 3 * 4)
    rc = main(["compare", *_SMALL, "--out", ""])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.startswith("exact: max |dE| = 0, mean |dE| = 0 over 12 pairs\n")
    assert list(tmp_path.iterdir()) == []


def test_threads_variable_has_no_effect(tmp_path, capsys, monkeypatch):
    outputs = []
    for value in (None, "abc"):
        if value is None:
            monkeypatch.delenv("RESONANCEKIT_THREADS", raising=False)
        else:
            monkeypatch.setenv("RESONANCEKIT_THREADS", value)
        out = tmp_path / f"{value}.csv"
        rc = main(["sweep", *_SMALL, "--methods", "rt1", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_resonances_prints_and_writes(tmp_path, capsys, monkeypatch):
    # "sweep.csv" equals the default output path; naming it still writes it.
    monkeypatch.chdir(tmp_path)
    for name in ("loci.csv", "sweep.csv"):
        rc = main(["resonances", "--g-max", "0.4", "--g-steps", "21",
                   "--n-max", "20", "--levels", "6", "--out", name])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.out.splitlines()[0] == LOCUS_CSV_HEADER
        assert (tmp_path / name).read_text(encoding="utf-8") == captured.out


@pytest.mark.parametrize("name", ["loci.csv", "sweep.csv"])
def test_resonances_writes_the_config_files_output_path(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"g_max=0.4\ng_steps=21\nn_max=20\nn_levels=6\noutput_path={name}\n")
    rc = main(["resonances", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 0
    assert (tmp_path / name).read_text(encoding="utf-8") == captured.out


def test_resonances_default_is_stdout_only(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = main(["resonances", "--g-max", "0.4", "--g-steps", "21",
               "--n-max", "20", "--levels", "6"])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.splitlines()[0] == LOCUS_CSV_HEADER
    assert list(tmp_path.iterdir()) == []  # nothing written without --out


@pytest.mark.parametrize("argv, failed", [
    (["--n-max", "20", "--g-max", "3.0", "--g-steps", "61"], 45),
    (["--n-max", "10", "--levels", "30", "--g-steps", "11", "--g-max", "1.0"], 11),
])
def test_resonances_reports_failed_exact_couplings_and_exits_1(capsys, argv, failed):
    # The guard band validates fewer levels than requested at these
    # couplings; the loci are still measured on the others.
    rc = main(["resonances", *argv])
    captured = capsys.readouterr()
    assert rc == 1
    lines = captured.err.splitlines()
    assert len(lines) == failed
    assert all(line.startswith("failed: g=") and " method=exact: ValueError: " in line
               for line in lines)
    assert captured.out.splitlines()[0] == LOCUS_CSV_HEADER


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("g_max=0.6\ng_steps=4\nn_max=16\nn_levels=4\nmethods=exact\n")
    out = tmp_path / "out.csv"
    rc = main(["sweep", "--config", str(cfg), "--g-max", "0.3", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == f"wrote {out}: 16 rows, 0 failed points\n"
    table = csv_to_table(out.read_text(encoding="utf-8"))
    assert max(r.g for r in table_rows(table)) == 0.3  # flag beats the file value


@pytest.mark.parametrize("key", ["tol_deg", "tol_active"])
def test_config_file_unknown_key_exits_2(tmp_path, capsys, key):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"g_steps=4\n{key}=1e-3\n")
    rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"unknown key '{key}'" in captured.err
    assert not (tmp_path / "x.csv").exists()


def test_missing_config_file_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--config", str(tmp_path / "absent.cfg"),
               "--out", str(tmp_path / "x.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "configuration error" in captured.err


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--g-max", "0.25", "--g-steps", "6", "--n-max", "24",
            "--levels", "6", "--methods", "exact,jc"]
    assert main([*args, "--out", str(a)]) == 0
    assert main([*args, "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_console_script_entry_point(tmp_path):
    """The script declared in pyproject.toml, run through the wrapper an
    installer generates for it; needs no installed package."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["resonancekit"]
    module_name, _, func_name = target.partition(":")
    assert callable(getattr(importlib.import_module(module_name), func_name))

    script = tmp_path / "resonancekit"
    script.write_text(
        f"import sys\nfrom {module_name} import {func_name}\n"
        f"if __name__ == '__main__':\n    sys.exit({func_name}())\n",
        encoding="utf-8",
    )
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, str(script), "sweep", *_SMALL, "--methods", "exact",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"wrote {out}: 12 rows")
    assert out.exists()

    bad = tmp_path / "bad.csv"
    proc = subprocess.run(
        [sys.executable, str(script), "sweep", *_SMALL, "--omega0", "nan",
         "--out", str(bad)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "must be finite" in proc.stderr
    assert not bad.exists()


@pytest.mark.skipif(
    shutil.which("resonancekit") is None,
    reason="resonancekit console script not installed (pip install -e .)",
)
def test_installed_console_script(tmp_path):
    exe = shutil.which("resonancekit")
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [exe, "sweep", *_SMALL, "--methods", "exact", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(f"wrote {out}: 12 rows")
    assert out.exists()


def test_module_invocation(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "resonancekit.cli", "sweep", *_SMALL,
         "--methods", "exact", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert out.exists()


_LAZY_MODULES = (
    "import sys\n"
    "import resonancekit.cli\n"
    "imported = [m for m in ('numpy.strings', 'numpy.ma') if m in sys.modules]\n"
    "resonancekit.cli.main(sys.argv[1:])\n"
    "print(imported, 'numpy.ma' in sys.modules)\n"
)


def _run_src(tmp_path, *args):
    src = str(Path(sweep.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_import_and_closed_form_sweep_leave_numpy_submodules_unloaded(tmp_path):
    # numpy.ma alone takes about 12 ms to import, a share of every CLI run's
    # start-up: neither the import nor a closed-form sweep may load it.
    proc = _run_src(tmp_path, "-c", _LAZY_MODULES, "sweep", *_SMALL,
                    "--methods", "jc,rt2,strong_avg,strong_rt", "--out", "sweep.csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] False"


_CHAIN_LAYER = ("resonancekit.averaging", "resonancekit.kam", "resonancekit.transforms")

_LOADED_LAYERS = (
    "import sys\n"
    "import resonancekit.cli\n"
    "status = resonancekit.cli.main(sys.argv[1:])\n"
    f"print(status, [m for m in {_CHAIN_LAYER!r} if m in sys.modules])\n"
)


@pytest.mark.parametrize("argv, loaded", [
    (["compare", *_SMALL], []),
    (["resonances", *_SMALL], []),
    (["sweep", *_SMALL, "--methods", "exact,jc,rt1,rt2,strong_avg,strong_rt"], []),
    (["sweep", *_SMALL, "--methods", "rt1_kam"], list(_CHAIN_LAYER)),
], ids=["compare", "resonances", "sweep-no-chain", "sweep-rt1_kam"])
def test_start_up_loads_the_chain_layer_only_for_a_chain_method(tmp_path, argv, loaded):
    # The chain layer (averaging, kam, transforms) loads the first time a
    # contact-iteration chain runs, not with the package or the CLI.
    proc = _run_src(tmp_path, "-c", _LOADED_LAYERS, *argv, "--out", "run.csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loaded}"


def test_the_package_binds_every_public_name_on_demand(tmp_path):
    # Importing the package loads no submodule; a star import binds every
    # name of __all__, and dir() lists them all before and after.
    proc = _run_src(tmp_path, "-c", (
        "import sys\n"
        "import resonancekit\n"
        "print([m for m in sys.modules if m.startswith('resonancekit.')])\n"
        "print(set(resonancekit.__all__) <= set(dir(resonancekit)))\n"
        "from resonancekit import *\n"
        "print([name for name in resonancekit.__all__ if name not in globals()])\n"
        "print(set(resonancekit.__all__) <= set(dir(resonancekit)))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True", "[]", "True"]


def test_an_unknown_package_name_raises_attribute_error():
    import resonancekit

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        resonancekit.no_such_name
    assert not hasattr(resonancekit, "kam_truncation")
