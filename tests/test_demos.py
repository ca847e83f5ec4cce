"""The narrative demos run to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


# What demo 02 prints of its chains' bookkeeping, before the accuracy table.
DEMO_02_BOOKKEEPING = """
one-photon chain:
  provenance     : rt_one_photon
  spurious zeros : ['|0,+>']
  loss band      : top 1 photon level(s) corrupted
  record: dressing -1 photon(s), kernel ('|0,+>',): R^dag R = 1 minus slots ['|0,+>'], \
R R^dag = 1 minus slots ['|60,+>']

one- + two-photon chain:
  provenance     : rt_one_photon -> rt_two_photon
  spurious zeros : ['|0,+>', '|1,+>', '|2,+>']
  loss band      : top 3 photon level(s) corrupted
  record: dressing -1 photon(s), kernel ('|0,+>',): R^dag R = 1 minus slots ['|0,+>'], \
R R^dag = 1 minus slots ['|60,+>']
  record: dressing -2 photon(s), kernel ('|1,+>', '|2,+>'): R^dag R = 1 minus slots \
['|1,+>', '|2,+>'], R R^dag = 1 minus slots ['|59,+>', '|60,+>']

"""


# Demo 03's whole output: the residual table of kam_iterate_full at g = 0.15,
# 0.25 and 0.3.
DEMO_03_STDOUT = """\
One-photon chain residue fed to the averaging iteration
(divergence flag: residual grows or |W| > 10.0)

g = 0.15  (diverged: False)
  step  residual before   residual after        |W|   flag
     1        4.975e-01        1.394e-01  3.148e-01     ok
     2        1.394e-01        1.260e-02  1.375e-01     ok
     3        1.260e-02        2.559e-04  1.137e-02     ok
  after/before^2 per step: 0.56, 0.65, 1.61 (roughly constant = quadratic contraction)

g = 0.25  (diverged: False)
  step  residual before   residual after        |W|   flag
     1        8.292e-01        7.572e-01  1.249e+00     ok
     2        7.572e-01        6.670e-01  1.361e+00     ok
     3        6.670e-01        6.072e-01  2.531e+00     ok
  after/before^2 per step: 1.10, 1.16, 1.37 (roughly constant = quadratic contraction)

g = 0.3  (diverged: True)
  step  residual before   residual after        |W|   flag
     1        9.950e-01        1.143e+00  4.116e+01    DIV

Around g = 0.3 the first field-induced near-degeneracy enters the
retained block: the small divisors blow up the generator and the
iteration stops improving -- exactly what the flags report.
"""


def _run(demo: Path, cwd: Path) -> str:
    """The demo's stdout; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    assert _run(demo, tmp_path).strip()


def test_demo_02_prints_the_chain_bookkeeping(tmp_path):
    stdout = _run(ROOT / "demos" / "02_weak_coupling_rts.py", tmp_path)
    assert stdout.partition("max |E_method")[0] == DEMO_02_BOOKKEEPING


def test_demo_03_prints_the_contraction_table(tmp_path):
    assert _run(ROOT / "demos" / "03_kam_contraction.py", tmp_path) == DEMO_03_STDOUT
