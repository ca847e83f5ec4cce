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
