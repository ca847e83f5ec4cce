"""Record a workload's sweep on its whole seed lattice as golden values.

    python3 perfbench/record_golden.py chains_gate

Runs the CLI from ``src/`` over linspace(0, g_span, g_steps + SHIFTS - 1) and
stores the CSV as ``perfbench/golden/<name>.csv.gz``.  Re-record only when a
change is meant to alter that method's numbers, and say so in CHANGES.md.
"""

from __future__ import annotations

import gzip
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import SHIFTS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(name: str) -> None:
    wl = WORKLOADS[name]
    lattice = wl.for_seed(0)
    with tempfile.TemporaryDirectory(dir=Path(__file__).parent) as tmp:
        out = Path(tmp) / "golden.csv"
        argv = lattice.argv(str(out))
        argv[argv.index("--g-max") + 1] = repr(wl.g_span)
        argv[argv.index("--g-steps") + 1] = str(wl.g_steps + SHIFTS - 1)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        subprocess.run([sys.executable, "-m", "resonancekit.cli", *argv], env=env, check=True)
        data = out.read_bytes()
    with gzip.GzipFile(Path(__file__).parent / "golden" / f"{name}.csv.gz", "wb", mtime=0) as fh:
        fh.write(data)


if __name__ == "__main__":
    main(sys.argv[1])
