"""The benchmark's workloads: one CLI command each, on a seed-shifted g-grid.

Each workload's grid has ``g_steps`` points of spacing h = g_span /
(g_steps + SHIFTS - 2) and starts at j*h, j = seed mod SHIFTS, so every seed's
grid lies on the lattice linspace(0, g_span, g_steps + SHIFTS - 1).  Values
recorded on that lattice (``golden/<name>.csv.gz``) therefore cover every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

SHIFTS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    methods: tuple[str, ...]  # registry order
    n_max: int
    n_levels: int
    g_span: float
    g_steps: int
    golden: str | None = None
    omega: float = 1.0
    omega0: float = 1.0

    @property
    def step(self) -> float:
        return self.g_span / (self.g_steps + SHIFTS - 2)

    def for_seed(self, seed: int) -> "GridSpec":
        offset = seed % SHIFTS
        g_min = offset * self.step
        g_max = (offset + self.g_steps - 1) * self.step
        return GridSpec(self, offset, g_min, g_max)


@dataclass(frozen=True)
class GridSpec:
    """A workload on one seed's grid: what the CLI is given and what the
    checker expects."""

    workload: Workload
    golden_offset: int
    g_min: float
    g_max: float

    def __getattr__(self, name):
        return getattr(self.workload, name)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.g_min, self.g_max, self.g_steps)

    def points(self) -> int:
        return self.g_steps * len(self.methods)

    def argv(self, out: str) -> list[str]:
        return [
            self.command,
            "--omega", repr(self.omega),
            "--omega0", repr(self.omega0),
            "--g-min", repr(self.g_min),
            "--g-max", repr(self.g_max),
            "--g-steps", str(self.g_steps),
            "--n-max", str(self.n_max),
            "--levels", str(self.n_levels),
            "--methods", ",".join(self.methods),
            "--out", out,
        ]

    def overrides(self) -> dict:
        """The same configuration as parse_config overrides."""
        return {
            "omega": self.omega, "omega0": self.omega0, "g_min": self.g_min,
            "g_max": self.g_max, "g_steps": self.g_steps, "n_max": self.n_max,
            "n_levels": self.n_levels, "methods": ",".join(self.methods),
        }

    def shrunk(self, g_steps: int) -> "GridSpec":
        """The first g_steps points of this grid (warm-up and self-tests)."""
        small = replace(self.workload, g_steps=g_steps)
        return GridSpec(small, self.golden_offset, self.g_min, self.g_min + (g_steps - 1) * self.step)


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="oracle_default",
            command="compare",
            methods=("exact", "jc", "strong_rt"),
            n_max=60,
            n_levels=12,
            g_span=1.5,
            g_steps=301,
        ),
        Workload(
            name="chains_gate",
            command="sweep",
            methods=("rt1", "rt1_kam", "rt_full_kam"),
            n_max=120,
            n_levels=12,
            g_span=0.3,
            g_steps=81,
            golden="chains_gate",
        ),
        Workload(
            name="closed_forms_csv",
            command="sweep",
            methods=("jc", "rt2", "strong_avg", "strong_rt"),
            n_max=60,
            n_levels=40,
            g_span=1.5,
            g_steps=1001,
        ),
    )
}
