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


# Demo 02's whole output: its chains' bookkeeping and the accuracy table.
DEMO_02_STDOUT = """
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

max |E_method - E_exact| over the lowest 10 levels:
  g = 0.05  jc: 1.38e-03  rt1_kam: 1.76e-04  rt2: 2.47e-03
  g = 0.15  jc: 1.55e-02  rt1_kam: 5.21e-03  rt2: 2.26e-02
  g = 0.3   jc: 9.70e-02  rt1_kam: 7.59e-02  rt2: 1.02e-01
  g = 0.5   jc: 4.18e-01  rt1_kam: 4.00e-01  rt2: 2.62e-01

A single averaging correction (rt1_kam) already beats the plain
dressed-pair energies; the two-photon step extends the usable
coupling range toward the first field-induced resonances.
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


# Demo 01's whole output: the exact oracle against the jc ladder at four couplings.
DEMO_01_STDOUT = """\
Exact vs rotating-wave (dressed-pair) spectrum, omega = omega0 = 1
At g = 0 the ladder is doubly degenerate from level 1 up;
the coupling splits each pair by 2*g*sqrt(n).

g = 0.0
  level parity   branch        exact          rwa       diff
      0    odd        -     0.000000     0.000000   0.00e+00
      1   even        +     1.000000     1.000000   0.00e+00
      2   even        -     1.000000     1.000000   0.00e+00
      3    odd        +     2.000000     2.000000   0.00e+00
      4    odd        -     2.000000     2.000000   0.00e+00
      5   even        +     3.000000     3.000000   0.00e+00
      6   even        -     3.000000     3.000000   0.00e+00
      7    odd        +     4.000000     4.000000   0.00e+00

g = 0.05
  level parity   branch        exact          rwa       diff
      0    odd        -    -0.001251     0.000000   1.25e-03
      1   even        -     0.948764     0.950000   1.24e-03
      2   even        +     1.048733     1.050000   1.27e-03
      3    odd        -     1.928081     1.929289   1.21e-03
      4    odd        +     2.069413     2.070711   1.30e-03
      5   even        -     2.912225     2.913397   1.17e-03
      6   even        +     3.085266     3.086603   1.34e-03
      7    odd        -     3.898870     3.900000   1.13e-03

g = 0.2
  level parity   branch        exact          rwa       diff
      0    odd        -    -0.020202     0.000000   2.02e-02
      1   even        -     0.780666     0.800000   1.93e-02
      2   even        +     1.178492     1.200000   2.15e-02
      3    odd        -     1.699383     1.717157   1.78e-02
      4    odd        +     2.258856     2.282843   2.40e-02
      5   even        -     2.638067     2.653590   1.55e-02
      6   even        +     3.319162     3.346410   2.72e-02
      7    odd        -     3.587380     3.600000   1.26e-02

g = 0.5
  level parity   branch        exact          rwa       diff
      0    odd        -    -0.133294     0.000000   1.33e-01
      1   even        -     0.379976     0.500000   1.20e-01
      2    odd        -     1.195394     1.292893   9.75e-02
      3   even        +     1.325305     1.500000   1.75e-01
      4   even        -     2.087053     2.133975   4.69e-02
      5    odd        +     2.435539     2.707107   2.72e-01
      6    odd        -     3.048587     3.000000  -4.86e-02
      7   even        +     3.447831     3.866025   4.18e-01

The rotating-wave energies are exact to O(g^2/omega); by g = 0.5
the counter-rotating (Bloch-Siegert type) shifts are visible in
every level.
"""


# Demo 04's whole output: both strong-coupling closed forms against the exact oracle.
DEMO_04_STDOUT = """\
Strong-coupling closed forms vs the exact oracle, omega = omega0 = 1

max |E - E_exact| over the lowest 8 levels:
      g   strong_avg    strong_rt
    0.1    1.265e-01    5.036e-03
   0.25    1.588e-01    2.800e-02
    0.5    1.733e-01    8.003e-02
    1.0    8.028e-02    8.548e-02
    1.5    5.344e-02    4.596e-02
    2.0    3.587e-02    3.568e-02
    2.5    1.540e-02    1.535e-02
    3.0    8.902e-03    8.902e-03

strong_avg degrades toward g -> 0 (its doublets stay split by the
bare omega0 only on average); strong_rt repairs exactly that regime.

Laguerre-damped splitting factor f_n(g) = exp(-2g^2) L_n(4g^2):
      g        f_0        f_1        f_2        f_3
    0.1     0.9802     0.9410     0.9026     0.8649
    0.3     0.8353     0.5346     0.2880     0.0891
    0.5     0.6065     0.0000    -0.3033    -0.4044
    1.0     0.1353    -0.4060     0.1353     0.3158
    2.0     0.0003    -0.0050     0.0325    -0.1160
f_1 vanishes exactly at g = omega/2 (the n = 1 averaged doublet
crosses there); the exp(-2g^2) envelope eventually wins for every
n, collapsing the doublets into the displaced-ladder degeneracy.
"""


# Demo 05's whole output: the resonance report of the default sweep and its loci.
DEMO_05_STDOUT = """\
locus report over the default grid (g in [0, 1.5], 151 points):

kind,n,g_locus,nearest_grid_g,min_gap_g,min_gap,note
active,0,1.4142135623730949,1.4099999999999999,1.5,0.9228145599360138,minimum at search-window edge
mute,0,1,1,,,mute (vanishing coupling)
active,1,0.7320508075688773,0.72999999999999998,0.67000000000000004,0.6040515339900987,
active,2,0.58578643762690497,0.58999999999999997,0.53000000000000003,0.60310070756109191,
active,3,0.50401716993091239,0.5,0.46000000000000002,0.60272679207471125,
active,4,0.4494897427831781,0.45000000000000001,0.41000000000000003,0.60250693265626243,
mute,1,0.41421356237309509,0.41000000000000003,,,mute (vanishing coupling)
active,5,0.40968333356480086,0.41000000000000003,0.37,0.60235709646191093,
active,6,0.37893738196301197,0.38,,,crossing levels above n_levels window
active,7,0.35424868893540939,0.35000000000000003,,,crossing levels above n_levels window
mute,2,0.31783724519578221,0.32000000000000001,,,mute (vanishing coupling)
mute,3,0.2679491924311227,0.27000000000000002,,,mute (vanishing coupling)
mute,4,0.23606797749978969,0.23999999999999999,,,mute (vanishing coupling)
mute,5,0.21342176528338841,0.20999999999999999,,,mute (vanishing coupling)
mute,6,0.1962615682814125,0.20000000000000001,,,mute (vanishing coupling)
mute,7,0.18267581368159949,0.17999999999999999,,,mute (vanishing coupling)
mute,8,0.1715728752538099,0.17000000000000001,,,mute (vanishing coupling)
mute,9,0.16227766016837933,0.16,,,mute (vanishing coupling)
mute,10,0.15434713018702051,0.14999999999999999,,,mute (vanishing coupling)
mute,11,0.14747682478235474,0.14999999999999999,,,mute (vanishing coupling)
mute,12,0.14144966032623471,0.14000000000000001,,,mute (vanishing coupling)
mute,13,0.13610611130995209,0.14000000000000001,,,mute (vanishing coupling)
mute,14,0.1313259594334755,0.13,,,mute (vanishing coupling)
mute,15,0.12701665379258312,0.13,,,mute (vanishing coupling)
mute,16,0.12310562561766053,0.12,,,mute (vanishing coupling)
mute,17,0.1195350615016246,0.12,,,mute (vanishing coupling)
mute,18,0.1162582564213884,0.12,,,mute (vanishing coupling)
mute,19,0.11323701145890584,0.11,,,mute (vanishing coupling)
mute,20,0.11043973995626062,0.11,,,mute (vanishing coupling)
mute,21,0.10784006486758954,0.11,,,mute (vanishing coupling)
mute,22,0.10541576348928999,0.11,,,mute (vanishing coupling)
mute,23,0.10314796225363666,0.10000000000000001,,,mute (vanishing coupling)
mute,24,0.10102051443364381,0.10000000000000001,,,mute (vanishing coupling)
mute,25,0.099019513592784839,0.10000000000000001,,,mute (vanishing coupling)
mute,26,0.097132909113847046,0.10000000000000001,,,mute (vanishing coupling)
mute,27,0.095350199422549298,0.10000000000000001,,,mute (vanishing coupling)
mute,28,0.093662185005322862,0.089999999999999997,,,mute (vanishing coupling)
mute,29,0.092060767917157102,0.089999999999999997,,,mute (vanishing coupling)
mute,30,0.090538787778360788,0.089999999999999997,,,mute (vanishing coupling)
mute,31,0.089089886662358272,0.089999999999999997,,,mute (vanishing coupling)
mute,32,0.087708397045648465,0.089999999999999997,,,mute (vanishing coupling)
mute,33,0.086389248307271807,0.089999999999999997,,,mute (vanishing coupling)
mute,34,0.085127888254315567,0.089999999999999997,,,mute (vanishing coupling)
mute,35,0.083920216900383968,0.080000000000000002,,,mute (vanishing coupling)
mute,36,0.0827625302982197,0.080000000000000002,,,mute (vanishing coupling)
mute,37,0.081651472670756772,0.080000000000000002,,,mute (vanishing coupling)
mute,38,0.080583995429421754,0.080000000000000002,,,mute (vanishing coupling)
mute,39,0.079557321938360459,0.080000000000000002,,,mute (vanishing coupling)

measured minimum vs first- and second-order loci:
  n=0: min gap 0.9228 at g=1.5000; first-order g=1.4142 (shift +0.0858), second-order g=1.1118 (shift +0.3882)
  n=1: min gap 0.6041 at g=0.6700; first-order g=0.7321 (shift -0.0621), second-order g=0.6568 (shift +0.0132)
  n=2: min gap 0.6031 at g=0.5300; first-order g=0.5858 (shift -0.0558), second-order g=0.5300 (shift +0.0000)
  n=3: min gap 0.6027 at g=0.4600; first-order g=0.5040 (shift -0.0440), second-order g=0.4572 (shift +0.0028)
  n=4: min gap 0.6025 at g=0.4100; first-order g=0.4495 (shift -0.0395), second-order g=0.4083 (shift +0.0017)
  n=5: min gap 0.6024 at g=0.3700; first-order g=0.4097 (shift -0.0397), second-order g=0.3723 (shift -0.0023)

The measured minima sit consistently *below* the first-order
loci, by about 0.05-0.07 omega for the lowest pairs: the
counter-rotating term dresses the ladder and drags the true crossing
toward smaller coupling.  For n >= 1 the second-order loci follow
the minima to within about 0.015, near this sweep's 0.01 grid step.
The n = 0 pair lies at strong coupling, where neither ladder holds;
its smallest gap is the last grid point, which the report's note
column marks as a minimum at the search-window edge.
"""


# What calibrate_thresholds.py prints before its timing line: the measured
# values behind the frozen test ceilings.
CALIBRATE_STDOUT = """\

=== weak-coupling accuracy (lowest 10, exact oracle at n_max=60)\x20
g in [0, 0.25], 26 points:
  jc       max|dE| = 5.6593e-02   (frozen ceiling 8.0e-02)
  rt1_kam  max|dE| = 3.1481e-02   (frozen ceiling 4.0e-02)
g in [0, 0.6], 61 points:
  jc       max|dE| = 4.6792e-01   (frozen ceiling 5.5e-01)
  rt2      max|dE| = 3.9570e-01   (frozen ceiling 4.5e-01)

=== strong-coupling accuracy (lowest 8, exact oracle at n_max=120)\x20
g in [1.5, 3], 16 points:
  strong_avg max|dE| = 5.3441e-02   (frozen ceiling 7.0e-02)
g in [0, 3], 31 points:
  strong_rt  max|dE| = 1.0082e-01   (frozen ceiling 1.3e-01)
per-point max|dE| for 0 < g < 0.5:
  g=0.10: strong_rt 5.0365e-03 < strong_avg 1.2653e-01  [ok]
  g=0.20: strong_rt 1.8644e-02 < strong_avg 1.4833e-01  [ok]
  g=0.30: strong_rt 3.8400e-02 < strong_avg 1.7083e-01  [ok]
  g=0.40: strong_rt 6.0253e-02 < strong_avg 1.7971e-01  [ok]

=== avoided-crossing minima vs analytic loci (fine local scans) =
  n=1: measured min-gap at g=0.6661, gap 6.0399e-01; first-order locus g=0.7321 (shift \
-0.0660), second-order locus g=0.6568 (shift +0.0093, within 0.05)
  n=2: measured min-gap at g=0.5318, gap 6.0306e-01; first-order locus g=0.5858 (shift \
-0.0540), second-order locus g=0.5300 (shift +0.0018, within 0.05)
  n=3: measured min-gap at g=0.4580, gap 6.0264e-01; first-order locus g=0.5040 (shift \
-0.0460), second-order locus g=0.4572 (shift +0.0008, within 0.05)

=== exact-spectrum regression constants =========================
  E0(g=0.5, n_max=80) = -0.133294235462
  E0(g=0.5, n_max=160) = -0.133294235462
  lowest 12 at g=0.2, n_max=60:
    -0.020201999386276, 0.780666270558556, 1.178491610235721, 1.699383293621969, \
2.258855696463078, 2.638067461433701
    3.319162364055750, 3.587379540282642, 4.368740488705058, 4.543719003328240, \
5.411179503553042, 5.505261267917167
  lowest 12 at g=0.2, n_max=120:
    -0.020201999386276, 0.780666270558556, 1.178491610235721, 1.699383293621969, \
2.258855696463078, 2.638067461433701
    3.319162364055750, 3.587379540282642, 4.368740488705058, 4.543719003328240, \
5.411179503553042, 5.505261267917167

=== two-photon chain envelope on the default grid ===============
  rt2 over g in [0, 1.5] (151 points, lowest 12): max|dE| = 1.3720e+00, mean = 3.1195e-01
  (frozen honest envelope: max <= 1.5; the weak-coupling bound 0.45 comes from the g in [0, \
0.6] run above)

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
    assert _run(ROOT / "demos" / "02_weak_coupling_rts.py", tmp_path) == DEMO_02_STDOUT


def test_demo_03_prints_the_contraction_table(tmp_path):
    assert _run(ROOT / "demos" / "03_kam_contraction.py", tmp_path) == DEMO_03_STDOUT


@pytest.mark.parametrize("demo, stdout", [
    ("01_jc_vs_exact.py", DEMO_01_STDOUT),
    ("04_strong_coupling.py", DEMO_04_STDOUT),
    ("05_resonance_loci.py", DEMO_05_STDOUT),
])
def test_demo_prints_its_recorded_output(demo, stdout, tmp_path):
    assert _run(ROOT / "demos" / demo, tmp_path) == stdout


def test_calibrate_thresholds_prints_its_recorded_values(tmp_path):
    stdout = _run(ROOT / "demos" / "calibrate_thresholds.py", tmp_path)
    measured, timing, _ = stdout.rpartition("\ntotal ")
    assert timing and measured + "\n" == CALIBRATE_STDOUT
