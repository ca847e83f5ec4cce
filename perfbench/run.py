"""Benchmark of the resonancekit CLI over three workloads (see BENCHMARK.json).

    python3 perfbench/run.py --workload oracle_default --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.

``--trace 0`` drives ``python -m resonancekit.cli`` in a closed loop, one
process at a time, for ``--seconds`` after a small warm-up invocation, and
reports medians over the invocations: process wall time, points per second,
user+sys CPU and peak RSS (from ``wait4``), plus ``setup_s``, the median time
for a fresh interpreter to import ``resonancekit.cli`` and parse the
workload's configuration.

``--trace 1`` runs the same command in this process with one worker thread,
alternating untraced and traced runs (see ``tracing.py``), and reports
per-layer shares of the traced wall time, call counts, per-point latency,
span coverage and the tracing overhead.  The last traced run's spans are
written to ``perfbench/out/<workload>/spans.csv``.

Every run's output is checked (``checker.py``); ``attempted`` counts the
(g, method) points run and ``failed`` those that failed or whose output is
wrong.  BLAS and OpenMP pools are pinned to one thread; the program's own
worker pool (``RESONANCEKIT_THREADS``) is left at its default for the CLI
runs.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Before numpy is imported, here and in every child.
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("RESONANCEKIT_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_SETUP_PROBES = 9
MIN_INVOCATIONS = 3
MIN_TRACE_PAIRS = 2
WARMUP_STEPS = 4
CHILD_TIMEOUT_S = 60
SETUP_SNIPPET = (
    "import json, sys\n"
    "import resonancekit.cli\n"
    "from resonancekit.sweep import parse_config\n"
    "parse_config(None, json.loads(sys.argv[1]))\n"
)
_FAILED_LINE = re.compile(r"^failed: g=(\S+) method=(\S+):", re.MULTILINE)


@dataclass
class Outcome:
    """One checked run of a workload."""

    wall: float
    cpu: float
    rss_mb: float
    attempted: int
    failed: int
    reasons: list


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def environment() -> dict:
    """Thread, BLAS and interpreter details recorded with every result."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from resonancekit.sweep import worker_count

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "worker_count": worker_count(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _failed_points(spec, stderr: str) -> set:
    """(grid index, method) of the program's ``failed:`` lines."""
    grid = spec.grid
    points = set()
    for g_text, method in _FAILED_LINE.findall(stderr):
        points.add((int(abs(grid - float(g_text)).argmin()), method))
    return points


def check_run(spec, reference, code: int, csv_path: Path, stderr: str) -> tuple[int, list]:
    """Number of wrong points of one run, and the first reasons."""
    failed = _failed_points(spec, stderr)
    if code not in (0, 1) or (code == 1) != bool(failed) or not csv_path.is_file():
        return spec.points(), [f"exit status {code}: {stderr.strip()[-300:]}"]
    text = csv_path.read_text(encoding="utf-8")
    result = checker.check_sweep(spec, text, failed, reference)
    if spec.command == "compare":
        errors_path = csv_path.with_name(csv_path.stem + "_errors.csv")
        errors_text = errors_path.read_text(encoding="utf-8") if errors_path.is_file() else ""
        checker.check_errors(spec, text, errors_text, result)
    reasons = [f"failed point g#{i} {m}" for i, m in sorted(failed)][:5] + result.reasons
    return len(failed | result.bad), reasons


class Launcher:
    """The small process that starts every CLI child (see launcher.py)."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv: list, workdir: Path, stdout: Path, stderr: Path) -> dict:
        request = {
            "argv": [sys.executable, *argv], "cwd": str(workdir), "env": child_env(),
            "stdout": str(stdout), "stderr": str(stderr), "timeout": CHILD_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)


def invoke_cli(launcher: Launcher, spec, reference, workdir: Path) -> Outcome:
    csv_path = workdir / "sweep.csv"
    for stale in workdir.glob("sweep*.csv"):
        stale.unlink()
    err_path = workdir / "stderr.txt"
    argv = ["-m", "resonancekit.cli", *spec.argv(str(csv_path))]
    reply = launcher.run(argv, workdir, workdir / "stdout.txt", err_path)
    stderr = err_path.read_text(encoding="utf-8")
    failed, reasons = check_run(spec, reference, reply["code"], csv_path, stderr)
    return Outcome(
        wall=reply["wall"],
        cpu=reply["cpu"],
        rss_mb=reply["rss_kb"] / 1024.0,
        attempted=spec.points(),
        failed=failed,
        reasons=reasons,
    )


def setup_probe(launcher: Launcher, spec, workdir: Path) -> float:
    argv = ["-c", SETUP_SNIPPET, json.dumps(spec.overrides())]
    reply = launcher.run(argv, workdir, workdir / "setup.out", workdir / "setup.err")
    if reply["code"] != 0:
        raise RuntimeError(f"set-up probe exited with {reply['code']}")
    return reply["wall"]


def end_to_end(spec, seconds: float, workdir: Path):
    warm = spec.shrunk(WARMUP_STEPS)
    reference = checker.Reference(spec)
    with Launcher() as launcher:
        outcomes = [invoke_cli(launcher, warm, checker.Reference(warm), workdir)]
        # Set-up probes alternate with the invocations so that both sample
        # the same stretch of machine time.
        setup, timed = [], []
        deadline = time.perf_counter() + seconds
        while len(timed) < MIN_INVOCATIONS or time.perf_counter() < deadline:
            setup.extend(setup_probe(launcher, spec, workdir) for _ in range(2))
            timed.append(invoke_cli(launcher, spec, reference, workdir))
        while len(setup) < MIN_SETUP_PROBES:
            setup.append(setup_probe(launcher, spec, workdir))
    outcomes.extend(timed)
    wall = statistics.median(o.wall for o in timed)
    metrics = {
        "wall_s": wall,
        "points_per_s": spec.points() / wall,
        "cpu_s": statistics.median(o.cpu for o in timed),
        "peak_rss_mb": statistics.median(o.rss_mb for o in timed),
        "setup_s": statistics.median(setup),
    }
    samples = {
        "wall_s": [o.wall for o in timed],
        "cpu_s": [o.cpu for o in timed],
        "peak_rss_mb": [o.rss_mb for o in timed],
        "setup_s": setup,
    }
    return metrics, samples, outcomes


def _in_process(cli, spec, reference, workdir: Path, tracer=None) -> Outcome:
    """One run of the CLI's main() in this process, optionally traced."""
    csv_path = workdir / "trace.csv"
    for stale in workdir.glob("trace*.csv"):
        stale.unlink()
    out, err = io.StringIO(), io.StringIO()
    tracing_on = contextlib.nullcontext() if tracer is None else tracer
    with tracing_on, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(spec.argv(str(csv_path)))
        wall = time.perf_counter() - start
    failed, reasons = check_run(spec, reference, code, csv_path, err.getvalue())
    return Outcome(wall, 0.0, 0.0, spec.points(), failed, reasons)


def traced(spec, seconds: float, workdir: Path):
    os.environ["RESONANCEKIT_THREADS"] = "1"  # spans nest only on one thread
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from resonancekit import cli

    warm = spec.shrunk(WARMUP_STEPS)
    warmup = _in_process(cli, warm, checker.Reference(warm), workdir)
    reference = checker.Reference(spec)
    plain, traced_runs, runs = [], [], []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_TRACE_PAIRS or time.perf_counter() < deadline:
        plain.append(_in_process(cli, spec, reference, workdir))
        tracer = tracing.Tracer()
        traced_runs.append(_in_process(cli, spec, reference, workdir, tracer))
        runs.append(tracing.layer_metrics(tracer.spans, traced_runs[-1].wall))
        last_spans = tracer.spans
    tracing.write_spans(last_spans, workdir / "spans.csv")
    # Counts repeat exactly from run to run; times and shares vary.
    metrics = {
        name: statistics.median(r[name] for r in runs) if isinstance(value, float) else value
        for name, value in runs[-1].items()
    }
    untraced_wall = statistics.median(o.wall for o in plain)
    metrics["trace_overhead"] = metrics["traced_wall_s"] / untraced_wall - 1.0
    metrics["sweep.csv_bytes"] = (workdir / "trace.csv").stat().st_size
    samples = {
        "untraced_wall_s": [o.wall for o in plain],
        "traced_wall_s": [o.wall for o in traced_runs],
    }
    outcomes = [warmup, *plain, *traced_runs]
    return metrics, samples, outcomes


def declared_metrics(trace: bool) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = WORKLOADS[workload].for_seed(seed)
    workdir = OUT / workload
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    measure = traced if trace else end_to_end
    metrics, samples, outcomes = measure(spec, seconds, workdir)
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    reasons = [r for o in outcomes for r in o.reasons][:10]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "grid": [spec.g_min, spec.g_max, spec.g_steps], "environment": env,
        "samples": samples, "error_rate": failed / attempted, "reasons": reasons,
        "result": result,
    }
    with open(workdir / f"result-seed{seed}-trace{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(f"workload {workload} seed {seed}: g in [{spec.g_min!r}, {spec.g_max!r}] x {spec.g_steps}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, values in samples.items():
        print(f"  {name}: n={len(values)} " + " ".join(f"{v:.4g}" for v in values))
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} points)")
    for reason in reasons:
        print(f"  wrong: {reason}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "resonancekit" / "cli.py").is_file():
        print(f"no resonancekit source under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
