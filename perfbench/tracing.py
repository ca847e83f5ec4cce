"""In-process span tracing of resonancekit's layers, from outside ``src/``.

``Tracer.install()`` replaces every public function (each module's
``__all__``) of the layer modules with a wrapper that records a span, in the
defining module and wherever another module bound the same function object
(``from .x import y``, aliases included); ``uninstall()`` puts the originals
back.  A name that a module no longer defines is skipped.  Tracing assumes one
thread: a span's parent is the innermost span open when it starts.

A span is [name, start, end, parent index, point id, extra].  Each call to
``methods.compute_levels`` opens a new point; its descendants share the id.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("operators", "spectrum", "averaging", "kam", "transforms", "closedform", "methods", "sweep")
PACKAGE = "resonancekit"
POINT_SPAN = "methods.compute_levels"
# transforms functions that take one step along a chain
CHAIN_STEPS = ("rt_one_photon", "rt_two_photon", "atom_rotate", "generic_numeric_rt",
               "strong_chain", "rt_zero_field")


def _eigh_dim(args, kwargs, result):
    return int(result.values.shape[0])


def _levels(args, kwargs, result):
    method = args[0] if args else kwargs.get("method")
    return (method, len(result))


# Extra data recorded with the span of these functions.
EXTRAS = {"spectrum.eigh": _eigh_dim, POINT_SPAN: _levels}


class Tracer:
    """Spans of one traced run; a context manager installs the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._points = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        extra = EXTRAS.get(name)
        opens_point = name == POINT_SPAN

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if opens_point:
                point = self._points
                self._points += 1
            else:
                point = spans[parent][4] if parent >= 0 else -1
            span = [name, clock(), 0.0, parent, point, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[5] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _share(part: float, whole: float) -> float:
    return part / whole if whole > 0 else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans, wall: float) -> dict[str, float]:
    """Per-layer figures of one traced run of ``wall`` seconds.

    Times are shares of ``wall`` (self time unless named otherwise), counts
    are calls; ``trace_coverage`` is the share of ``wall`` inside any span.
    """
    own = self_times(spans)
    layer_self: dict[str, float] = defaultdict(float)
    fn_self: dict[str, float] = defaultdict(float)
    fn_total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_calls: dict[str, int] = defaultdict(int)
    covered = 0.0
    eigenpairs = exact_levels = levels = 0
    point_ms = []
    for span, t_self in zip(spans, own):
        name = span[0]
        layer = name.split(".", 1)[0]
        layer_self[layer] += t_self
        fn_self[name] += t_self
        fn_total[name] += span[2] - span[1]
        calls[name] += 1
        layer_calls[layer] += 1
        if span[3] < 0:
            covered += span[2] - span[1]
        if name == "spectrum.eigh" and span[5] is not None:
            eigenpairs += span[5]
        elif name == POINT_SPAN and span[5] is not None:
            method, count = span[5]
            levels += count
            exact_levels += count if method == "exact" else 0
            point_ms.append(1e3 * (span[2] - span[1]))
    out = {f"{layer}.self_share": _share(layer_self[layer], wall) for layer in LAYERS}
    out.update({
        "traced_wall_s": wall,
        "trace_coverage": _share(covered, wall),
        "spectrum.eigh_self_share": _share(fn_self["spectrum.eigh"], wall),
        "spectrum.classify_parity_self_share": _share(fn_self["spectrum.classify_parity"], wall),
        "spectrum.eigh_calls": calls["spectrum.eigh"],
        "spectrum.eigh_bytes": 16 * sum(
            s[5] ** 2 for s in spans if s[0] == "spectrum.eigh" and s[5] is not None
        ),
        "spectrum.useful_ratio": _share(exact_levels, eigenpairs),
        "operators.tensor_calls": calls["operators.tensor"],
        "transforms.chain_calls": sum(calls[f"transforms.{n}"] for n in CHAIN_STEPS),
        "transforms.spurious_filter_share": _share(fn_total["transforms.spurious_filter"], wall),
        "kam.kam_step_calls": calls["kam.kam_step"],
        "kam.unitary_exp_calls": calls["kam.unitary_exp"],
        "averaging.calls": layer_calls["averaging"],
        "closedform.laguerre_calls": calls["closedform.laguerre"],
        "methods.levels_emitted": levels,
        "methods.point_p50_ms": _percentile(point_ms, 50),
        "methods.point_p99_ms": _percentile(point_ms, 99),
        "sweep.csv_share": _share(fn_total["sweep.table_to_csv"], wall),
        "sweep.run_sweep_self_share": _share(fn_self["sweep.run_sweep"], wall),
        "sweep.compare_share": _share(fn_total["sweep.compare_methods"], wall),
    })
    return out


def write_spans(spans, path) -> None:
    """One CSV line per span; times in seconds from the first span's start."""
    t0 = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,point\n")
        for k, s in enumerate(spans):
            fh.write(f"{k},{s[0]},{s[1] - t0:.9f},{s[2] - t0:.9f},{s[3]},{s[4]}\n")
