"""The traced run: spans around the package's layers, taken in-process.

The benchmark wraps the public functions of each module at the module
attributes their callers look up (``cli.convergence_table``,
``_kernels.jones_grid``, ...), so nothing in the package changes.  A
span records its name, start, end, parent span and run id; spans stay
in memory and are written out when the run ends.  A layer's self time
is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import math
import statistics
import time
import tracemalloc
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from workloads import Command

# span name -> (module, attribute) pairs through which callers reach it;
# metric names must start with a letter, so _kernels.py is "kernels"
WRAPPED = {
    "jones_fig8.colored_jones": [("cli", "colored_jones"), ("jones_fig8", "colored_jones")],
    "jones_fig8.normalized_log": [("cli", "normalized_log")],
    "limits.convergence_table": [("cli", "convergence_table")],
    "limits.limit_curve": [("cli", "limit_V"), ("cli", "limit_W"),
                           ("limits", "limit_V"), ("limits", "limit_W")],
    "special_functions.lobachevsky": [("cli", "lobachevsky"), ("limits", "lobachevsky"),
                                      ("special_functions", "lobachevsky")],
    "special_functions.fig8_volume": [("cli", "fig8_volume"), ("limits", "fig8_volume")],
    "satellite.cable_profile": [("cli", "cable_profile"), ("satellite", "cable_profile")],
    "mahler.jones_mahler_growth": [("cli", "jones_mahler_growth")],
    "mahler.log_mahler_quadrature": [("cli", "log_mahler_quadrature"),
                                     ("mahler", "log_mahler_quadrature")],
    "mahler.silver_williams_convergence": [("cli", "silver_williams_convergence")],
    "mahler.mahler_from_roots": [("cli", "mahler_from_roots"), ("mahler", "mahler_from_roots")],
    "mahler.homology_order": [("cli", "homology_order"), ("mahler", "homology_order")],
    "mahler.homology_float": [("mahler", "_homology_float")],
    "kernels.jones_scan": [("_kernels", "jones_scan")],
    "kernels.jones_prefix": [("_kernels", "jones_prefix")],
    "kernels.jones_grid": [("_kernels", "jones_grid")],
    "kernels.jones_grid_exact": [("_kernels", "jones_grid_exact")],
}

# bytes of the per-factor prefix arrays (float64 log, int8 sign)
BYTES_PER_FACTOR = 9
KERNELS = ("jones_grid", "jones_grid_exact", "jones_scan", "jones_prefix")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root
    run: str


class Tracer:
    """Spans and counts of one benchmark run, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.run = ""
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        # (N, x) of the first traced pass: scans, and every float-phase input
        self.scan_inputs: list[tuple[int, float]] = []
        self.float_inputs: list[tuple[int, float]] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int) -> None:
        self.counts[(self.run, key)] += int(n)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def live_exact(cs: np.ndarray, r: int, N: int) -> np.ndarray:
    """Live factors of each color c at t = exp(2 pi i r/N): those before
    the first j in [1, c) with r (c - j) or r (c + j) a multiple of N."""
    g = N // math.gcd(r, N)
    j1 = cs % g
    j1[j1 == 0] = g
    j2 = -cs % g
    j2[j2 == 0] = g
    first = np.minimum(j1, j2)
    return np.where(first < cs, first - 1, np.maximum(cs - 1, 0))


def _count_kernel(tracer: Tracer, name: str, args) -> None:
    first = tracer.run == "pass1"
    if name == "kernels.jones_grid":
        Ns = np.asarray(args[0], dtype=np.int64)
        tracer.count(name + ".points", len(Ns))
        tracer.count(name + ".factors", int(np.maximum(Ns - 1, 0).sum()))
        if first:
            tracer.float_inputs.extend(zip(Ns.tolist(), np.asarray(args[1], dtype=np.float64).tolist()))
    elif name == "kernels.jones_grid_exact":
        cs = np.asarray(args[0], dtype=np.int64)
        tracer.count(name + ".points", len(cs))
        tracer.count(name + ".factors", int(np.maximum(cs - 1, 0).sum()))
        tracer.count(name + ".live", int(live_exact(cs, int(args[1]), int(args[2])).sum()))
    elif name in ("kernels.jones_scan", "kernels.jones_prefix"):
        tracer.count(name + ".factors", max(int(args[0]) - 1, 0))
        if first:
            tracer.float_inputs.append((int(args[0]), float(args[1])))
            if name == "kernels.jones_scan":
                tracer.scan_inputs.append((int(args[0]), float(args[1])))


class Instrumented:
    """Installs and removes the span wrappers on the package's modules."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.mods = {m: importlib.import_module(f"fig8jones.{m}")
                     for m in ("cli", "jones_fig8", "limits", "special_functions",
                               "satellite", "mahler", "_kernels")}
        self.saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        tracer = self.tracer
        precision_error = self.mods["mahler"].PrecisionError

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            except precision_error:
                if name == "mahler.homology_float":
                    tracer.count("mahler.homology.float_fallbacks", 1)
                raise
            finally:
                tracer.close(i)
            if name.startswith("kernels."):
                _count_kernel(tracer, name, args)
            elif name == "special_functions.lobachevsky":
                tracer.count(name + ".calls", 1)
            return out
        return traced

    def __enter__(self):
        wrappers = {}
        for name, sites in WRAPPED.items():
            for mod, attr in sites:
                module = self.mods[mod]
                fn = getattr(module, attr)
                key = (name, id(fn))
                if key not in wrappers:
                    wrappers[key] = self._wrap(name, fn)
                self.saved.append((module, attr, fn))
                setattr(module, attr, wrappers[key])
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()


def run_pass(cli, cmds: list[Command], tracer: Tracer | None):
    """One in-process pass through cli.main; returns (wall, outputs,
    exit codes, CSV bytes)."""
    texts, codes, csv_bytes = [], [], 0
    t0 = time.perf_counter()
    for cmd in cmds:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            idx = tracer.open("cli.main") if tracer else None
            try:
                code = cli.main(list(cmd.argv))
            except Exception:  # a crash is a failed command, counted by the caller
                code = -1
            finally:
                if tracer:
                    tracer.close(idx)
        texts.append(cmd.out.read_text() if cmd.out and code == 0 else buf.getvalue())
        codes.append(code)
        if cmd.out and code == 0:
            csv_bytes += cmd.out.stat().st_size
    return time.perf_counter() - t0, texts, codes, csv_bytes


def layer_metrics(tracer: Tracer, run: str) -> dict[str, float]:
    """Per-layer times and counts of one traced pass."""
    child = defaultdict(float)
    for s in tracer.spans:
        if s.run == run and s.parent >= 0:
            child[s.parent] += s.end - s.start
    total = defaultdict(float)
    self_t = defaultdict(float)
    n = defaultdict(int)
    for i, s in enumerate(tracer.spans):
        if s.run != run:
            continue
        total[s.name] += s.end - s.start
        self_t[s.name] += s.end - s.start - child[i]
        n[s.name] += 1
    c = {k: v for (r, k), v in tracer.counts.items() if r == run}
    grid_s = total["kernels.jones_grid"]
    grid_pts = c.get("kernels.jones_grid.points", 0)
    quad_grids = sum(1 for s in tracer.spans if s.run == run and s.name == "kernels.jones_grid"
                     and s.parent >= 0 and tracer.spans[s.parent].name == "mahler.log_mahler_quadrature")
    factors = sum(c.get(f"kernels.{k}.factors", 0) for k in KERNELS)
    return {
        "kernels.jones_grid.s": grid_s,
        "kernels.jones_grid.points": grid_pts,
        "kernels.jones_grid.factors": c.get("kernels.jones_grid.factors", 0),
        "kernels.jones_grid.us_per_point": grid_s / grid_pts * 1e6 if grid_pts else 0.0,
        "kernels.jones_grid_exact.s": total["kernels.jones_grid_exact"],
        "kernels.jones_grid_exact.points": c.get("kernels.jones_grid_exact.points", 0),
        "kernels.jones_grid_exact.factors": c.get("kernels.jones_grid_exact.factors", 0),
        "kernels.jones_scan.s": total["kernels.jones_scan"],
        "kernels.bytes_computed": factors * BYTES_PER_FACTOR,
        "jones_fig8.colored_jones.self_s": self_t["jones_fig8.colored_jones"],
        "satellite.cable_profile.self_s": self_t["satellite.cable_profile"],
        "limits.convergence_table.self_s": self_t["limits.convergence_table"],
        "limits.limit_curve.s": total["limits.limit_curve"],
        "special_functions.lobachevsky.s": total["special_functions.lobachevsky"],
        "special_functions.lobachevsky.calls": c.get("special_functions.lobachevsky.calls", 0),
        "mahler.log_mahler_quadrature.self_s": self_t["mahler.log_mahler_quadrature"],
        # each zero sample costs one refinement grid beyond the main grid
        "mahler.quadrature.zero_samples": quad_grids - n["mahler.log_mahler_quadrature"],
        "mahler.homology_order.s": total["mahler.homology_order"],
        "mahler.homology.float_fallbacks": c.get("mahler.homology.float_fallbacks", 0),
        "cli.self_s": self_t["cli.main"],
    }


def _timed(fn, budget: float = 0.5, reps: int = 3) -> float:
    """Median time of fn over up to reps calls, stopping once budget is spent."""
    times = []
    start = time.perf_counter()
    while len(times) < reps and (not times or time.perf_counter() - start < budget):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def live_fraction(kernels, tracer: Tracer) -> dict[str, float]:
    """Live factors over all factors of the first traced pass's kernel
    calls.  Exact-phase grids are counted where they are called; each
    float-phase input counts the nonzero prefix signs that jones_prefix
    returns for it, called afterwards with tracing off."""
    c = {k: v for (r, k), v in tracer.counts.items() if r == "pass1"}
    live = c.get("kernels.jones_grid_exact.live", 0)
    for N, x in tracer.float_inputs:
        signs, _ = kernels.jones_prefix(N, x)
        live += int(np.count_nonzero(signs[1:]))
    factors = sum(c.get(f"kernels.{k}.factors", 0) for k in KERNELS)
    return {"kernels.live_frac": live / factors if factors else 1.0}


def kernel_metrics(kernels, scan_inputs) -> dict[str, float]:
    """Scan, prefix and reduce timings and allocation peak at each
    (N, x), called directly with tracing off."""
    scan = prefix = 0.0
    factors = 0
    peak = 0
    for N, x in dict.fromkeys(scan_inputs):
        scan += _timed(lambda: kernels.jones_scan(N, x))
        prefix += _timed(lambda: kernels.jones_prefix(N, x))
        tracemalloc.start()
        try:
            kernels.jones_scan(N, x)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        factors += N - 1
    return {
        "kernels.jones_prefix.s": prefix,
        "kernels.reduce.s": scan - prefix,
        "kernels.ns_per_factor": scan / factors * 1e9,
        "kernels.peak_alloc_mb": peak / 2**20,
    }


# The four kernel cases of the earlier numba comparison script, so their
# numpy timings exist on a machine without numba.
SUITE_SCAN = (100_000, 1.0 / 100_000)


def suite_metrics(kernels) -> dict[str, float]:
    conv_xs = np.arange(5, 501) / 100.0 / 2000.0
    quad_xs = (np.arange(1 << 14) + 0.5) / (1 << 14)
    cases = {
        "suite.scan_1e5.s": lambda: kernels.jones_scan(*SUITE_SCAN),
        "suite.conv_grid_496.s": lambda: kernels.jones_grid(
            np.full(len(conv_xs), 2000, dtype=np.int64), conv_xs),
        "suite.quad_grid_2p14.s": lambda: kernels.jones_grid(
            np.full(len(quad_xs), 500, dtype=np.int64), quad_xs),
        "suite.cable_800.s": lambda: kernels.jones_grid_exact(
            np.arange(1, 1600, 2, dtype=np.int64), 1, 800),
    }
    return {name: _timed(fn) for name, fn in cases.items()}


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(import of the fig8jones package, import of scipy.special), in
    seconds, from the output of python -X importtime."""
    total = scipy_special = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative = int(parts[1])
        name = parts[2].rstrip()
        if name.startswith(" fig8jones"):   # top level: one space after the bar
            total += cumulative
        elif name.strip() == "scipy.special":
            scipy_special = max(scipy_special, cumulative)
    return total / 1e6, scipy_special / 1e6
