#!/usr/bin/env python3
"""Benchmark of the fig8jones CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree holding src/fig8jones; the package
need not be installed.  One client runs the workload's commands in a
closed loop, each command a fresh ``python -m fig8jones.cli`` process
started only after the previous one exits, with the default thread
count.  Passes repeat for about --seconds: another starts while a typical
pass would end nearer that mark than stopping now.

--trace 0 prints the end-to-end metrics: setup_s (median wall time of a
process that only imports fig8jones.cli), wall_s (wall time of a pass,
interpreter starts included: each command's median over the passes,
summed) and peak_rss_mb (median over passes of the largest child
max-RSS, from os.wait4).  A fixed reference job
runs after every timed process, and inside it every SEGMENT_S, while the
process is stopped; each segment's wall time is scaled by REF_NOMINAL_S
over the mean of the reference jobs on either side of it.  At least
PROBES set-up probes run, spread over the window.
--trace 1 runs the same commands in-process through cli.main, with
spans around each layer, and prints the per-layer metrics.

Outputs are checked against an oracle that does not import the package
(oracle.py), outside the timed region.  The last line of stdout is one
JSON object: correct, attempted and failed count CLI output rows; the
lines before it give each metric's sample count, the homology orders
checked in-process, the error rate over rows and orders, notes from the
checks and the run environment.  CLI outputs go to a temporary
directory under the tree, removed at exit; long-double references are
cached in .perfbench_cache/ and traces written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

import checks
import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBES = 6                # set-up samples per run, at least
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 165          # commands still running this long into a run are killed
SEGMENT_S = 1.0           # a timed process is paused this often for a reference job
SETUP_CODE = "import fig8jones.cli"
# A fixed job that does not touch the package: interpreter start, numpy
# import, ufuncs and a bytecode loop.  Its time shows how fast the machine
# runs at that moment; each timed sample is scaled by REF_NOMINAL_S over
# the reference jobs next to it, which removes the drift of a shared host
# (raw times are printed beside the scaled ones).
REF_CODE = """
import numpy as np
x = np.arange(1, 50001) / 50001.0
acc = 0.0
for k in range(1, 41):
    acc += float(np.cumsum(np.log(2.5 - 2.0 * np.cos(2.0 * np.pi * k * x))).max())
s = 0
for i in range(400000):
    s += i % 7
"""
REF_NOMINAL_S = 0.30
PROBE_CODE = """
import importlib.util, json, platform, numpy, scipy
from fig8jones import _kernels
print(json.dumps({"backend": _kernels.current_backend(),
                  "numba_importable": importlib.util.find_spec("numba") is not None,
                  "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


class Runner:
    """Starts CLI processes one after another and measures each."""

    def __init__(self, tmp: Path, deadline: float):
        self.tmp = tmp
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("FIG8JONES_BACKEND", "JONES_THREADS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)

    def run(self, args: list[str], pause=None) -> tuple[list[float], int, int, str]:
        """(wall seconds of each segment, exit code, max RSS in KiB, stdout)
        of one process.  With pause, the process is stopped after every
        SEGMENT_S of wall time, pause() runs, and the process resumes; a
        segment runs from a start or resume to the next stop or the exit."""
        err = self.tmp / "stderr.txt"
        chunks: list[str] = []
        segments: list[float] = []
        status = None
        with err.open("w") as ferr:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                                    stderr=ferr, cwd=self.tmp, env=self.env, text=True)
            reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
            reader.start()
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            pidfd = os.pidfd_open(proc.pid)
            try:
                # the pidfd turns readable when the process exits
                while pause and not select.select([pidfd], [], [], SEGMENT_S)[0]:
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, status, usage = os.wait4(proc.pid, os.WUNTRACED)
                    segments.append(time.perf_counter() - t0)
                    if not os.WIFSTOPPED(status):
                        break  # it exited before the stop took effect
                    status = None
                    pause()
                    os.kill(proc.pid, signal.SIGCONT)
                    t0 = time.perf_counter()
                else:
                    _, status, usage = os.wait4(proc.pid, 0)
                    segments.append(time.perf_counter() - t0)
            finally:
                timer.cancel()
                os.close(pidfd)
                if status is None:  # interrupted: leave no process behind
                    os.kill(proc.pid, signal.SIGKILL)
                    os.wait4(proc.pid, 0)
                reader.join()
                proc.stdout.close()
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write(f"exit {code}: {' '.join(args)}\n{err.read_text()[-2000:]}")
        return segments, code, usage.ru_maxrss, "".join(chunks)


def environment(runner: Runner, args) -> dict | None:
    _, code, _, out = runner.run(["-c", PROBE_CODE])
    if code != 0:
        return None
    env = json.loads(out)
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (idx / "level").read_text().strip()
        kind = (idx / "type").read_text().strip()
        if kind != "Instruction":
            caches[f"L{level}"] = (idx / "size").read_text().strip()
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
    env.update(nproc=len(os.sched_getaffinity(0)), cpu_count=os.cpu_count(), cpu_model=cpu,
               caches=caches, git_commit=commit, platform=platform.platform(),
               workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    return env


class Tally:
    """Output rows checked and failed over all passes of a run.  Outputs
    are recorded during the passes and checked after them, so the
    oracle's time stays out of the measured window."""

    def __init__(self, cmds, cache, rng):
        self.cmds, self.cache, self.rng = cmds, cache, rng
        self.first: list[tuple[str, checks.Verdict] | None] = [None] * len(cmds)
        self.attempted = self.failed = self.ill = 0
        self.notes: list[str] = []
        self.pending: list[tuple[int, int, str]] = []

    def add(self, k: int, code: int, text: str) -> None:
        self.pending.append((k, code, text))

    def check_all(self) -> None:
        for k, code, text in self.pending:
            self._check(k, code, text)
        self.pending.clear()

    def _check(self, k: int, code: int, text: str) -> None:
        cmd = self.cmds[k]
        self.attempted += cmd.rows
        if code != 0:
            self.failed += cmd.rows
            self.notes.append(f"{cmd.label}: exit code {code}")
            return
        if self.first[k] is None:
            v = checks.check(cmd, text, self.cache, self.rng)
            self.first[k] = (text, v)
            self.ill += v.ill
            self.notes.extend(v.notes)
        first_text, v = self.first[k]
        if text == first_text:
            self.failed += v.failed
        else:
            self.failed += cmd.rows
            self.notes.append(f"{cmd.label}: output differs between passes")


def homology_orders() -> dict[int, int]:
    """mahler.homology_order at each N of the sw command, called
    in-process outside any timed region; -1 where it raises."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from fig8jones import mahler
    orders = {}
    for N in workloads.SW_N:
        try:
            orders[N] = mahler.homology_order(mahler.FIG8_ALEXANDER, N)
        except Exception:  # a failed order fails its row
            orders[N] = -1
    return orders


def _continue(t_end: float, walls: list[float]) -> bool:
    """Start another pass if it would end, as a typical pass, closer to
    t_end than stopping now; the runs then last about --seconds."""
    return time.perf_counter() + statistics.median(walls) / 2 < t_end


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, runner: Runner, cmds, tally: Tally, lines: list[str],
                 samples: dict) -> dict:
    raw = {"setup_s": [], "reference_s": [], "wall_s": []}
    setup, walls, peaks = [], [], []
    per_cmd: list[list[float]] = [[] for _ in cmds]

    def reference() -> float:
        segments, rc, _, _ = runner.run(["-c", REF_CODE])
        if rc != 0:
            raise SystemExit("perfbench: reference job failed")
        raw["reference_s"].append(segments[0])
        return segments[0]

    # the host's speed changes within seconds, so every process is paused
    # each SEGMENT_S for a reference job, and each segment is scaled by the
    # mean of the reference jobs just before and after it
    last_ref = reference()

    def timed(args: list[str]) -> tuple[float, float, int, int, str]:
        """(scaled wall, raw wall, exit code, max RSS in KiB, stdout)"""
        nonlocal last_ref
        refs = [last_ref]
        segments, code, rss, out = runner.run(args, pause=lambda: refs.append(reference()))
        refs.append(reference())
        last_ref = refs[-1]
        wall = sum(w * REF_NOMINAL_S * 2 / (a + b) for w, a, b in zip(segments, refs, refs[1:]))
        return wall, sum(segments), code, rss, out

    def setup_probe() -> None:
        wall, raw_wall, code, _, _ = timed(["-c", SETUP_CODE])
        if code != 0:
            raise SystemExit("perfbench: setup_s probe failed")
        raw["setup_s"].append(raw_wall)
        setup.append(wall)

    t_end = time.perf_counter() + args.seconds
    next_setup = 0.0
    elapsed: list[float] = []
    while not walls or _continue(t_end, elapsed):
        t0 = time.perf_counter()
        wall = raw_wall = 0.0
        peak = 0
        for k, cmd in enumerate(cmds):
            if time.perf_counter() >= next_setup:
                setup_probe()
                next_setup = time.perf_counter() + args.seconds / PROBES
            w, rw, code, rss, out = timed(["-m", "fig8jones.cli", *cmd.argv])
            per_cmd[k].append(w)
            wall += w
            raw_wall += rw
            peak = max(peak, rss)
            text = cmd.out.read_text() if cmd.out and code == 0 else out
            tally.add(k, code, text)
        raw["wall_s"].append(raw_wall)
        walls.append(wall)
        peaks.append(peak / 1024)
        elapsed.append(time.perf_counter() - t0)
    while len(setup) < PROBES:
        setup_probe()
    med = {k: statistics.median(v) for k, v in raw.items()}
    lines.append(f"reference job {med['reference_s']:.4f} s (median of "
                 f"{len(raw['reference_s'])}; nominal {REF_NOMINAL_S} s)")
    lines.append(f"setup_s {statistics.median(setup):.4f} s (raw median "
                 f"{med['setup_s']:.4f} s of {len(setup)})")
    # a pass's typical time: each command's median over the passes, summed,
    # so one slow command does not carry its whole pass with it
    wall_s = sum(statistics.median(c) for c in per_cmd)
    lines.append(f"wall_s {wall_s:.4f} s (raw median {med['wall_s']:.4f} s of {len(walls)} "
                 f"passes; scaled pass min {min(walls):.4f}, max {max(walls):.4f})")
    lines.append(f"peak_rss_mb {statistics.median(peaks):.2f} MB (median of {len(peaks)} passes)")
    samples.update(raw, setup_scaled=setup, wall_scaled=walls, per_command_scaled=per_cmd,
                   peak_rss_mb=peaks)
    return {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(wall_s, "s"),
        "peak_rss_mb": metric(statistics.median(peaks), "MB"),
    }


def run_traced(args, runner: Runner, cmds, tally: Tally, lines: list[str],
               samples: dict) -> tuple[dict, tracing.Tracer]:
    imports = [tracing.parse_importtime(
        subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE],
                       env=runner.env, cwd=runner.tmp, capture_output=True, text=True,
                       timeout=60).stderr) for _ in range(IMPORTTIME_SAMPLES)]
    sys.path.insert(0, str(SRC))
    from fig8jones import _kernels, cli

    tracer = tracing.Tracer()
    tracing.run_pass(cli, cmds, None)   # warm-up: first calls pay one-off costs
    plain, traced, per_pass, csv_bytes = [], [], [], 0
    t_end = time.perf_counter() + args.seconds
    while not traced or _continue(t_end, [p + t for p, t in zip(plain, traced)]):
        # alternate which of the pair goes first, so order effects cancel
        for with_trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if with_trace:
                tracer.run = f"pass{len(traced) + 1}"
                with tracing.Instrumented(tracer):
                    wall, texts, codes, csv_bytes = tracing.run_pass(cli, cmds, tracer)
                traced.append(wall)
                per_pass.append(tracing.layer_metrics(tracer, tracer.run))
            else:
                wall, texts, codes, _ = tracing.run_pass(cli, cmds, None)
                plain.append(wall)
            for k, (code, text) in enumerate(zip(codes, texts)):
                tally.add(k, code, text)

    samples.update(untraced_s=plain, traced_s=traced)
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    out.update(tracing.kernel_metrics(_kernels, tracer.scan_inputs + [tracing.SUITE_SCAN]))
    out.update(tracing.live_fraction(_kernels, tracer))
    out.update(tracing.suite_metrics(_kernels))
    out.update({
        "import.total_s": statistics.median(i[0] for i in imports),
        "import.scipy_special_s": statistics.median(i[1] for i in imports),
        "cli.csv_bytes": csv_bytes,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain),
    })
    lines.append(f"in-process pass {statistics.median(plain):.4f} s untraced, "
                 f"{statistics.median(traced):.4f} s traced (medians of {len(traced)} each)")
    return {k: metric(v, _unit(k)) for k, v in out.items()}, tracer


def _unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    for suffix, unit in ((".us_per_point", "us"), ("ns_per_factor", "ns"), ("_mb", "MB"),
                         ("live_frac", "ratio"), ("bytes_computed", "B"), ("csv_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # on SIGTERM unwind as on an exception, so no child is left behind,
    # least of all one stopped for a reference job
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "fig8jones" / "cli.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_parent))
    t_start = time.perf_counter()
    try:
        runner = Runner(tmp, time.monotonic() + DEADLINE_S)
        env = environment(runner, args)
        if env is None:
            print("perfbench: the package does not import", file=sys.stderr)
            return 2
        cmds = workloads.build(args.workload, args.seed, tmp)
        tally = Tally(cmds, oracle.RefCache(ROOT / ".perfbench_cache"),
                      np.random.default_rng(args.seed))
        lines: list[str] = []
        samples: dict[str, list[float]] = {}
        if args.trace:
            metrics, tracer = run_traced(args, runner, cmds, tally, lines, samples)
            tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = run_untraced(args, runner, cmds, tally, lines, samples)
        t_checks = time.perf_counter()
        tally.check_all()
        # the sw rows print log|H_1| / N, which hides an order off by a
        # few units, so the orders are checked in-process as a layer: a
        # wrong one counts in the error rate, not against the CLI rows
        orders = homology_orders() if args.workload == "cli_figures" else {}
        wrong = [N for N, h in orders.items() if h != oracle.homology_fig8(N)]
        if orders:
            lines.append(f"homology_order against L_2N - 2: {len(wrong)} of {len(orders)} wrong"
                         + (f" (N = {', '.join(map(str, wrong))})" if wrong else ""))
        if args.trace:
            metrics["mahler.homology.wrong"] = metric(len(wrong), "count")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:  # another run's directory is still there
            pass

    t_end = time.perf_counter()
    lines.append(f"run {t_end - t_start:.1f} s, of which output checks {t_end - t_checks:.1f} s")
    rate = (tally.failed + len(wrong)) / (tally.attempted + len(orders))
    checked = f"{tally.failed} of {tally.attempted} output rows"
    if orders:
        checked += f" and {len(wrong)} of {len(orders)} homology orders"
    lines.append(f"error_rate {rate:.6g} ({checked} wrong; {tally.ill} rows of the first pass "
                 f"ill-conditioned, accepted within their bound)")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"env": env, "summary": lines, "notes": tally.notes, "samples": samples, **result}
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print("env " + json.dumps(env))
    for note in tally.notes:
        print("note " + note)
    for line in lines:
        print(f"{args.workload}: {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
