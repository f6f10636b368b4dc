"""The benchmark's workloads: the CLI commands of one pass, made from the
seed.  The CLI receives only these generated arguments.

quad_grid    mahler jones-growth --N-list 100,300,1000: 3 x 2^14 dyadic
             midpoints through the float-phase grid kernel.
cable_exact  figure cable --N 3000 at an integer r drawn from the seed:
             3000 odd colors through the integer-phase kernel.
big_scan     eval at N = 1e6, 3e6 and 1e7 with r drawn from the seed:
             single scans whose arrays outgrow the caches.
cli_figures  the paper's figure commands, each a short process, so
             interpreter start and import dominate.

For quad_grid and cli_figures the commands are fixed by the paper's
figures; there the seed only picks the points checked with mpmath.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("quad_grid", "cable_exact", "big_scan", "cli_figures")

QUAD_N = (100, 300, 1000)
QUAD_POINTS = 1 << 14
CABLE_N = 3000
CABLE_R = (1, 2, 3)
SCAN_N = (1_000_000, 3_000_000, 10_000_000)
SCAN_R = ("1", "0.9", "0.95", "1.05", "1.1")
SW_N = tuple(range(2, 301))


@dataclass
class Command:
    """One CLI invocation and what its output should hold."""

    argv: list[str]
    kind: str                  # which check in checks.py applies
    rows: int                  # outputs (CSV rows or printed lines) it yields
    out: Path | None = None    # CSV path; None when the output is stdout
    params: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if not a.startswith("/"))


def _figure(fid: str, tmp: Path, rows: int, extra=(), **params) -> Command:
    out = tmp / f"{fid}{'-'.join(extra)}.csv"
    return Command(["figure", fid, *extra, "--out", str(out)],
                   "curve" if fid in ("V", "W") else
                   "cable" if fid == "cable" else "conv",
                   rows, out, dict(params, fid=fid))


def _cable(tmp: Path, N: int, r: str) -> Command:
    return _figure("cable", tmp, N, ("--N", str(N), "--r", r), N=N, r=r)


def build(name: str, seed: int, tmp: Path) -> list[Command]:
    rng = np.random.default_rng(seed)
    if name == "quad_grid":
        out = tmp / "jones_growth.csv"
        return [Command(["mahler", "jones-growth",
                         "--N-list", ",".join(map(str, QUAD_N)),
                         "--out", str(out)],
                        "growth", len(QUAD_N), out,
                        {"N_list": QUAD_N, "n_quad": QUAD_POINTS})]
    if name == "cable_exact":
        return [_cable(tmp, CABLE_N, str(int(rng.choice(CABLE_R))))]
    if name == "big_scan":
        cmds = []
        for N in SCAN_N:
            r = str(rng.choice(SCAN_R))
            cmds.append(Command(["eval", "--N", str(N), "--r", r], "eval", 1,
                                params={"N": N, "r": r}))
        return cmds
    if name == "cli_figures":
        sw_out = tmp / "sw.csv"
        return [
            Command(["volume"], "volume", 1),
            _figure("V", tmp, 1001, curve="V"),
            _figure("W", tmp, 1001, curve="W"),
            _figure("conv1", tmp, 101, lo=0.0, N=2000),
            _figure("conv2", tmp, 101, lo=1.0, N=2000),
            _figure("conv5", tmp, 101, lo=4.0, N=2000),
            _figure("conv8000", tmp, 101, lo=4.0, N=8000),
            _cable(tmp, 800, "1"),
            _cable(tmp, 800, "1.5"),
            Command(["mahler", "sw", "--N-list", ",".join(map(str, SW_N)),
                     "--out", str(sw_out)], "sw", len(SW_N), sw_out,
                    {"N_list": SW_N}),
        ]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
