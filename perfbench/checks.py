"""Check one CLI output against the oracle.

Every output row counts once.  A row fails when it is malformed, when a
value misses its reference by more than the conditioning-scaled
tolerance, or when a derived column disagrees with the columns it is
derived from.  Rows whose reference says float64 cannot resolve them
(relative bound >= 1/2) are accepted under the looser rule in
oracle.JonesRef, between a floor and the bound, and counted as
ill-conditioned.  The sw rows print log|H_1| / N, which hides an order
off by a few units; run.py checks the orders themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

import oracle
from workloads import Command

PRINT_REL = 1e-14      # 15 significant digits, with margin
MP_POINTS = 2          # seeded points per command checked against mpmath


@dataclass
class Verdict:
    failed: int = 0
    ill: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, note: str, rows: int = 1) -> None:
        self.failed += rows
        if len(self.notes) < 5:
            self.notes.append(note)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol + PRINT_REL * max(abs(a), abs(b))


def _csv(text: str, header: str, cmd: Command, v: Verdict) -> list[list[str]] | None:
    lines = text.splitlines()
    if not lines or lines[0] != header or len(lines) - 1 != cmd.rows:
        v.fail(f"{cmd.label}: expected header {header!r} and {cmd.rows} rows, "
               f"got {len(lines) - 1} rows", cmd.rows)
        return None
    return [ln.split(",") for ln in lines[1:]]


def check(cmd: Command, text: str, cache: oracle.RefCache,
          rng: np.random.Generator) -> Verdict:
    v = Verdict()
    try:
        if cmd.kind == "sw":
            _sw(cmd, text, v)
        else:
            _CHECKS[cmd.kind](cmd, text, cache, rng, v)
    except (ValueError, IndexError) as exc:
        v.failed = cmd.rows
        v.notes.append(f"{cmd.label}: unparsable output ({exc})")
    return v


def _volume(cmd, text, cache, rng, v):
    ref = float(oracle.volume_mp())
    if not _close(float(text.strip()), ref, 0.0):
        v.fail(f"volume {text.strip()} != {ref!r}")


def _curve(cmd, text, cache, rng, v):
    rows = _csv(text, "r,finite,predicted,delta", cmd, v)
    if rows is None:
        return
    n = cmd.rows - 1
    sample = set(rng.choice(cmd.rows, size=12, replace=False).tolist())
    for k, (x, fin, pred, delta) in enumerate(rows):
        if fin or delta or not _close(float(x), k / n, 0.0):
            v.fail(f"figure {cmd.params['fid']} row {k}: {x},{fin},{pred},{delta}")
        elif k in sample:
            ref, tol = oracle.limit_mp(k / n, cmd.params["curve"])
            if not _close(float(pred), ref, tol):
                v.fail(f"figure {cmd.params['fid']} at x={x}: {pred} vs {ref!r} (tol {tol:.2g})")


def _jones_row(ref: oracle.JonesRef, sign: int, logabs: float,
               v: Verdict, note: str) -> None:
    """Check a computed (sign, log|J|), read back from its printed form,
    against its reference; sign 0 is a row the CLI flagged as vanished."""
    if ref.ill_conditioned:
        v.ill += 1
    if sign == 0:
        if not (ref.ill_conditioned or ref.sign == 0):
            v.fail(f"{note}: flagged, reference {ref}")
    elif not ref.accepts(sign, logabs, PRINT_REL * abs(logabs)):
        v.fail(f"{note}: log|J| {logabs!r} vs {ref}")


def _conv(cmd, text, cache, rng, v):
    rows = _csv(text, "r,finite,predicted,delta", cmd, v)
    if rows is None:
        return
    N, lo = cmd.params["N"], cmd.params["lo"]
    rs = [lo + k * 0.01 for k in range(cmd.rows)]   # the CLI's own grid
    xs = np.array([r / N for r in rs])
    refs = cache.get(("conv", N, xs.tobytes()), lambda: oracle.jones_points(N, xs=xs))
    sample = set(rng.choice(cmd.rows, size=6, replace=False).tolist())
    for k in sorted(rng.choice(cmd.rows, size=MP_POINTS, replace=False).tolist()):
        oracle.cross_check(refs[k], N, x=xs[k], rng=rng)
    for k, (r, fin, pred, delta) in enumerate(rows):
        note = f"figure {cmd.params['fid']} r={r}"
        if not _close(float(r), rs[k], 0.0):
            v.fail(f"{note}: grid value, expected {rs[k]!r}")
            continue
        if fin:
            f = float(fin)
            if rs[k] == 0.0:
                if f != 0.0:
                    v.fail(f"{note}: {fin} at r = 0")
            else:
                scale = 2.0 * rs[k] * math.pi / N
                _jones_row(refs[k], refs[k].sign, f / scale, v, note)
            if not _close(float(delta), f - float(pred), PRINT_REL * (abs(f) + abs(float(pred)))):
                v.fail(f"{note}: delta {delta} != {fin} - {pred}")
        else:
            _jones_row(refs[k], 0, 0.0, v, note)
        if k in sample:
            ref, tol = oracle.predicted_mp(rs[k])
            if not _close(float(pred), ref, tol):
                v.fail(f"{note}: predicted {pred} vs {ref!r} (tol {tol:.2g})")


def _cable(cmd, text, cache, rng, v):
    rows = _csv(text, "c,value", cmd, v)
    if rows is None:
        return
    N, r = cmd.params["N"], cmd.params["r"]
    cs = list(range(1, 2 * N, 2))
    if float(r).is_integer():
        ri = int(float(r))
        key = ("cable-exact", N, ri)
        compute = lambda: [oracle.jones_batch(c, rat=([ri], N), int_phase=True)[0] for c in cs]
        point = {"rat": (ri, N)}
    else:
        x = float(r) / N
        key = ("cable", N, x)
        compute = lambda: [oracle.jones_batch(c, xs=[x])[0] for c in cs]
        point = {"x": x}
    refs = cache.get(key, compute)
    for k in sorted(rng.choice(len(cs), size=MP_POINTS, replace=False).tolist()):
        oracle.cross_check(refs[k], cs[k], rng=rng, **point)
    scale = 2.0 * math.pi / N
    for k, row in enumerate(rows):
        note = f"cable N={N} r={r} c={row[0]}"
        if len(row) != 2 or int(row[0]) != cs[k]:
            v.fail(f"{note}: expected color {cs[k]}")
        elif row[1]:
            _jones_row(refs[k], refs[k].sign, float(row[1]) / scale, v, note)
        else:
            _jones_row(refs[k], 0, 0.0, v, note)


def _sw(cmd, text, v):
    rows = _csv(text, "N,finite,predicted,delta", cmd, v)
    if rows is None:
        return
    m = float(oracle.mahler_fig8_alexander())
    for N, (n, fin, pred, delta) in zip(cmd.params["N_list"], rows):
        order = oracle.homology_fig8(N)
        ref = float(oracle.mp.log(order) / N)
        if int(n) != N or not _close(float(fin), ref, 0.0) or not _close(float(pred), m, 0.0):
            v.fail(f"mahler sw N={n}: {fin},{pred} vs {ref!r},{m!r}")
        elif not _close(float(delta), float(fin) - float(pred),
                        PRINT_REL * (abs(float(fin)) + abs(float(pred)))):
            v.fail(f"mahler sw N={n}: delta {delta} != {fin} - {pred}")


def _growth(cmd, text, cache, rng, v):
    rows = _csv(text, "N,mahler,ratio", cmd, v)
    if rows is None:
        return
    n = cmd.params["n_quad"]
    nums = 2 * np.arange(n, dtype=np.int64) + 1
    for N, (nn, m, ratio) in zip(cmd.params["N_list"], rows):
        refs = cache.get(("quad", N, n), lambda: oracle.jones_points(N, rat=(nums, 2 * n)))
        for k in sorted(rng.choice(n, size=MP_POINTS, replace=False).tolist()):
            oracle.cross_check(refs[k], N, rat=(int(nums[k]), 2 * n))
        # the mean of log|J| may stray by the mean of the per-sample bands;
        # an ill-conditioned sample may fall to its floor
        ref = float(np.mean([r.logabs for r in refs]))
        below, above = np.mean([r.band() for r in refs], axis=0)
        ill = sum(r.ill_conditioned for r in refs)
        mv = float(m)
        note = f"mahler jones-growth N={nn}"
        v.ill += int(ill > 0)
        slack = PRINT_REL * abs(ref)
        if int(nn) != N or not ref - below - slack <= mv <= ref + above + slack:
            v.fail(f"{note}: m {m} vs reference {ref!r}")
        elif not _close(float(ratio), 2.0 * math.pi * mv / math.log(N), 1e-15):
            v.fail(f"{note}: ratio {ratio} != 2 pi m / log N")
        v.notes.append(f"{note}: m {mv:.10g} vs long-double reference {ref:.10g} "
                       f"({mv - ref:+.3g}, accepted {ref - below:.4g} to {ref + above:.4g}); "
                       f"{ill} of {n} samples ill-conditioned")


def _eval(cmd, text, cache, rng, v):
    fields = dict(kv.split("=") for kv in text.split())
    N, r = cmd.params["N"], cmd.params["r"]
    x = float(r) / N
    ref = cache.get(("eval", N, x), lambda: oracle.jones_batch(N, xs=[x]))[0]
    oracle.cross_check(ref, N, x=x, rng=rng)
    sign, logabs = int(fields["sign"]), float(fields["log_abs"])
    note = f"eval N={N} r={r}"
    _jones_row(ref, sign, logabs, v, note)
    norm = 2.0 * float(r) * math.pi * logabs / N
    if not _close(float(fields["normalized"]), norm, 0.0):
        v.fail(f"{note}: normalized {fields['normalized']} != 2 r pi log_abs / N")


_CHECKS = {"volume": _volume, "curve": _curve, "conv": _conv, "cable": _cable,
           "growth": _growth, "eval": _eval}
