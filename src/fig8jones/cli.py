"""Command-line front end: evaluate the special functions and Jones
values, and emit the experiment CSVs behind every figure.

argparse owns the grammar: an input with several spellings is a
mutually exclusive group (``mahler quad`` takes exactly one of
``--poly``/``--const``/``--jones``, ``eval`` one of ``--r``/``--x``),
and ``--check`` belongs to the six top-level commands.

Exit codes: 0 success, 2 domain error, 64 usage error, 70 numeric or
precision error, or not enough memory (one line on stderr, no
traceback).  CSV cells carry 15 significant digits; identical
flags produce byte-identical files.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # the process ends with its command: no cyclic GC
    gc.disable()

import argparse
import math
import sys
from functools import partial

import numpy as np

from .errors import DomainError, PrecisionError, SingularityError, ZeroValueError
from .jones_fig8 import EvaluationPoint, colored_jones, normalized_log
from .limits import convergence_table, limit_V, limit_W, mahler_growth_integral
from .mahler import (
    FIG8_ALEXANDER,
    LaurentPolynomialZ,
    const_on_circle,
    homology_order,
    jones_mahler_growth,
    jones_on_circle,
    log_mahler_quadrature,
    mahler_from_roots,
    silver_williams_convergence,
)
from .satellite import argmax_color, cable_profile
from .special_functions import fig8_volume, lobachevsky

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64
EXIT_NUMERIC = 70

FIGURE_IDS = ("V", "W", "conv1", "conv2", "conv3", "conv4", "conv5",
              "conv8000", "cable")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt(v: float) -> str:
    return format(v, ".15g")


def _write_rows(path: str, header: str, rows) -> None:
    text = header + "\n" + "\n".join(rows) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)
        print(f"wrote {path}")


def _run_checks(checks) -> int:
    failures = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_lobachevsky(args) -> int:
    if args.check:
        vol = fig8_volume()
        return _run_checks([
            ("lobachevsky(0) == 0", lobachevsky(0.0) == 0.0),
            ("lobachevsky(pi) ~ 0", abs(lobachevsky(math.pi)) < 1e-12),
            ("4*lobachevsky(pi/6) ~ volume",
             abs(4.0 * lobachevsky(math.pi / 6) - 2.029883213) < 1e-8),
            ("odd + pi-periodic on a grid",
             bool(np.all(np.abs(lobachevsky(np.linspace(-3, 3, 61))
                                + lobachevsky(-np.linspace(-3, 3, 61))) < 1e-13)
                  and np.all(np.abs(lobachevsky(np.linspace(0, 3, 61) + np.pi)
                                    - lobachevsky(np.linspace(0, 3, 61))) < 1e-13))),
            ("volume consistency -4*L(5pi/6)",
             abs(vol + 4.0 * lobachevsky(5 * math.pi / 6)) < 1e-10),
        ])
    print(_fmt(lobachevsky(args.theta)))
    return EXIT_OK


def _cmd_volume(args) -> int:
    if args.check:
        vol = fig8_volume()
        return _run_checks([
            ("volume ~ 2.029883213", abs(vol - 2.029883213) < 1e-8),
            ("volume == 6*L(pi/3) to 1e-10",
             abs(vol - 6.0 * lobachevsky(math.pi / 3)) < 1e-10),
        ])
    print(_fmt(fig8_volume()))
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.check:
        j2 = colored_jones(EvaluationPoint(2, 0.5))
        j3 = colored_jones(EvaluationPoint(3, 1.0 / 3.0))
        j1 = colored_jones(EvaluationPoint(1, 0.25))
        return _run_checks([
            ("|J_2(e^pi i)| == 5",
             j2.sign == 1 and abs(j2.logabs - math.log(5)) < 1e-12),
            ("|J_3(e^2pi i/3)| == 13",
             j3.sign == 1 and abs(j3.logabs - math.log(13)) < 1e-12),
            ("J_1 == 1", j1.sign == 1 and j1.logabs == 0.0),
        ])
    if args.r is not None:
        p = EvaluationPoint.from_r(args.N, args.r)
    else:
        p = EvaluationPoint(args.N, args.x)
    v = colored_jones(p)
    if v.sign == 0:
        raise ZeroValueError(f"J_N vanishes at N={p.N}, x={p.x}")
    print(f"sign={v.sign:+d} log_abs={_fmt(v.logabs)} "
          f"normalized={_fmt(normalized_log(p, v))}")
    return EXIT_OK


def _steps(step: float) -> int:
    """Number n of grid steps over a unit interval; step must be 1/n for
    a whole n >= 1, to 1e-9, or it is a domain error."""
    n = round(1.0 / step) if step > 0.0 and math.isfinite(1.0 / step) else 0
    if n < 1 or abs(n * step - 1.0) > 1e-9:
        raise DomainError(f"--step must be 1/n for a whole number n >= 1, got {step}")
    return n


def _figure_curve(which, step: float):
    n = _steps(step)
    xs = np.arange(n + 1) / n
    vals = which(xs)
    rows = [f"{_fmt(x)},,{_fmt(v)}," for x, v in zip(xs, vals)]
    return "r,finite,predicted,delta", rows


def _record_rows(records) -> list[str]:
    """CSV rows r,finite,predicted,delta of ConvergenceRecords; a flagged
    record leaves finite and delta empty."""
    return [f"{_fmt(rec.r)},,{_fmt(rec.predicted)}," if rec.flagged else
            f"{_fmt(rec.r)},{_fmt(rec.finite_value)},"
            f"{_fmt(rec.predicted)},{_fmt(rec.delta)}" for rec in records]


def _figure_conv(lo: float, N: int, step: float):
    n = _steps(step)
    rs = [lo + k * step for k in range(n + 1)]
    return "r,finite,predicted,delta", _record_rows(convergence_table(rs, N))


def _cmd_figure(args) -> int:
    if args.check:
        vol = fig8_volume()
        seam = abs(float(limit_V(0.75 - 1e-12)) - float(limit_V(0.75 + 1e-12)))
        return _run_checks([
            ("V(0.1) == 0", float(limit_V(0.1)) == 0.0),
            ("V(1) ~ volume", abs(float(limit_V(1.0)) - vol) < 1e-12),
            ("W(0) ~ volume", abs(float(limit_W(0.0)) - vol) < 1e-12),
            ("V continuous at 3/4", seam < 1e-8),
            ("integral W ~ 1.450191516",
             abs(mahler_growth_integral(1 << 16) - 1.450191516) < 1e-3),
        ])
    fid = args.id
    if fid is None:
        print("fig8jones figure: error: a figure id is required unless "
              "--check", file=sys.stderr)
        return EXIT_USAGE
    N, step = args.N, args.step
    # an option that does not shape this figure is refused, not ignored
    unused = {"V": ("N", "r"), "W": ("N", "r"), "cable": ("step",)}.get(fid, ("r",))
    given = [f"--{name}" for name in unused if getattr(args, name) is not None]
    if given:
        raise DomainError(f"figure {fid} takes no {' or '.join(given)}")
    if step is not None:
        _steps(step)
    if fid in ("V", "W"):
        header, rows = _figure_curve(limit_V if fid == "V" else limit_W,
                                     0.001 if step is None else step)
    elif fid == "cable":
        profile = cable_profile(800 if N is None else N, 1.0 if args.r is None else args.r)
        header = "c,value"
        rows = [f"{row.c}," if row.flagged else f"{row.c},{_fmt(row.value)}"
                for row in profile.rows]
    else:  # convK: r in [K-1, K] at N = 2000; conv8000: r in [4, 5] at N = 8000
        lo, default_N = (4.0, 8000) if fid == "conv8000" else (int(fid[-1]) - 1.0, 2000)
        header, rows = _figure_conv(lo, default_N if N is None else N,
                                    0.01 if step is None else step)
    _write_rows(args.out or f"{fid}.csv", header, rows)
    return EXIT_OK


def _parse_n_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


def _cmd_mahler(args) -> int:
    if args.check:
        m_fig8 = mahler_from_roots(FIG8_ALEXANDER)
        return _run_checks([
            ("homology orders 5, 16, 45",
             [homology_order(FIG8_ALEXANDER, n) for n in (2, 3, 4)] == [5, 16, 45]),
            ("m(fig8 Alexander) ~ log((3+sqrt5)/2)",
             abs(m_fig8 - math.log((3 + math.sqrt(5)) / 2)) < 1e-12),
            ("quadrature of constant 1 == 0",
             log_mahler_quadrature(partial(const_on_circle, 1.0), 4096) == 0.0),
        ])
    sub = args.mahler_cmd
    if sub == "roots":
        f = LaurentPolynomialZ.parse(args.poly)
        print(_fmt(mahler_from_roots(f, args.tol)))
    elif sub == "quad":
        if args.const is not None:
            sample = partial(const_on_circle, args.const)
        elif args.jones is not None:
            sample = partial(jones_on_circle, args.jones)
        else:
            sample = LaurentPolynomialZ.parse(args.poly).eval_circle_batch
        print(_fmt(log_mahler_quadrature(sample, args.n)))
    elif sub == "homology":
        f = LaurentPolynomialZ.parse(args.poly)
        print(homology_order(f, args.N, method=args.method))
    elif sub == "sw":
        f = LaurentPolynomialZ.parse(args.poly)
        records = silver_williams_convergence(f, _parse_n_list(args.N_list))
        _write_rows(args.out, "N,finite,predicted,delta", _record_rows(records))
    elif sub == "jones-growth":
        rows = jones_mahler_growth(_parse_n_list(args.N_list), args.n_quad)
        out_rows = [f"{N},{_fmt(m)},{_fmt(ratio)}" for N, m, ratio in rows]
        _write_rows(args.out, "N,mahler,ratio", out_rows)
    else:
        print("fig8jones mahler: error: a subcommand is required "
              "(roots, quad, homology, sw, jones-growth) unless --check",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _cmd_cable(args) -> int:
    if args.check:
        profile = cable_profile(2, 1.0)
        return _run_checks([
            ("N=2 r=1 has rows c=1,3",
             [row.c for row in profile.rows] == [1, 3]),
            ("J_1 row value is 0", profile.rows[0].value == 0.0),
            ("argmax ties resolve upward", argmax_color(2, 1.0) == 3),
        ])
    print(argmax_color(args.N, args.r))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    p = _Parser(prog="fig8jones",
                description="Figure-eight colored Jones numerics and "
                            "volume-limit experiments")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("lobachevsky", help="evaluate the Lobachevsky function")
    q.add_argument("--theta", type=float, default=0.0)
    q.add_argument("--check", action="store_true")
    q.set_defaults(fn=_cmd_lobachevsky)

    q = sub.add_parser("volume", help="figure-eight complement volume")
    q.add_argument("--check", action="store_true")
    q.set_defaults(fn=_cmd_volume)

    q = sub.add_parser("eval", help="evaluate J_N on the unit circle")
    q.add_argument("--N", type=int, required=False, default=2)
    at = q.add_mutually_exclusive_group()
    at.add_argument("--r", type=float, default=None,
                    help="growth parameter; position is x = r/N")
    at.add_argument("--x", type=float, default=0.0,
                    help="circle position in [0,1), in place of --r; "
                         "default 0 (t = 1)")
    q.add_argument("--check", action="store_true")
    q.set_defaults(fn=_cmd_eval)

    q = sub.add_parser("figure", help="emit one experiment CSV")
    q.add_argument("id", nargs="?", choices=FIGURE_IDS,
                   help="V/W: limit curves over x in [0,1], step 0.001; "
                        "convK: finite-N vs limit over r in [K-1,K], step "
                        "0.01, N=2000; conv8000: r in [4,5] at N=8000; "
                        "cable: color profile rows (c,value)")
    q.add_argument("--N", type=int, default=None)
    q.add_argument("--r", type=float, default=None, help="cable growth parameter, default 1")
    q.add_argument("--step", type=float, default=None)
    q.add_argument("--out", default=None, help="output path; '-' for stdout")
    q.add_argument("--check", action="store_true")
    q.set_defaults(fn=_cmd_figure)

    q = sub.add_parser("mahler", help="Mahler measures and homology orders")
    msub = q.add_subparsers(dest="mahler_cmd", required=False)
    q.add_argument("--check", action="store_true")
    q.set_defaults(fn=_cmd_mahler)

    m = msub.add_parser("roots", help="m(f) from roots; poly syntax c0,c1,...@low")
    m.add_argument("--poly", required=True)
    m.add_argument("--tol", type=float, default=1e-9)

    m = msub.add_parser("quad", help="m via circle quadrature")
    src = m.add_mutually_exclusive_group(required=True)
    src.add_argument("--poly", default=None)
    src.add_argument("--const", type=float, default=None)
    src.add_argument("--jones", type=int, default=None, metavar="N")
    m.add_argument("--n", type=int, default=1 << 16)

    m = msub.add_parser("homology", help="|H_1| of the branched cyclic cover")
    m.add_argument("--N", type=int, required=True)
    m.add_argument("--poly", default=str(FIG8_ALEXANDER))
    m.add_argument("--method", choices=("exact", "float"), default="exact",
                   help="exact = integer arithmetic; float = complex "
                        "product, refused (exit 70) once its forward error "
                        "bound reaches 0.25")

    m = msub.add_parser("sw", help="Silver-Williams convergence records")
    m.add_argument("--poly", default=str(FIG8_ALEXANDER))
    m.add_argument("--N-list", dest="N_list", default="2,5,10,20,50,100")
    m.add_argument("--out", default="-")

    m = msub.add_parser("jones-growth", help="m(J_N) growth ratios")
    m.add_argument("--N-list", dest="N_list", default="100,300,1000")
    m.add_argument("--n-quad", dest="n_quad", type=int, default=1 << 14)
    m.add_argument("--out", default="-")

    q = sub.add_parser("cable", help="argmax color of the cable profile")
    q.add_argument("--N", type=int, default=800)
    q.add_argument("--r", type=float, default=1.0)
    q.add_argument("--check", action="store_true")
    q.set_defaults(fn=_cmd_cable)

    return p


def _join_dash_values(argv: list[str]) -> list[str]:
    # let "--poly -1,3,-1@-1" survive argparse's option detection
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--poly" and i + 1 < len(argv):
            out.append(f"--poly={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_join_dash_values(list(argv)))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except (PrecisionError, SingularityError, ZeroValueError) as exc:
        print(f"fig8jones: numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print("fig8jones: numeric error: not enough memory (a scan holds one "
              "block of about 2^15 terms whatever N is; profiles, quadratures "
              "and homology orders hold arrays that grow with N or the sample "
              "count)", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"fig8jones: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def run() -> int:
    """``main()`` for a process that exits after it (``python -m`` and the
    console script): no collection runs, and the frozen heap spares
    shut-down its final pass over every object."""
    gc.disable()
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
