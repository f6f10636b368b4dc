"""Byte census of the command line: run a fixed list of commands against
two source trees and report every command whose output differs.

    python tools/census.py SRC_A SRC_B

SRC_A and SRC_B are checkouts of this repository (or their ``src``
directories).  Each command runs as ``python -m fig8jones.cli`` in a
fresh temporary directory, with PYTHONPATH set to the tree's ``src``
alone, one process at a time.  The census compares exit codes, stdout,
stderr and every file the command writes there (``--out`` paths are
relative), with each tree's own path replaced by ``<src>`` and, in
stderr, every ``.py:<line>:`` by ``.py:<n>:``, so that a warning that
names its calling line does not differ when an edit moves it.  It prints
the commands that differ and what differs, and exits 1 on any
difference, 0 when every command is identical.

The list covers the benchmark's commands (the paper's figures, the
cable profiles at integer and non-integer r, the quadrature growth
table and long scans), scans, profiles and quadrature on the rational
route where it flags few or all of its rows as near a root, scans and a
profile with rows of a multiple of 128 live factors, scans and
quadrature whose rows' last piece stops short at their zero, ``mahler roots``
(one that warns of a root near the circle), ``quad --poly``, exact
``homology`` (one that warns of f(1) != +-1), a table with no rows, the
six ``--check`` commands, commands for the error exits (2, 64, 70, 73;
a non-finite ``quad --const`` among the 2s, an unknown ``homology
--method`` among the 64s) and ``--out`` writes to files and to stdout.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SW = ",".join(map(str, range(2, 301)))

COMMANDS = (
    ("volume",),
    ("figure", "V", "--out", "V.csv"),
    ("figure", "W", "--out", "W.csv"),
    ("figure", "conv1", "--out", "conv1.csv"),
    ("figure", "conv2", "--out", "conv2.csv"),
    ("figure", "conv5", "--out", "conv5.csv"),
    ("figure", "conv8000", "--out", "conv8000.csv"),
    ("figure", "cable", "--N", "800", "--r", "1", "--out", "cable.csv"),
    ("figure", "cable", "--N", "800", "--r", "1.5", "--out", "cable.csv"),
    ("figure", "cable", "--N", "3000", "--r", "1", "--out", "cable.csv"),
    ("figure", "cable", "--N", "3000", "--r", "2", "--out", "cable.csv"),
    ("figure", "cable", "--N", "3000", "--r", "3", "--out", "-"),
    ("mahler", "sw", "--N-list", SW, "--out", "sw.csv"),
    ("mahler", "sw", "--N-list", "", "--out", "-"),  # a table with no rows
    ("mahler", "jones-growth", "--N-list", "100,300,1000", "--out", "growth.csv"),
    ("mahler", "quad", "--jones", "100"),
    ("eval", "--N", "1000000", "--r", "1"),
    ("eval", "--N", "3000000", "--r", "0.9"),
    ("eval", "--N", "10000000", "--r", "1.05"),
    ("eval", "--N", "10000000", "--x", "0.4142135623"),
    ("eval", "--N", "40000000", "--r", "1"),  # past the float route: exit 2
    ("eval", "--N", "194", "--x", "0.9949999999998909"),
    ("eval", "--N", "4096", "--x", "0.000244140625"),
    # rows of a multiple of 128 live factors, whose exact zero opens a
    # piece of its own: a generic x, the Kashaev-type point at r = 1 and
    # a float-route profile with a few such rows
    ("eval", "--N", "641", "--x", "0.4142135623"),
    ("eval", "--N", "2049", "--r", "1"),
    ("figure", "cable", "--N", "800", "--r", "3.3", "--out", "-"),
    # rows whose last piece stops short at their zero: three pieces, a
    # lone row of two blocks whose last piece holds 45 factors, and the
    # quadrature grid whose rows step 300 factors, not 384
    ("eval", "--N", "300", "--x", "0.4142135623"),
    ("eval", "--N", "524333", "--x", "0.4142135623"),
    ("mahler", "quad", "--jones", "300", "--n", "4096"),
    # the rational route at the edges of its near-row flags: Q = 1 and
    # Q = 2, an odd Q = N with flagged colors, a dyadic profile and
    # quadrature at Q = 2^17
    ("eval", "--N", "3", "--x", "0"),
    ("eval", "--N", "1000", "--x", "0.5"),
    ("figure", "cable", "--N", "1001", "--r", "7", "--out", "-"),
    ("figure", "cable", "--N", "1024", "--r", "0.5", "--out", "-"),
    ("mahler", "quad", "--jones", "300", "--n", "65536"),
    ("mahler", "roots", "--poly", "-1,3,-1@-1"),
    ("mahler", "roots", "--poly", "1,-2,1"),  # NearUnitRootWarning
    ("mahler", "quad", "--poly", "-1,3,-1@-1", "--n", "4096"),
    ("mahler", "homology", "--N", "40"),
    ("mahler", "homology", "--N", "5", "--poly", "2,1"),  # f(1) != +-1 warns
    ("cable",),
    ("lobachevsky", "--check"),
    ("volume", "--check"),
    ("eval", "--check"),
    ("figure", "--check"),
    ("mahler", "--check"),
    ("cable", "--check"),
    ("lobachevsky", "--theta", "nan"),
    ("figure", "V", "--step", "0", "--out", "V.csv"),
    ("figure", "conv1", "--step", "0.3", "--out", "c.csv"),
    ("figure", "nonsense"),
    ("figure",),
    ("mahler",),
    ("mahler", "quad", "--const", "0"),
    ("mahler", "quad", "--const", "nan"),
    ("mahler", "homology", "--N", "200", "--method", "float"),
    ("figure", "V", "--out", "missing/V.csv"),
    ("mahler", "sw", "--N-list", "2,5", "--out", "."),
)


def source(tree) -> Path:
    """The directory that holds the ``fig8jones`` package."""
    tree = Path(tree).resolve()
    return tree / "src" if (tree / "src" / "fig8jones").is_dir() else tree


def run(src: Path, argv) -> dict:
    """Exit code, stdout, stderr and written files of one command."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "fig8jones.cli", *argv], cwd=tmp,
                              env=env, capture_output=True, timeout=600)
        files = {str(p.relative_to(tmp)): p.read_bytes()
                 for p in sorted(Path(tmp).rglob("*")) if p.is_file()}
    mask = lambda b: b.replace(os.fsencode(src), b"<src>")
    return {"exit": proc.returncode, "stdout": mask(proc.stdout),
            "stderr": re.sub(rb"\.py:\d+:", b".py:<n>:", mask(proc.stderr)),
            "files": files}


def main(argv=None, commands=COMMANDS) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 64
    a, b = map(source, argv)
    differ = 0
    for cmd in commands:
        ra, rb = run(a, cmd), run(b, cmd)
        diff = [k for k in ra if ra[k] != rb[k]]
        if diff:
            differ += 1
            print(f"DIFF {' '.join(cmd)[:100]}: {', '.join(diff)} "
                  f"(exit {ra['exit']} / {rb['exit']})")
    print(f"{len(commands)} commands, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
