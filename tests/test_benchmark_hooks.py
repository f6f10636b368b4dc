"""The benchmark's traced run (perfbench/tracing.py) wraps package
functions at the module attributes their callers look up; each of them
must exist, or ``perfbench/run.py --trace 1`` breaks."""

import ast
import contextlib
import importlib
import io
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_sites() -> list[tuple[str, str]]:
    """(module, attribute) pairs of the WRAPPED table, read from the
    source without importing it."""
    for node in ast.parse(TRACING.read_text()).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)):
            table = ast.literal_eval(node.value)
            return [site for sites in table.values() for site in sites]
    raise AssertionError(f"no WRAPPED table in {TRACING}")


def test_wrapped_attributes_resolve():
    # perfbench/run.py's probe also calls _kernels.current_backend
    sites = wrapped_sites() + [("_kernels", "current_backend")]
    missing = [f"fig8jones.{mod}.{attr}" for mod, attr in sites
               if not callable(getattr(importlib.import_module(f"fig8jones.{mod}"),
                                       attr, None))]
    assert not missing


# one in-process command per cli site of the WRAPPED table
COMMANDS = (
    ("eval", "--N", "100", "--r", "1"),
    ("figure", "conv1", "--step", "0.5", "--out", "-"),
    ("figure", "V", "--step", "0.5", "--out", "-"),
    ("figure", "W", "--step", "0.5", "--out", "-"),
    ("figure", "cable", "--N", "40", "--r", "1", "--out", "-"),
    ("volume",),
    ("lobachevsky", "--theta", "0.5"),
    ("mahler", "sw", "--N-list", "2,5", "--out", "-"),
    ("mahler", "quad", "--jones", "5", "--n", "64"),
    ("mahler", "roots", "--poly=-1,3,-1@-1"),
    ("mahler", "homology", "--N", "4"),
    ("mahler", "jones-growth", "--N-list", "2", "--n-quad", "64"),
)


def test_commands_call_through_the_traced_sites(monkeypatch):
    # a wrapper set on a cli attribute, as the traced run sets its spans,
    # is what the commands call
    cli = importlib.import_module("fig8jones.cli")
    attrs = {attr for mod, attr in wrapped_sites() if mod == "cli"}
    ran = set()

    def recording(attr, fn):
        def wrapper(*args, **kwargs):
            ran.add(attr)
            return fn(*args, **kwargs)
        return wrapper

    for attr in attrs:
        monkeypatch.setattr(cli, attr, recording(attr, getattr(cli, attr)))
    for argv in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(list(argv)) == 0, argv
    assert ran == attrs
