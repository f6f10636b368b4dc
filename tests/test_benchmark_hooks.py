"""The benchmark's traced run (perfbench/tracing.py) wraps package
functions at the module attributes their callers look up; each of them
must exist, or ``perfbench/run.py --trace 1`` breaks."""

import ast
import importlib
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
