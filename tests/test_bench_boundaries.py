"""The benchmark wraps functions by name; each name must still resolve.

``perfbench/spans.py`` replaces every name of its ``BOUNDARIES`` table with
``getattr``/``setattr`` on the module where callers look it up, so a name
that leaves its module aborts every traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module_name}.{name}"
        for module_name, names in spans.BOUNDARIES.items()
        for name in names
        if not callable(getattr(
            importlib.import_module(f"momentsieve.{module_name}"), name, None))
    ]
    assert missing == []
