"""The benchmark tracer patches package attributes by name: keep them there.

``perfbench/tracer.py`` replaces module attributes for its traced run, so a
package change that drops one of those names breaks ``perfbench/run.py
--trace 1``. This imports the tracer without writing bytecode next to it and
checks every patch point.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_patch_points_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    points = tracer._patch_points()
    assert points
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in points
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
