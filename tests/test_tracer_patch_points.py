"""The benchmark tracer patches package attributes by name: keep them there.

``perfbench/tracer.py`` replaces module attributes for its traced run, so a
package change that drops one of those names breaks ``perfbench/run.py
--trace 1``. This imports the tracer without writing bytecode next to it and
checks every patch point.
"""

from inputs import load_perfbench


def test_tracer_patch_points_resolve():
    points = load_perfbench("tracer")._patch_points()
    assert points
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in points
        if not callable(getattr(module, attr, None))
    ]
    assert not missing
