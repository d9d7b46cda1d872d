"""The benchmark tracer finds every tvermat binding it wraps.

``perfbench/tracing.py`` wraps its entry points by (module, attribute) name,
so a rename would break only traced benchmark runs; this test reads
ENTRY_POINTS from that file without changing it and resolves each name.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import tvermat.matroids
import tvermat.tverberg

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_entry_points_resolve():
    entry_points = _tracing().ENTRY_POINTS
    assert entry_points
    for module, attribute, _layer in entry_points:
        target = getattr(importlib.import_module(module), attribute, None)
        assert callable(target), f"{module}.{attribute}"
    # generators are timed per resumption; a plain iterator would read as 0 s
    assert inspect.isgeneratorfunction(tvermat.tverberg.enumerate_faces)
    # the oracles are wrapped at class level, each class's own _indep
    assert any("_indep" in vars(cls) for cls in vars(tvermat.matroids).values()
               if isinstance(cls, type) and issubclass(cls, tvermat.matroids.Matroid))
