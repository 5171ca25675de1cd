"""The benchmark's traced run reports a fixed list of library functions.

``bench/tracing.py`` names them in ``_FUNCTIONS`` and finds the
functions it wraps by listing each module's members.  A traced public
function that is deleted or renamed would make ``--trace 1`` fail with
a ``KeyError``; this test fails first.
"""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    # compiled from source, so nothing is imported from or written to bench/
    module = types.ModuleType("bench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_reported_function_is_traced():
    tracing = _load_tracing()
    mods = types.SimpleNamespace(**{
        layer: importlib.import_module(f"heismoduli.{layer}")
        for layer in tracing.LIBRARY_LAYERS
    })
    found = {span for span, _, _, _ in tracing.traced_functions(mods)}
    assert set(tracing._FUNCTIONS) <= found, sorted(set(tracing._FUNCTIONS) - found)
