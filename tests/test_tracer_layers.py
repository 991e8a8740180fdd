"""The outside tracer of the benchmark must still find every layer it wraps.

perfbench/tracer.py names, per hyperlab module, the module-level functions
a traced benchmark run wraps.  A rename or a deletion in src/ would make a
traced run fail at install time; this test catches it in the tier-1 suite.
"""
import importlib
import importlib.util
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_layer_is_a_module_level_function():
    layers = _load_tracer().LAYERS
    assert layers
    missing = []
    for mod, names in layers.items():
        module = importlib.import_module(f"hyperlab.{mod}")
        for name in names:
            fn = getattr(module, name, None)
            if not (inspect.isfunction(fn) and fn.__module__.startswith("hyperlab.")):
                missing.append(f"{mod}.{name}")
    assert not missing, f"tracer layers that no longer resolve: {missing}"
