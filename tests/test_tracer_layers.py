"""The outside tracer of the benchmark must still find every layer it wraps.

perfbench/tracer.py names, per hyperlab module, the module-level functions
a traced benchmark run wraps.  A rename or a deletion in src/ would make a
traced run fail at install time; this test catches it in the tier-1 suite.
"""
import importlib
import importlib.util
import inspect
import pathlib
import subprocess
import sys

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


def test_importing_cli_loads_numpy_and_every_traced_module(child_env):
    # a traced run reads sys.modules["hyperlab.<mod>"] for every layer, and the
    # import-time probe reads numpy's line under `import hyperlab.cli`
    probe = "import sys, hyperlab.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=120, env=child_env, check=True).stdout.split()
    expected = {"numpy"} | {f"hyperlab.{mod}" for mod in _load_tracer().LAYERS}
    assert expected <= set(loaded)
