"""The outside tracer of the benchmark must still find every layer it wraps.

perfbench/tracer.py names, per hyperlab module, the module-level functions
a traced benchmark run wraps.  A rename or a deletion in src/ would make a
traced run fail at install time; this test catches it in the tier-1 suite.
The same spans pin the per-op work of one verify.
"""
import importlib
import importlib.util
import inspect
import pathlib
import subprocess
import sys

import pytest

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


def test_one_verify_builds_the_jacobi_operator_once_per_commutator(capsys):
    # phi l - l phi and lA - Al are cached on the context, so every check row
    # and the theorem block read the same two products
    import hyperlab.cli

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = hyperlab.cli.run(["verify", "--ambient", "CP", "--n", "3", "--family", "A2",
                                 "--k", "1", "--radius", "0.8", "--deterministic"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    assert tracer.stats["curvature_engine.jacobi_operator"][0] == 2
    assert tracer.stats["cli.run"][0] == 1


_VERIFY_CALLS = {"hopf_conditions.decompose_A_xi": 2, "hopf_conditions.classify": 1,
                 "hopf_conditions.theorem_pipeline": 1, "tensor_core.build_phi_basis": 0,
                 "tensor_core.canonical_structure": 1, "tensor_core.validate_acs": 1,
                 "curvature_engine.jacobi_operator": 2,
                 # alpha and the two ker(eta) branches each run the oracle once
                 "model_catalog.riccati_shape_evolution": 3,
                 "model_catalog.principal_curvatures": 1, "model_catalog.instantiate": 1}


@pytest.mark.parametrize("argv, codazzi", [
    (["--ambient", "CP", "--n", "3", "--family", "A2", "--k", "1", "--radius", "0.8"], 1),
    (["--ambient", "CH", "--n", "3", "--family", "B", "--radius", "0.7"], 0),
])
def test_one_verify_does_each_derived_computation_once(capsys, argv, codazzi):
    # the row battery and the catalog layer share one context: a refactor that
    # computes a derived tensor or a Hopf split a second time moves these counts
    import hyperlab.cli

    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = hyperlab.cli.run(["verify", *argv, "--deterministic"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    expected = {**_VERIFY_CALLS, "curvature_engine.codazzi_residual": codazzi}
    assert {name: tracer.stats[name][0] for name in expected} == expected
