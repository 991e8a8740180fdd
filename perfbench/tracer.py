"""Outside tracer: spans around the public functions of each hyperlab module.

`from .x import y` re-binds a function into other modules (cli,
hopf_conditions, model_catalog, sampling and the package __init__), and
every call goes through one of those module-level names.  So the wrapper
replaces the function at every binding site in every loaded hyperlab
module, and `restore` puts the originals back.  Self time is a span's
duration minus the time its child spans cover, kept on a span stack.  A
call to a function that is already open on the stack (to_canonical_json
recursing) is folded into the outer span, so only outermost calls count.
"""
from __future__ import annotations

import functools
import sys
import time

LAYERS = {
    "cli": ("run", "to_canonical_json", "to_markdown"),
    "model_catalog": ("instantiate", "principal_curvatures",
                      "riccati_shape_evolution", "type_a_nabla_a"),
    "tensor_core": ("build_phi_basis", "validate_acs", "random_structure",
                    "canonical_structure"),
    "curvature_engine": ("gauss_curvature", "jacobi_from_curvature",
                         "jacobi_closed_form", "jacobi_operator",
                         "codazzi_residual", "nabla_l"),
    "hopf_conditions": ("decompose_A_xi", "check_phi_l_commute",
                        "check_l_A_commute", "check_nabla_xi_l", "classify",
                        "theorem_pipeline"),
    "sampling": ("random_context", "random_hopf_context",
                 "random_symmetric_shape", "random_hopf_shape", "random_gram"),
    "lemma_lab": ("consistent_jet", "jet_from_mapping", "jet_residuals",
                  "contradiction_certificate"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


class Tracer:
    def __init__(self):
        self.stats = {name: [0, 0.0, 0] for name in SPAN_NAMES}  # calls, self s, errors
        self._stack: list[list[float]] = []
        self._open: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stats, stack, open_ = self.stats[name], self._stack, self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            child = [0.0]
            stack.append(child)
            open_.add(name)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                took = time.perf_counter() - start
                stack.pop()
                open_.discard(name)
                stats[0] += 1
                stats[1] += took - child[0]
                if stack:
                    stack[-1][0] += took
        return span

    def install(self):
        originals = {}
        for mod, fns in LAYERS.items():
            module = sys.modules[f"hyperlab.{mod}"]
            for fn in fns:
                originals[id(getattr(module, fn))] = self._wrap(f"{mod}.{fn}",
                                                                getattr(module, fn))
        modules = [m for name, m in list(sys.modules.items())
                   if name == "hyperlab" or name.startswith("hyperlab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, originals[id(value)])

    def restore(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()
