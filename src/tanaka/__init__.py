"""Exact-arithmetic prolongation of graded Lie algebras.

The package computes Tanaka prolongations of non-positively graded Lie
algebras over the rationals, the boundary maps and torsion spaces of
the associated reduction tower, and the quasi-gradation/lift calculus
on filtered vector spaces. Everything is exact: no floating point
enters any computation or report.

Each layer module is registered in `sys.modules` by `import tanaka` but
compiled and executed only on first attribute access, so a command
pays only for the layers it calls. The public names below resolve
through the module `__getattr__`.
"""

import importlib.util
import sys

# layer -> its public names, each layer after the layers it imports.
_EXPORTS = {
    "exact_linear": ("Matrix", "Subspace", "complement", "kernel", "rank", "solve"),
    "graded": ("GradedMap", "GradedSpace", "HomogeneousMap", "hom_basis", "hom_coords",
               "hom_space_dim", "unipotent_inverse"),
    "lie": ("G0Spec", "GradedLieAlgebra", "adjoin_g0", "bracket_eval", "der0",
            "der0_basis", "is_fundamental", "resolve_g0", "validate"),
    "filtered": ("AdaptedGradation", "FilteredSpace", "GradedFrame", "MLift",
                 "QuasiGradation", "act_quasi", "compatible_gradation", "full_lift",
                 "gradation_of_quasi", "is_compatible", "make_filtered_from_graded",
                 "mlift_of_quasi", "project_gradation", "project_quasi", "quasi_of_mlift",
                 "transition"),
    "prolong": ("ExtendedBracket", "ProlongationLevel", "ProlongationResult",
                "ProlongationStatus", "extended_bracket", "jacobi_failures",
                "order_and_bound", "prolong", "prolong_step"),
    "torsion": ("KernelReport", "TorsionSpace", "TowerReport", "TowerRow", "complement_w",
                "gl_tail_dim", "kernel_reports", "partial1", "partial1_matrix",
                "partial_np1", "partial_np1_matrix", "torsion_space", "tower_report"),
    "catalog": ("entries", "expected_oracle", "make_algebra"),
    "jsonio": ("AlgebraInputError", "LoadedAlgebra", "emit_algebra", "emit_g0_generators",
               "emit_result", "emit_result_document", "parse_algebra", "parse_g0",
               "parse_result"),
    "selftest": ("SuiteReport", "run_catalog_suite", "run_filtered_suite"),
}
_OWNER = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)

# Registered in reverse, dependants first: anything that walks sys.modules
# in order and rebinds names (a tracer) then loads each layer before it has
# rebound the names that layer imports.
for _layer in reversed(_EXPORTS):
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)
del _layer, _spec, _module


def __getattr__(name):
    """A public name, else a layer module: `tanaka.prolong` is the function."""
    if name in _OWNER:
        return getattr(sys.modules[f"{__name__}.{_OWNER[name]}"], name)
    if name in _EXPORTS:
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _OWNER.keys() | _EXPORTS.keys())


__version__ = "0.1.0"
