"""wzwkit: modular data and simple-current machinery for WZW categories.

The package computes, for a simple Lie algebra g of bounded rank and a level
k, the modular data of the category C(g, k); detects its Picard group of
simple currents; classifies the algebras (H, Xi) supported on them; evaluates
the corresponding bulk partition matrices; counts boundary conditions; builds
bimodule fusion rings with their Picard groups and Kramers-Wannier candidates;
and runs the twining-matrix property suite for the gauge-invariant 6j-scalars.

Every public name is re-exported here, but a submodule is imported only when
one of its names is first used (PEP 562), so importing the package, or one
of its modules, does not pay for the others.
"""

import importlib

__version__ = "0.1.0"

# Public names by home module, in the order of __all__.
_EXPORTS = {
    "config": ("Config", "DEFAULT_CONFIG"),
    "affine": (
        "SimpleLieType", "RootSystem", "LevelData", "ModularData", "parse_lie_type",
        "build_root_system", "weyl_group", "integrable_weights", "conformal_weight",
        "central_charge", "kac_peterson_S", "verlinde_fusion", "modular_data",
        "modular_data_to_doc", "modular_data_from_doc",
    ),
    "picard": (
        "SimpleCurrent", "PicardGroup", "DiagramAutomorphism", "find_simple_currents",
        "charge_table", "quadratic_form", "verify_quadratic", "diagram_automorphism",
    ),
    "schellekens": (
        "Subgroup", "KSB", "SchellekensAlgebra", "ClassifiedAlgebra",
        "enumerate_subgroups", "enumerate_ksbs", "partition_function",
        "verify_modular_invariance", "classify_algebras",
    ),
    "boundary": (
        "OrbitDecomposition", "EpsilonForm", "BoundaryLabel", "BoundaryCount",
        "orbit_decomposition", "epsilon_form", "count_boundary_conditions",
    ),
    "bimodule": (
        "BimoduleClass", "BimoduleRing", "BimodulePicard", "build_bimodule_ring",
        "build_pointed_bimodule_ring", "bimodule_picard", "act_on_boundaries",
        "kramers_wannier_candidates",
    ),
    "twining": (
        "OrbitAlgebraData", "TwiningSMatrix", "PhiTable", "ConjectureReport", "fixed_points",
        "fold_diagram", "twining_S", "extract_phi", "build_phi_table", "verify_conjecture",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
