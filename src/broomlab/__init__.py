"""Graph laboratory for multibroom containment, multipartite cores,
template arrays, daisy structures, and exact bound audits.

Importing ``broomlab`` is cheap: each public name loads its submodule
on first use (PEP 562), so ``from broomlab import find_core`` loads
``structures`` and what it imports, and nothing else.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_SUBMODULE = {
    name: module
    for module, names in (
        ("graphs", (
            "Digraph", "Graph", "induced", "is_clique", "is_stable",
            "neighborhood_closed", "neighborhood_exact",
        )),
        ("solvers", (
            "Coloring", "InstanceTooLarge", "chi_local", "chromatic_number",
            "clique_number", "solving", "validate_coloring",
        )),
        ("structures", (
            "CoreWitness", "Params", "ThetaTable", "check_conditions",
            "find_core", "is_dense_to", "is_eta_mixed", "is_matching_covered",
            "max_matching_covered_chi",
        )),
        ("trees", (
            "Embedding", "PatternTree", "assemble_T_delta", "build_T",
            "build_broom", "build_multibroom", "contains_induced",
            "find_rooted_broom", "is_T_delta_free", "verify_embedding",
        )),
        ("constants", (
            "ConstantsLedger", "compose_phi", "ledger", "phi_step", "reevaluate",
        )),
        ("templates", (
            "AuditReport", "Template", "TemplateArray", "bound_audit",
            "clean1", "clean2", "clean3", "color_bounded_outdegree",
            "extract_T_delta_witness", "extract_template_array",
            "gallai_roy_color", "is_1_cleaned", "is_2_cleaned", "is_3_cleaned",
            "is_partially_1_cleaned", "is_partially_2_cleaned",
            "validate_template_array",
        )),
        ("shadows", (
            "Daisy", "Privatization", "Shadowing", "build_shadowing",
            "find_bunch", "find_daisy", "private_cover", "privatize",
            "shadowing_degree", "strong_triple_audit",
        )),
        ("generators", ("GenSpec", "generate", "plant_core")),
        ("pipeline", ("PipelineTrace", "run_pipeline")),
    )
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    """Import the submodule that defines ``name``, and bind the name here
    so that later lookups never come back."""
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
