"""Cyclic subgroup graphs of finite groups, line-graph recognition by two
independent methods, and an exhaustive checker for the classification of the
groups whose graph is a line graph.

Each public name is imported from its module on first use (PEP 562), so
`import grouplines` loads no submodule, and a name loads only the modules it
needs: `grouplines.derive_forbidden_set` loads `graphs` and `linegraph`.
"""

import importlib

# Each exported name and the module that defines it; `__all__` is its keys.
_EXPORTS = {
    "FiniteGroup": "groups",
    "ForbiddenSet": "linegraph",
    "GroupRecord": "catalog",
    "GroupTableError": "groups",
    "LabeledGraph": "lattice",
    "OrderClass": "groups",
    "SimpleGraph": "graphs",
    "Subgroup": "groups",
    "TheoremReport": "verify",
    "CaseReport": "verify",
    "CompletenessReport": "verify",
    "Verdict": "linegraph",
    "VertexLabel": "lattice",
    "build_catalog": "catalog",
    "build_gamma": "lattice",
    "canonical_key": "graphs",
    "catalog_specs": "catalog",
    "check_completeness_claim": "verify",
    "classify_order": "groups",
    "connected_components": "graphs",
    "derive_forbidden_set": "linegraph",
    "direct_product": "groups",
    "divisor_hasse": "lattice",
    "factorize": "groups",
    "from_cayley_table": "groups",
    "is_isomorphic_small_group": "groups",
    "is_line_graph_by_beineke": "linegraph",
    "is_line_graph_by_roots": "linegraph",
    "line_graph": "linegraph",
    "make_alternating": "groups",
    "make_cyclic": "groups",
    "make_dicyclic": "groups",
    "make_dihedral": "groups",
    "make_symmetric": "groups",
    "parse_group_spec": "catalog",
    "predict": "verify",
    "to_cayley_table": "groups",
    "to_dot": "lattice",
    "to_edge_list": "lattice",
    "verify_case_theorems": "verify",
    "verify_catalog": "verify",
    "verify_main_theorem": "verify",
}
_SUBMODULES = ("catalog", "cli", "fanout", "graphs", "groups", "lattice", "linegraph", "verify")

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        # Importing a submodule binds it here, so this runs once per name.
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
